"""Compiled inference plans vs the eager serving path, per conv backend.

The serving workload — micro-batches at every certified sub-network width
— is driven single-stream through the eager
:class:`~repro.engine.session.InferenceSession` path (per-call
slice/cast/allocate) and through compiled
:class:`~repro.nn.plan.InferencePlan` objects, once per **convolution
backend** (``im2col`` / ``shifted-gemm``).  Every (width, batch) cell runs
on the one plan per width the frontend serves with, compiled for the
largest batch: a run's work follows its live rows either way.
Reported: per-(backend, width, batch) rows/s, per-backend overall speedup
over eager, the shifted-vs-default ratio at the widest width, and
tracemalloc steady-state allocations.

This is the one measurement ``benchmarks/e2e`` does not make (it times the
default backend only), and the one ROADMAP item 5 still needs — where
shifted-GEMM crosses over im2col.  Nothing here is gated or committed:
the equality contracts, the allocation budget, the live-row extent and the
eager fallback are tier-1's (``tests/nn/test_plan.py``,
``tests/nn/test_conv_backends.py``).  Run directly to print the grid and
write it, env-stamped, to ``benchmarks/out/plan.json``::

    PYTHONPATH=src python benchmarks/bench_plan.py

or as the CI smoke (same code paths under both dtype policies, a small
grid, nothing written)::

    PYTHONPATH=src python benchmarks/bench_plan.py --smoke
"""

from __future__ import annotations

import time
import tracemalloc

from common import fluid_model, write_out
from repro.engine.session import InferenceSession
from repro.nn.functional import CONV_BACKENDS
from repro.nn.plan import compile_width_plans
from repro.utils import make_rng
from repro.utils.dtypes import DtypePolicy, dtype_policy

WIDTHS = ("lower25", "lower50", "lower75", "lower100")
WIDEST = WIDTHS[-1]


def _throughput(run, x, iters: int) -> float:
    """Single-stream rows/second of ``run`` over ``iters`` calls."""
    run(x)  # warm
    started = time.perf_counter()
    for _ in range(iters):
        run(x)
    elapsed = time.perf_counter() - started
    return iters * x.shape[0] / elapsed


def _alloc_per_request(run, x, runs: int = 20) -> float:
    """tracemalloc peak bytes per request at steady state."""
    run(x)  # warm (arenas + packed cache)
    tracemalloc.start()
    for _ in range(runs):
        run(x)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / runs


def run_plan_comparison(
    *,
    backends=CONV_BACKENDS,
    batches=(1, 4, 16),
    iters: int = 200,
    policy: DtypePolicy = None,
) -> dict:
    """Eager vs compiled plans over the backend x width x batch grid."""
    policy = policy or DtypePolicy.fast_inference()
    model = fluid_model()
    rng = make_rng(1)
    # One shared input per (width, batch) cell so backend columns are
    # directly comparable.
    inputs = {
        (width, batch): rng.standard_normal((batch, 1, 28, 28))
        for width in WIDTHS
        for batch in batches
    }
    top = max(batches)
    report: dict = {"dtype_policy": policy.inference, "backends": {}}
    with dtype_policy(policy):
        sessions = {w: InferenceSession(model, w) for w in WIDTHS}
        eager_rps = {
            key: _throughput(sessions[key[0]].run, x, iters)
            for key, x in inputs.items()
        }
        for backend in backends:
            plans = compile_width_plans(
                model, list(WIDTHS), batch_rows=top, conv_backend=backend
            )
            grid = []
            eager_total = plan_total = 0.0
            for (width, batch), x in inputs.items():
                plan_rps = _throughput(plans[width].run, x, iters)
                e_rps = eager_rps[(width, batch)]
                eager_total += iters * batch / e_rps
                plan_total += iters * batch / plan_rps
                grid.append(
                    {
                        "width": width,
                        "batch": batch,
                        "eager_rows_per_s": e_rps,
                        "plan_rows_per_s": plan_rps,
                        "speedup": plan_rps / e_rps,
                    }
                )
            report["backends"][backend] = {
                "exact": plans[WIDEST].exact,
                "grid": grid,
                "speedup_overall": eager_total / plan_total,
                "alloc_bytes_per_request": _alloc_per_request(
                    plans[WIDEST].run, inputs[(WIDEST, top)]
                ),
            }
        report["eager_alloc_bytes_per_request"] = _alloc_per_request(
            sessions[WIDEST].run, inputs[(WIDEST, top)]
        )
    if {"im2col", "shifted-gemm"} <= set(report["backends"]):
        widest_top = {
            backend: next(
                r["plan_rows_per_s"] for r in stats["grid"]
                if r["width"] == WIDEST and r["batch"] == top
            )
            for backend, stats in report["backends"].items()
        }
        report["shifted_vs_default_widest"] = (
            widest_top["shifted-gemm"] / widest_top["im2col"]
        )
    return report


def print_report(report: dict) -> None:
    for backend, stats in report["backends"].items():
        print(f"{backend} ({'bitwise' if stats['exact'] else 'allclose'}):")
        for row in stats["grid"]:
            print(
                f"  {row['width']:9s} batch {row['batch']:3d}  "
                f"eager {row['eager_rows_per_s']:8.0f} rows/s  "
                f"plan {row['plan_rows_per_s']:8.0f} rows/s  "
                f"{row['speedup']:.2f}x"
            )
        print(
            f"  overall {stats['speedup_overall']:.2f}x; steady-state "
            f"{stats['alloc_bytes_per_request']:.0f} B/request "
            f"(eager {report['eager_alloc_bytes_per_request']:.0f})"
        )
    ratio = report.get("shifted_vs_default_widest")
    if ratio is not None:
        print(f"shifted-gemm vs default plan at {WIDEST}: {ratio:.2f}x")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a small grid under both dtype policies; nothing written",
    )
    parser.add_argument(
        "--conv-backend", choices=CONV_BACKENDS, action="append", dest="backends",
        help="restrict the full run to specific backends (repeatable; default: both)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        print_report(run_plan_comparison(batches=(1, 8), iters=30))
        print_report(run_plan_comparison(batches=(2,), iters=5, policy=DtypePolicy()))
        print("smoke OK")
        return 0
    report = run_plan_comparison(backends=tuple(args.backends or CONV_BACKENDS))
    print_report(report)
    print(f"wrote {write_out('plan', report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
