"""Compiled inference plans vs the eager serving path, per conv backend.

The PR-4/PR-5 acceptance benchmark.  The serving workload — micro-batches
at every certified sub-network width — is driven single-stream through
the eager :class:`~repro.engine.session.InferenceSession` path (per-call
slice/cast/allocate) and through compiled
:class:`~repro.nn.plan.InferencePlan` objects, once per **convolution
backend** (``im2col`` / ``shifted-gemm``).  The
report — per-(backend, width, batch) throughput, per-backend overall
speedup, the shifted-vs-default ratio at the widest width, tracemalloc
steady-state allocations, and the batch-rows ladder's per-rung arena
footprint — is recorded to ``BENCH_plan.json``.

Functional facts asserted on every run (CI smoke included):

* the exact backend (``im2col``) is **bitwise identical** to the eager
  path at every width;
* ``shifted-gemm`` is allclose within
  :data:`~repro.nn.functional.SHIFTED_GEMM_TOLERANCE` (relaxed contract:
  its kernel-column reduction is re-associated);
* steady-state allocations stay under a small fixed budget;
* a :class:`~repro.nn.plan.PlanLadder` dispatches each batch to the
  smallest rung that fits, and a batch outside *every* rung falls back
  to the eager path through :class:`InferenceSession` (no plan arena is
  touched).

Wall-clock speedup varies on shared runners, so CI gates it only when
``REPRO_MIN_PLAN_SPEEDUP`` is set (local acceptance runs use 1.5 overall
for the default backend and 1.3 for shifted-gemm vs default at the
widest width).

Run directly for the acceptance record::

    PYTHONPATH=src python benchmarks/bench_plan.py

or as the CI smoke (same code paths, smaller grid, no record written)::

    PYTHONPATH=src python -m pytest benchmarks/bench_plan.py -q
    PYTHONPATH=src python benchmarks/bench_plan.py --smoke
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.engine.session import InferenceSession
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.functional import CONV_BACKENDS
from repro.nn.plan import compile_plan_ladder, compile_width_plans
from repro.utils import make_rng
from repro.utils.dtypes import DtypePolicy, dtype_policy

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_plan.json"

#: Steady-state allocation ceiling per plan request (bytes); the plan's
#: only per-run allocation is the returned logits copy plus interpreter
#: noise — the eager path allocates hundreds of kilobytes per call.
ALLOC_BUDGET_BYTES = 16 * 1024

WIDTHS = ("lower25", "lower50", "lower75", "lower100")
WIDEST = WIDTHS[-1]

#: Acceptance floors for the full (non-smoke) run.  The default-vs-eager
#: floor was 1.5 when plans were recorded against the PR-4 eager path;
#: porting the pairwise maxpool fold to eager inference (this PR) made
#: the baseline itself much faster, so the plan's remaining edge is the
#: allocation-free arenas + packed weights — strongest at small batches.
MIN_DEFAULT_SPEEDUP = 1.15       # default backend vs eager, overall
MIN_SHIFTED_VS_DEFAULT = 1.3     # shifted-gemm vs im2col plan, widest width


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


def check_contract(plan, plan_out: np.ndarray, eager_out: np.ndarray, where: str) -> None:
    """Assert the plan's equality contract: bitwise when ``plan.exact``,
    else allclose within the shifted-GEMM tolerance table."""
    if plan.exact:
        if not np.array_equal(plan_out, eager_out):
            raise AssertionError(f"{plan.conv_backend} diverged bitwise at {where}")
    else:
        tol = F.shifted_gemm_tolerance(plan.dtype)
        if not np.allclose(plan_out, eager_out, **tol):
            worst = np.abs(plan_out - eager_out).max()
            raise AssertionError(
                f"{plan.conv_backend} outside tolerance {tol} at {where} "
                f"(max abs err {worst:.3e})"
            )


def run_plan_comparison(
    *,
    backends=CONV_BACKENDS,
    batches=(1, 4, 16),
    iters: int = 200,
    policy: DtypePolicy = None,
) -> dict:
    """Eager vs compiled plans over the backend x width x batch grid.

    Every (backend, width, batch) cell asserts its equality contract
    against the same eager output before it is timed, so a recorded grid
    is also a verified one.
    """
    policy = policy or DtypePolicy.fast_inference()
    model = build_model("fluid", rng=make_rng(0))
    rng = make_rng(1)
    # One shared input per (width, batch) cell so backend columns are
    # directly comparable.
    inputs = {
        (width, batch): rng.standard_normal((batch, 1, 28, 28))
        for width in WIDTHS
        for batch in batches
    }
    report: dict = {"dtype_policy": policy.inference, "backends": {}}
    with dtype_policy(policy):
        sessions = {w: InferenceSession(model, w) for w in WIDTHS}
        eager_out = {key: sessions[key[0]].run(x) for key, x in inputs.items()}
        eager_rps = {
            key: _throughput(sessions[key[0]].run, x, iters)
            for key, x in inputs.items()
        }
        for backend in backends:
            plans = compile_width_plans(
                model, list(WIDTHS), batch_rows=max(batches), conv_backend=backend
            )
            grid = []
            eager_total = plan_total = 0.0
            for (width, batch), x in inputs.items():
                plan = plans[width]
                check_contract(plan, plan.run(x), eager_out[(width, batch)],
                               f"{width}, batch {batch}")
                plan_rps = _throughput(plan.run, x, iters)
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
            probe = inputs[(WIDEST, max(batches))]
            report["backends"][backend] = {
                "exact": plans[WIDEST].exact,
                "grid": grid,
                "speedup_overall": eager_total / plan_total,
                "alloc_bytes_per_request": _alloc_per_request(plans[WIDEST].run, probe),
            }
        report["eager_alloc_bytes_per_request"] = _alloc_per_request(
            sessions[WIDEST].run, inputs[(WIDEST, max(batches))]
        )
        report["alloc_budget_bytes"] = ALLOC_BUDGET_BYTES
        report["ladder"] = _ladder_report(model, batches)
    default = report["backends"].get("im2col")
    shifted = report["backends"].get("shifted-gemm")
    if default is not None and shifted is not None:
        key = max(batches)
        d_rps = next(
            r["plan_rows_per_s"] for r in default["grid"]
            if r["width"] == WIDEST and r["batch"] == key
        )
        s_rps = next(
            r["plan_rows_per_s"] for r in shifted["grid"]
            if r["width"] == WIDEST and r["batch"] == key
        )
        report["shifted_vs_default_widest"] = s_rps / d_rps
    return report


def _ladder_report(model, batches) -> dict:
    """Compile one ladder at the widest width; record per-rung arenas and
    verify smallest-rung dispatch plus the out-of-rung eager fallback."""
    top = max(batches)
    ladder = compile_plan_ladder(model, WIDEST, batch_rows=top)
    rng = make_rng(2)
    # Every batch lands on the smallest rung that holds it.
    for rows in range(1, top + 1):
        rung = ladder.rung_for(rows)
        assert rung is not None and rung.batch_rows == min(
            r.batch_rows for r in ladder.rungs if rows <= r.batch_rows
        ), f"{rows} rows landed on rung {rung}"
    # A batch larger than every rung is not accepted by the ladder, and an
    # InferenceSession carrying it serves the request through the eager
    # path without touching any rung's arenas.
    oversized = rng.standard_normal((top + 1, 1, 28, 28))
    assert not ladder.accepts(oversized)
    session = InferenceSession(model, WIDEST, plan=ladder)
    checkouts_before = [r.workspaces.checkouts for r in ladder.rungs]
    out = session.run(oversized)
    assert out.shape == (top + 1, 10)
    assert [r.workspaces.checkouts for r in ladder.rungs] == checkouts_before, (
        "oversized request touched a plan arena instead of falling back to eager"
    )
    return {
        "rungs": [r.batch_rows for r in ladder.rungs],
        "arena_bytes_per_rung": ladder.arena_nbytes(),
        "eager_fallback_verified": True,
    }


# -- CI smoke ---------------------------------------------------------------


def test_plan_backends_match_eager_and_stay_in_alloc_budget_smoke():
    """CI smoke: every conv backend's equality contract + the allocation
    budget always; the wall-clock speedup is a hard gate only when
    REPRO_MIN_PLAN_SPEEDUP is set (shared runners are too noisy for an
    unconditional gate), with three attempts before failing."""
    threshold = float(os.environ.get("REPRO_MIN_PLAN_SPEEDUP", "0"))
    last = None
    for _ in range(3):
        report = run_plan_comparison(batches=(1, 8), iters=30)
        last = report
        for backend, stats in report["backends"].items():
            assert stats["alloc_bytes_per_request"] < ALLOC_BUDGET_BYTES, (
                f"{backend} allocates {stats['alloc_bytes_per_request']:.0f} "
                f"B/request (budget {ALLOC_BUDGET_BYTES})"
            )
            assert stats["alloc_bytes_per_request"] < report["eager_alloc_bytes_per_request"]
        assert report["ladder"]["eager_fallback_verified"]
        if report["backends"]["im2col"]["speedup_overall"] >= threshold:
            for backend, stats in report["backends"].items():
                print(
                    f"{backend}: overall {stats['speedup_overall']:.2f}x, "
                    f"{stats['alloc_bytes_per_request']:.0f} B/request"
                )
            return
    raise AssertionError(
        f"plan speedup below {threshold} in 3 attempts: last "
        f"{last['backends']['im2col']['speedup_overall']:.2f}x"
    )


def test_plan_equivalence_float64_smoke():
    """The float64 policy takes the same compiled paths: the grid asserts
    bitwise equality (exact backends) / tight allclose (shifted-gemm)
    internally for every backend."""
    report = run_plan_comparison(batches=(2,), iters=5, policy=DtypePolicy())
    assert report["dtype_policy"] == "float64"
    assert set(report["backends"]) == set(CONV_BACKENDS)


# -- acceptance record -------------------------------------------------------


def _record(report, path=RECORD_PATH) -> None:
    payload = {
        "benchmark": "benchmarks/bench_plan.py",
        "description": (
            "Single-stream serving workload (micro-batches at every certified "
            "width) through the eager per-request path vs compiled "
            "InferencePlans, one grid per conv backend (im2col bitwise-exact "
            "default, shifted-GEMM allclose); includes "
            "the batch-rows ladder's per-rung arena footprint"
        ),
        **report,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI functional assertions on a small grid (no record)",
    )
    parser.add_argument(
        "--conv-backend",
        choices=CONV_BACKENDS,
        action="append",
        dest="backends",
        help="restrict the full run to specific backends (repeatable; "
        "default: both)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        test_plan_backends_match_eager_and_stay_in_alloc_budget_smoke()
        test_plan_equivalence_float64_smoke()
        print("smoke OK")
        return 0
    report = run_plan_comparison(backends=tuple(args.backends or CONV_BACKENDS))
    default = report["backends"].get("im2col")
    if default is not None and default["speedup_overall"] < MIN_DEFAULT_SPEEDUP:
        raise AssertionError(
            f"acceptance requires >={MIN_DEFAULT_SPEEDUP}x default-backend "
            f"speedup, measured {default['speedup_overall']:.2f}x"
        )
    ratio = report.get("shifted_vs_default_widest")
    if ratio is not None and ratio < MIN_SHIFTED_VS_DEFAULT:
        raise AssertionError(
            f"acceptance requires shifted-gemm >={MIN_SHIFTED_VS_DEFAULT}x the "
            f"default plan at {WIDEST}, measured {ratio:.2f}x"
        )
    _record(report)
    print(f"wrote {RECORD_PATH}")
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
    if ratio is not None:
        print(f"shifted-gemm vs default plan at {WIDEST}: {ratio:.2f}x")
    ladder = report["ladder"]
    arenas = ", ".join(
        f"{rows}: {nbytes / 1024:.0f}KiB"
        for rows, nbytes in ladder["arena_bytes_per_rung"].items()
    )
    print(f"ladder rungs {ladder['rungs']} arena bytes {{{arenas}}}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
