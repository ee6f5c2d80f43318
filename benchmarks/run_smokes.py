"""Unified benchmark smoke driver: one CI entry point for every bench.

CI used to run four copy-pasted inline bench steps; this driver replaces
them.  It does two things, in order:

1. **Re-verifies the committed ``BENCH_*.json`` records**: each record
   asserts functional facts (equality/allclose contracts, allocation
   budgets, miss-rate ordering, zero-copy serving) that must still hold
   as committed — a drifted record means the repo is telling a stale
   story and the job fails.  Wall-clock *numbers* are machine-dependent
   and are never gated here; the record checks gate the facts' internal
   consistency, the live smokes gate behaviour.  Records are checked
   *before* the smokes run because the nn micro-bench smoke regenerates
   ``BENCH_nn_micro.json`` in place — checking afterwards would validate
   the fresh artifact instead of the committed record.

2. **Runs every bench smoke** as a subprocess (the same commands the old
   inline steps ran): the nn micro-bench suite (which regenerates
   ``BENCH_nn_micro.json`` for the CI artifact), the micro-batched
   serving smoke, the SLA scheduler smoke, and the compiled-plan smoke —
   which itself covers both conv backends, the batch-rows ladder, and
   the out-of-rung eager fallback.

Usage::

    PYTHONPATH=src python benchmarks/run_smokes.py            # everything
    PYTHONPATH=src python benchmarks/run_smokes.py --list
    PYTHONPATH=src python benchmarks/run_smokes.py --only plan
    PYTHONPATH=src python benchmarks/run_smokes.py --records-only
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Smoke:
    """One bench smoke: a name and the argv that runs it."""

    name: str
    argv: Tuple[str, ...]
    description: str


SMOKES: Tuple[Smoke, ...] = (
    Smoke(
        "nn_micro",
        (
            sys.executable, "-m", "pytest", "benchmarks/bench_nn_micro.py", "-q",
            "--benchmark-disable-gc", "--benchmark-json=BENCH_nn_micro.json",
        ),
        "nn kernel micro-benchmarks incl. the dtype-policy speedup check",
    ),
    Smoke(
        "serving",
        (sys.executable, "-m", "pytest", "benchmarks/bench_serving_throughput.py", "-q"),
        "micro-batched vs serial serving (zero-copy shared weights)",
    ),
    Smoke(
        "scheduler",
        (sys.executable, "-m", "pytest", "benchmarks/bench_scheduler.py", "-q"),
        "SLA scheduler vs fixed-widest under overload + replica failure",
    ),
    Smoke(
        "plan",
        (sys.executable, "benchmarks/bench_plan.py", "--smoke"),
        "compiled plans vs eager: all conv backends, ladder, eager fallback",
    ),
    Smoke(
        "multiproc",
        (sys.executable, "benchmarks/bench_multiproc.py", "--smoke"),
        "process-pool replicas over shm weights: zero-copy, invalidation, parity",
    ),
    Smoke(
        "dist_plan",
        (sys.executable, "benchmarks/bench_dist_plan.py", "--smoke"),
        "compiled HA vs eager: bitwise parity, delta halos, zero steady-state alloc",
    ),
    Smoke(
        "trace_replay",
        (sys.executable, "benchmarks/bench_trace_replay.py", "--smoke"),
        "scenario-zoo replay: pinned corpus, sim determinism, tracing overhead",
    ),
    Smoke(
        "chaos",
        (sys.executable, "benchmarks/bench_chaos.py", "--smoke"),
        "self-healing: zero-lost supervised incident, chaos sim, brown-out",
    ),
    Smoke(
        "tuning",
        (sys.executable, "benchmarks/bench_tuning.py", "--smoke"),
        "offline autotuner: tuned beats default across the zoo, byte-deterministic",
    ),
)


# -- committed-record fact checks --------------------------------------------
#
# Each checker receives the parsed record and raises AssertionError with a
# precise message when a committed fact no longer holds.  Checks cover the
# *functional* facts a record asserts — never machine-dependent wall-clock.


def check_plan_record(record: dict) -> None:
    backends = record["backends"]
    expected = {"im2col", "shifted-gemm"}
    assert set(backends) == expected, (
        f"BENCH_plan.json covers backends {sorted(backends)}, expected {sorted(expected)}"
    )
    budget = record["alloc_budget_bytes"]
    for name, stats in backends.items():
        assert stats["alloc_bytes_per_request"] < budget, (
            f"{name} recorded {stats['alloc_bytes_per_request']:.0f} B/request, "
            f"over the {budget} B budget"
        )
        assert stats["alloc_bytes_per_request"] < record["eager_alloc_bytes_per_request"]
    assert backends["im2col"]["exact"], "im2col must record the bitwise contract"
    assert not backends["shifted-gemm"]["exact"], (
        "shifted-gemm must record the relaxed (allclose) contract"
    )
    assert record["shifted_vs_default_widest"] >= 1.3, (
        f"recorded shifted-vs-default ratio {record['shifted_vs_default_widest']:.2f} "
        "below the 1.3 acceptance floor"
    )
    ladder = record["ladder"]
    assert ladder["eager_fallback_verified"], "ladder fallback fact missing"
    arenas = {int(k): v for k, v in ladder["arena_bytes_per_rung"].items()}
    rungs = sorted(arenas)
    assert rungs == sorted(ladder["rungs"])
    sizes = [arenas[r] for r in rungs]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1], (
        f"ladder arena bytes must grow with the rung ceiling, got {arenas}"
    )


def check_scheduler_record(record: dict) -> None:
    comp = record["comparison"]
    assert comp["miss_rate_scheduler"] < comp["miss_rate_fixed_widest"], (
        f"scheduler miss-rate {comp['miss_rate_scheduler']:.3f} not below "
        f"fixed-widest {comp['miss_rate_fixed_widest']:.3f}"
    )
    assert comp["goodput_ratio"] >= 1.0, (
        f"scheduler goodput ratio {comp['goodput_ratio']:.2f} below 1.0"
    )
    assert comp["scheduler_lost"] == 0, (
        f"scheduler lost {comp['scheduler_lost']} requests (must be 0)"
    )
    # The two sides must describe the same trace.
    assert record["fixed_widest"]["requests"] == record["scheduler"]["requests"] == record["arrivals"]


def check_serving_record(record: dict) -> None:
    assert record["zero_copy"] is True, "serving record lost the zero-copy fact"
    speedup = record["speedup"]["micro_batched_vs_serial"]
    assert speedup > 1.0, (
        f"recorded micro-batched speedup {speedup:.2f} does not beat serial"
    )
    modes = record["modes"]
    assert modes["micro_batched"]["mean_batch_rows"] > 1.0, (
        "micro-batching record shows no actual batching"
    )


def check_dtype_policy_record(record: dict) -> None:
    assert record["meets_threshold"] is True
    assert record["speedup"] >= record["acceptance_threshold"], (
        f"recorded dtype-policy speedup {record['speedup']} below its own "
        f"threshold {record['acceptance_threshold']}"
    )


def check_nn_micro_record(record: dict) -> None:
    names = {b["name"] for b in record["benchmarks"]}
    assert names, "BENCH_nn_micro.json records no benchmarks"
    for required in ("test_conv_forward", "test_conv_backward"):
        assert any(required in n for n in names), f"{required} missing from record"


def check_multiproc_record(record: dict) -> None:
    zero_copy = record["zero_copy"]
    assert zero_copy["single_weight_segment_set"] is True, (
        "multiproc record lost the zero-copy fact (one weight segment set "
        "regardless of worker count)"
    )
    counts = set(zero_copy["weight_segments_by_worker_count"].values())
    assert counts == {1}, (
        f"weight segment counts vary with worker count: "
        f"{zero_copy['weight_segments_by_worker_count']}"
    )
    invalidation = record["invalidation"]
    assert invalidation["repacks_observed"] is True, (
        "multiproc record lost the cross-process invalidation fact"
    )
    assert invalidation["parity_after_update"] is True, (
        "multiproc record lost the post-update parity fact"
    )
    workers = record["workers"]
    assert sorted(int(k) for k in workers) == [1, 2, 4, 8], (
        f"multiproc record covers worker counts {sorted(workers)}, expected 1/2/4/8"
    )
    for count, stats in workers.items():
        assert stats["thread_rows_per_s"] > 0 and stats["process_rows_per_s"] > 0, (
            f"non-positive rows/s recorded at {count} workers"
        )
        assert stats["ring_segments"] == int(count), (
            f"{stats['ring_segments']} I/O rings for {count} workers (expected one each)"
        )
    # Wall-clock ordering facts are machine-conditional (see the record's
    # scaling note): gate them on the core count the record was made with.
    if record["cores"] >= 4:
        at4 = workers["4"]
        assert at4["process_rows_per_s"] >= 2.0 * at4["thread_rows_per_s"], (
            f"process backend {at4['process_rows_per_s']:.0f} rows/s not >= 2x "
            f"thread {at4['thread_rows_per_s']:.0f} at 4 workers on a "
            f"{record['cores']}-core recorder"
        )
        widest = str(max(int(k) for k in workers))
        assert (
            workers[widest]["process_rows_per_s"]
            > workers[widest]["thread_rows_per_s"]
        ), f"thread >= process at {widest} workers on a multi-core recorder"


def check_dist_plan_record(record: dict) -> None:
    parity = record["parity"]
    assert all(parity.values()), f"compiled/eager parity facts failed: {parity}"
    assert record["meets_threshold"] is True
    assert record["speedup_ha_batch1_inprocess"] >= record["acceptance_threshold"], (
        f"recorded compiled-HA speedup {record['speedup_ha_batch1_inprocess']:.2f} "
        f"below its own threshold {record['acceptance_threshold']}"
    )
    ex = record["exchange_bytes"]
    eager, compiled = ex["eager_per_round"], ex["compiled_per_round"]
    assert len(compiled) == len(eager) and sum(compiled) < sum(eager), (
        f"delta halos did not reduce exchange bytes: {compiled} vs {eager}"
    )
    assert all(c < e for c, e in zip(compiled[1:], eager[1:])), (
        "every post-input round must record fewer compiled bytes"
    )
    assert ex["reduction"] > 0.25, (
        f"recorded exchange-byte reduction {ex['reduction']:.0%} below 25%"
    )
    alloc = record["zero_alloc"]
    assert all(alloc.values()), f"steady-state allocation facts failed: {alloc}"
    for transport in ("inprocess", "wire_inproc", "tcp"):
        assert record["figure2"][transport]["ha"], f"{transport} HA results missing"


def check_trace_replay_record(record: dict) -> None:
    names = set(record["scenarios"])
    expected = {"diurnal", "heavy_tail", "bursts", "adversarial", "multi_tenant"}
    assert names == expected, (
        f"BENCH_trace_replay.json covers scenarios {sorted(names)}, "
        f"expected {sorted(expected)}"
    )
    determinism = record["determinism"]
    assert determinism["sim_byte_identical"] is True, (
        "trace-replay record lost the byte-identical simulation fact"
    )
    assert determinism["corpus_byte_reproducible"] is True, (
        "trace-replay record lost the byte-reproducible corpus fact"
    )
    for name, fact in record["scenarios"].items():
        assert fact["requests"] > 0, f"{name} records no requests"
        assert sum(fact["outcomes"].values()) == fact["requests"], (
            f"{name}: outcomes {fact['outcomes']} do not sum to "
            f"{fact['requests']} requests"
        )
        assert record["corpus"][name]["requests"] == fact["requests"], (
            f"{name}: pinned corpus size differs from the replayed stream"
        )
    ordering = record["miss_rate_ordering"]
    rates = [record["scenarios"][n]["miss_rate"] for n in ordering]
    assert sorted(ordering) == sorted(names) and rates == sorted(rates), (
        f"miss_rate_ordering {ordering} does not sort the recorded "
        f"miss rates {rates}"
    )
    overhead = record["overhead"]
    assert overhead["meets_threshold"] is True, (
        f"trace-replay record lost the tracing-overhead fact: {overhead}"
    )
    assert overhead["overhead_frac"] < overhead["threshold"], (
        f"recorded overhead {overhead['overhead_frac']:.3f} is not under "
        f"its own threshold {overhead['threshold']}"
    )


def check_chaos_record(record: dict) -> None:
    live = record["live"]
    assert live["lost"] == 0, (
        f"chaos record shows {live['lost']} lost requests in the supervised "
        "live incident (the zero-lost fact)"
    )
    assert live["crashes"] == 2, (
        f"the bursts_faulty incident scripts 2 crashes, record has {live['crashes']}"
    )
    assert live["respawns"] >= live["crashes"], (
        f"supervisor respawned {live['respawns']} workers for "
        f"{live['crashes']} crashes"
    )
    assert live["gave_up"] == [], (
        f"restart budget tripped for replicas {live['gave_up']}"
    )
    assert live["recovered_full_capacity"] is True, (
        "chaos record lost the full-capacity-recovery fact"
    )
    assert live["recovery_within_bound"] is True, (
        f"recorded recovery {live['recovery_s']}s exceeds the record's own "
        f"bound {live['recovery_bound_s']}s"
    )
    sim = record["sim"]
    assert sim["byte_identical"] is True, (
        "chaos record lost the byte-identical fault simulation fact"
    )
    assert sim["lost"] == 0, f"sim incident lost {sim['lost']} requests"
    for part in (live, sim):
        assert sum(part["outcomes"].values()) == part["requests"], (
            f"outcomes {part['outcomes']} do not sum to {part['requests']}"
        )
    brown = record["brownout"]
    base_miss = brown["baseline"]["critical_miss_rate"]
    shed_miss = brown["brownout"]["critical_miss_rate"]
    assert shed_miss < base_miss, (
        f"brown-out critical miss {shed_miss:.4f} not strictly below "
        f"baseline {base_miss:.4f}"
    )
    assert abs(brown["critical_miss_improvement"] - (base_miss - shed_miss)) < 1e-12, (
        "brown-out improvement is inconsistent with its own miss rates"
    )


def check_tuning_record(record: dict) -> None:
    tuning = record["tuning"]
    assert tuning["byte_identical"] is True, (
        "tuning record lost the byte-deterministic artifact fact"
    )
    gated = tuning["must_beat"]
    assert set(gated) >= {"multi_tenant", "adversarial"}, (
        f"tuning record gates only {gated}; the acceptance criterion names "
        "multi_tenant and adversarial"
    )
    for name in gated:
        row = tuning["scenarios"][name]
        assert row["tuned_miss_rate"] < row["default_miss_rate"], (
            f"tuning record shows tuned not beating default on {name}: "
            f"{row['tuned_miss_rate']} >= {row['default_miss_rate']}"
        )
        assert row["improved"] is True, f"{name}: improved flag inconsistent"
    config = tuning["config"]
    winner = tuning["winner_mapping"]
    for key, value in winner.items():
        if key in ("retry", "restart_backoff_s"):
            continue  # flattened into the policy objects / scalar defaults
        assert config.get(key) == value, (
            f"emitted config diverges from the winner on {key}: "
            f"{config.get(key)!r} != {value!r}"
        )
    derived = tuning["derived"]
    assert config["rows_ladder"] == derived["rows_ladder"], (
        "emitted config does not carry the derived rows_ladder"
    )
    assert config["conv_backend_per_rung"] == derived["conv_backend_per_rung"], (
        "emitted config does not carry the derived per-rung backends"
    )
    chaos = record["chaos"]
    assert chaos["improved"] is True, (
        f"chaos-tuned config not better than default under faults: "
        f"{chaos['tuned_miss_rate']} >= {chaos['default_miss_rate']}"
    )
    assert chaos["tuned_miss_rate"] < chaos["default_miss_rate"]
    assert chaos["supervise"] is True and chaos["retry"] is True, (
        "chaos-tuned config must record the live fault plane switched on"
    )


RECORD_CHECKS: Tuple[Tuple[str, Callable[[dict], None]], ...] = (
    ("BENCH_plan.json", check_plan_record),
    ("BENCH_scheduler.json", check_scheduler_record),
    ("BENCH_serving.json", check_serving_record),
    ("BENCH_dtype_policy.json", check_dtype_policy_record),
    ("BENCH_nn_micro.json", check_nn_micro_record),
    ("BENCH_multiproc.json", check_multiproc_record),
    ("BENCH_dist_plan.json", check_dist_plan_record),
    ("BENCH_trace_replay.json", check_trace_replay_record),
    ("BENCH_chaos.json", check_chaos_record),
    ("BENCH_tuning.json", check_tuning_record),
)


# -- driver ------------------------------------------------------------------


def run_smoke(smoke: Smoke) -> Tuple[bool, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = time.monotonic()
    proc = subprocess.run(smoke.argv, cwd=REPO_ROOT, env=env)
    return proc.returncode == 0, time.monotonic() - started


def verify_records(only: Sequence[str] = ()) -> List[Tuple[str, str]]:
    """Check every committed record; returns ``(name, error)`` failures."""
    failures: List[Tuple[str, str]] = []
    for filename, check in RECORD_CHECKS:
        if only and not any(sel in filename for sel in only):
            continue
        path = REPO_ROOT / filename
        try:
            check(json.loads(path.read_text()))
        except FileNotFoundError:
            failures.append((filename, "committed record is missing"))
        except (AssertionError, KeyError, TypeError, ValueError) as exc:
            failures.append((filename, f"{type(exc).__name__}: {exc}"))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--list", action="store_true", help="list smokes and exit")
    parser.add_argument(
        "--only", action="append", default=[],
        help="run only smokes/records whose name contains this (repeatable)",
    )
    parser.add_argument(
        "--records-only", action="store_true",
        help="skip the live smokes; only re-verify committed BENCH_*.json facts",
    )
    args = parser.parse_args(argv)

    if args.list:
        for smoke in SMOKES:
            print(f"{smoke.name:10s} {smoke.description}")
        for filename, _ in RECORD_CHECKS:
            print(f"{'record':10s} {filename}")
        return 0

    failed: List[str] = []
    # Committed records first: the nn_micro smoke regenerates its record
    # in place, so checking afterwards would miss a drifted committed file.
    record_failures = verify_records(args.only)
    for filename, error in record_failures:
        print(f"=== record: {filename} FAILED — {error}")
        failed.append(f"record:{filename}")
    checked = [
        f for f, _ in RECORD_CHECKS
        if not args.only or any(sel in f for sel in args.only)
    ]
    passed_records = [f for f in checked if all(f != name for name, _ in record_failures)]
    for filename in passed_records:
        print(f"=== record: {filename} OK")

    if not args.records_only:
        for smoke in SMOKES:
            if args.only and not any(sel in smoke.name for sel in args.only):
                continue
            print(f"=== smoke: {smoke.name} — {smoke.description}")
            ok, elapsed = run_smoke(smoke)
            print(f"=== smoke: {smoke.name} {'OK' if ok else 'FAILED'} ({elapsed:.0f}s)")
            if not ok:
                failed.append(f"smoke:{smoke.name}")

    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all smokes and committed records OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
