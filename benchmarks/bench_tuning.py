"""Offline autotuning: the PR-10 acceptance benchmark.

Three parts, all in the deterministic virtual-time simulator:

1. **Tuned beats default across traffic shapes** — ``tune()`` on the
   ``multi_tenant`` scenario (seed 0, the full default search space),
   then the emitted config is scored against the default
   :class:`~repro.scheduler.frontend.SchedulerConfig` on *every* zoo
   scenario.  The acceptance gate: strictly lower miss rate on
   ``multi_tenant`` AND ``adversarial`` — a tuned config that only wins
   on the trace it saw has merely memorized it.

2. **Byte-determinism** — two independent ``tune()`` runs with the same
   ``(trace, space, seed)`` must serialize to byte-identical
   ``repro-tuned-config`` artifacts (the whole search is virtual-time
   and every tie-break is by candidate index).

3. **Tuning under chaos** — ``tune(use_faults=True)`` on the
   ``bursts_faulty`` incident: every candidate is scored *with the
   fault plan injected*, and the emitted config must beat the default
   under the same chaos while switching the live fault plane
   (supervision + bounded retries) on.

Everything here is virtual time, so ``BENCH_tuning.json`` is a pure
function of the code: tier-1 (``tests/test_benchmarks.py``) regenerates it
through :func:`record_payload` and asserts equality with the committed
file, plus the three facts above on the regenerated values.  Run directly
to rewrite the record after a deliberate change to the tuner or the
simulator::

    PYTHONPATH=src python benchmarks/bench_tuning.py

or with ``--smoke`` to compute and print without writing::

    PYTHONPATH=src python benchmarks/bench_tuning.py --smoke
"""

from __future__ import annotations

import json

from common import ROOT, fluid_model
from repro.faults.scenarios import faulty_replayer
from repro.scheduler.frontend import SchedulerConfig
from repro.trace.replay import TraceReplayer
from repro.trace.scenarios import SCENARIOS
from repro.tuning.artifact import dumps
from repro.tuning.tuner import tune

RECORD_PATH = ROOT / "BENCH_tuning.json"

TUNE_SCENARIO = "multi_tenant"
CHAOS_SCENARIO = "bursts_faulty"
SEED = 0
#: Scenarios the tuned config must strictly beat the default on (the
#: target trace plus the adversarial shape it never saw).
MUST_BEAT = ("multi_tenant", "adversarial")


def tuning_facts(model=None) -> dict:
    """Tune on one scenario, score the winner across the whole zoo."""
    model = model or fluid_model()
    results = [
        tune(
            TraceReplayer.from_scenario(TUNE_SCENARIO), model,
            seed=SEED, workers=1,
        )
        for _ in range(2)
    ]
    artifacts = [dumps(r) for r in results]
    result = results[0]
    scenarios = {}
    default = SchedulerConfig()
    for name in sorted(SCENARIOS):
        replayer = TraceReplayer.from_scenario(name)
        base = replayer.simulate(model, default)
        tuned = TraceReplayer.from_scenario(name).simulate(model, result.config)
        scenarios[name] = {
            "default_miss_rate": base["miss_rate"],
            "tuned_miss_rate": tuned["miss_rate"],
            "default_goodput_rps": base["goodput_rps"],
            "tuned_goodput_rps": tuned["goodput_rps"],
            "improved": tuned["miss_rate"] < base["miss_rate"],
        }
    return {
        "scenario": TUNE_SCENARIO,
        "seed": SEED,
        "must_beat": list(MUST_BEAT),
        "evaluations": result.evaluations,
        "stages": result.stages,
        "winner_mapping": dict(sorted(result.winner.mapping.items())),
        "config": result.config.to_mapping(),
        "byte_identical": artifacts[0] == artifacts[1],
        "scenarios": scenarios,
    }


def chaos_tuning_facts(model=None) -> dict:
    """Best config *under* the bursts_faulty incident (faults injected)."""
    model = model or fluid_model()
    result = tune(
        faulty_replayer(CHAOS_SCENARIO), model,
        seed=SEED, workers=1, use_faults=True,
    )
    return {
        "scenario": CHAOS_SCENARIO,
        "seed": SEED,
        "default_miss_rate": result.baseline.miss_rate,
        "tuned_miss_rate": result.tuned.miss_rate,
        "default_goodput_rps": result.baseline.goodput_rps,
        "tuned_goodput_rps": result.tuned.goodput_rps,
        "improved": result.improved,
        "supervise": result.config.supervise,
        "retry": result.config.retry_policy is not None,
    }


# -- driver -------------------------------------------------------------------


def record_payload(model=None) -> dict:
    """``BENCH_tuning.json`` as data, in JSON's terms (tuples become lists)."""
    model = model or fluid_model()
    payload = {
        "benchmark": "benchmarks/bench_tuning.py",
        "description": (
            "Trace-driven offline autotuning: successive halving over "
            "SchedulerConfig space in the virtual-time simulator.  The "
            "config tuned on multi_tenant strictly beats the default on "
            "every zoo scenario (gated on multi_tenant + adversarial); "
            "the run is byte-deterministic per (trace, space, seed); and "
            "tuning with the bursts_faulty fault plan injected beats the "
            "default under the same chaos with supervision + retries on"
        ),
        "tuning": tuning_facts(model),
        "chaos": chaos_tuning_facts(model),
    }
    return json.loads(json.dumps(payload))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="compute and print the tuning facts; write nothing",
    )
    args = parser.parse_args(argv)
    payload = record_payload()
    facts, chaos = payload["tuning"], payload["chaos"]
    if not args.smoke:
        RECORD_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD_PATH}")
    row = facts["scenarios"]
    for name in sorted(row):
        gate = " (gated)" if name in MUST_BEAT else ""
        print(
            f"  {name:14s} miss {row[name]['default_miss_rate']:.4f} -> "
            f"{row[name]['tuned_miss_rate']:.4f}  goodput "
            f"{row[name]['default_goodput_rps']:7.1f} -> "
            f"{row[name]['tuned_goodput_rps']:7.1f} req/s{gate}"
        )
    print(
        f"  chaos ({chaos['scenario']}): miss "
        f"{chaos['default_miss_rate']:.4f} -> {chaos['tuned_miss_rate']:.4f} "
        f"(supervise={chaos['supervise']}, retry={chaos['retry']})"
    )
    print(
        f"  determinism: byte_identical={facts['byte_identical']} over "
        f"{facts['evaluations']} simulations x 2 runs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
