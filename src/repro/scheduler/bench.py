"""Synthetic open-loop serving trace for the SLA scheduler.

Drives the *same* deterministic arrival process (seeded through
:func:`repro.utils.rng.derive_seed`, so bench JSONs are reproducible
run-to-run) through two frontends over one shared weight store:

* **scheduler** — admission + deadline-driven width selection + hedged,
  failure-aware routing;
* **fixed_widest** — the same pool and micro-batching, but every request
  pinned to the widest sub-network with admission and hedging disabled
  (what a width-oblivious server would do).

The trace has three phases (steady → overload burst → steady) and
optionally kills one replica mid-burst.  Reported per run: goodput
(requests completed within deadline per second), deadline-miss rate,
lost-request count and p50/p95/p99 latency.

Used by ``python -m repro serve --sla <ms> --replicas <k>`` and by
``benchmarks/bench_scheduler.py`` (which records ``BENCH_scheduler.json``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.faults.plan import CRASH, FaultEvent, FaultPlan, replica_target
from repro.scheduler.admission import SLA
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.trace.recorder import RequestSpec
from repro.trace.replay import TraceReplayer
from repro.utils.rng import derive_seed, make_rng


@dataclass(frozen=True)
class TraceConfig:
    """A three-phase open-loop arrival process with an optional mid-run kill."""

    seed: int = 0
    base_rate_rps: float = 400.0    # steady phases (below widest capacity)
    burst_rate_rps: float = 3500.0  # overload (above widest, below narrowest)
    pre_s: float = 0.5
    burst_s: float = 0.4
    post_s: float = 0.5
    deadline_s: float = 0.04
    kill_at_s: Optional[float] = None  # kill a replica this far into the run
    kill_replica: int = 0

    def __post_init__(self) -> None:
        if min(self.base_rate_rps, self.burst_rate_rps) <= 0:
            raise ValueError("arrival rates must be positive")
        if min(self.pre_s, self.burst_s, self.post_s) < 0:
            raise ValueError("phase durations must be non-negative")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    @property
    def duration_s(self) -> float:
        return self.pre_s + self.burst_s + self.post_s

    def arrivals(self) -> List[float]:
        """Deterministic Poisson arrival times (seconds from trace start)."""
        rng = make_rng(derive_seed(self.seed, "arrivals"))
        times: List[float] = []
        t = 0.0
        for rate, end in (
            (self.base_rate_rps, self.pre_s),
            (self.burst_rate_rps, self.pre_s + self.burst_s),
            (self.base_rate_rps, self.duration_s),
        ):
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= end:
                    t = end  # phase boundary: restart the clock at the new rate
                    break
                times.append(t)
        return times


#: Acceptance trace: a real overload burst plus a mid-burst replica kill.
ACCEPTANCE_TRACE = TraceConfig(seed=0, kill_at_s=0.7)
#: CI smoke trace: same shape, small enough for shared runners.
SMOKE_TRACE = TraceConfig(
    seed=0,
    base_rate_rps=300.0,
    burst_rate_rps=2500.0,
    pre_s=0.25,
    burst_s=0.25,
    post_s=0.25,
    kill_at_s=0.35,
)


def run_scheduler_comparison(
    model,
    trace: TraceConfig = SMOKE_TRACE,
    *,
    replicas: int = 2,
    scheduler_config: Optional[SchedulerConfig] = None,
    tracer=None,
    recorder=None,
) -> Dict:
    """Drive the trace through the scheduler and the fixed-widest baseline.

    ``replicas`` sizes both pools; an explicit ``scheduler_config`` is the
    single source of truth (its ``replicas`` wins), so the two runs can
    never compare unequal pools.  ``tracer``/``recorder`` (from
    :mod:`repro.trace`) attach to the *scheduler* run only — the baseline
    stays untraced so the comparison shows tracing's cost where it runs.
    """
    arrivals = trace.arrivals()
    sched_config = scheduler_config or SchedulerConfig(
        replicas=replicas, default_sla=SLA(deadline_s=trace.deadline_s)
    )
    replicas = sched_config.replicas
    net = getattr(model, "net", model)
    # _default_candidates returns the lower family narrowest-first.
    widest = ServingFrontend._default_candidates(model, net)[-1].name
    faults = None
    if trace.kill_at_s is not None:
        target = replica_target(trace.kill_replica % replicas)
        faults = FaultPlan([FaultEvent(trace.kill_at_s, target, CRASH)])
    baseline_config = SchedulerConfig(
        replicas=replicas,
        enable_admission=False,
        enable_hedging=False,
        max_batch=sched_config.max_batch,
        max_delay_s=sched_config.max_delay_s,
        replica_backend=sched_config.replica_backend,
    )
    runs: Dict[str, Dict] = {}
    for label, pinned, config, tracing in (
        ("fixed_widest", widest, baseline_config, {}),
        ("scheduler", None, sched_config, {"tracer": tracer, "recorder": recorder}),
    ):
        specs = [
            RequestSpec(
                request_id=i,
                arrival_s=t,
                deadline_s=trace.deadline_s,
                min_width=pinned,
                max_width=pinned,
                payload_seed=derive_seed(trace.seed, "payloads", i),
            )
            for i, t in enumerate(arrivals)
        ]
        replayer = TraceReplayer(
            specs, name=label, duration_s=trace.duration_s, faults=faults
        )
        runs[label] = replayer.replay(model, config, **tracing)
        del runs[label]["records"]  # per-request rows: too bulky for a bench record

    sched, base = runs["scheduler"], runs["fixed_widest"]
    return {
        "trace": asdict(trace),
        "replicas": replicas,
        "arrivals": len(arrivals),
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
