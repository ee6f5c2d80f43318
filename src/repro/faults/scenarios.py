"""Faulty variants of the scenario zoo: traffic + a scripted incident.

A :class:`FaultyScenario` pairs a :class:`~repro.trace.scenarios.TraceSpec`
(reusing the zoo's generators, under a *new* name and seed so payload
streams stay distinct) with the :class:`~repro.faults.plan.FaultPlan`
that replays against it.  The variants register into
``trace.scenarios.EXTRA_SCENARIOS`` — deliberately *not* the pinned
``SCENARIOS`` — so the committed reference corpus and its CI
byte-comparison never see them.

The reference incidents:

* ``bursts_faulty`` — the acceptance incident: during a burst storm on
  four replicas, replica 1 and replica 2 are SIGKILLed mid-run and
  replica 3 stalls for a window.  A supervised frontend must lose zero
  requests and return to full capacity.
* ``multi_tenant_faulty`` — a grey-failure mix on the three-tenant
  blend: one replica's heartbeats go dark (false-positive ejection
  path) while another drops replies for a window (patience-loop path),
  under enough load that brown-out policies have sheddable traffic.
* ``steady_burst_kill`` — the scheduler-vs-fixed-widest incident: the
  ``steady_burst`` overload on two replicas, with replica 0 killed
  mid-burst.  Hedged, failure-aware routing must lose zero requests
  while the surviving replica rides out the overload alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.faults.plan import (
    CRASH,
    DROP,
    HEARTBEAT_DELAY,
    STALL,
    FaultEvent,
    FaultPlan,
    replica_target,
)
from repro.trace.replay import TraceReplayer
from repro.trace.scenarios import TraceSpec, register_scenario

#: Replica count the reference fault plans are scripted against.
FAULTY_REPLICAS = 4


@dataclass(frozen=True)
class FaultyScenario:
    """A traffic spec plus the incident scripted over it."""

    trace: TraceSpec
    faults: FaultPlan
    replicas: int = FAULTY_REPLICAS

    @property
    def name(self) -> str:
        return self.trace.name

    def meta(self) -> Dict[str, object]:
        meta = self.trace.meta()
        meta["faults"] = self.faults.to_json()
        meta["replicas"] = self.replicas
        return meta


def _bursts_faulty() -> FaultyScenario:
    trace = TraceSpec("bursts_faulty", "bursts", seed=21)
    # Kill two of four replicas mid-burst and stall a third: the
    # acceptance incident for the zero-lost + recovery-time fact.
    faults = FaultPlan([
        FaultEvent(0.35, replica_target(1), CRASH),
        FaultEvent(0.55, replica_target(2), CRASH),
        FaultEvent(0.45, replica_target(3), STALL,
                   duration_s=0.25, delay_s=0.02),
    ])
    return FaultyScenario(trace, faults)


def _multi_tenant_faulty() -> FaultyScenario:
    trace = TraceSpec("multi_tenant_faulty", "multi_tenant", seed=22)
    faults = FaultPlan([
        FaultEvent(0.30, replica_target(1), HEARTBEAT_DELAY, duration_s=0.2),
        FaultEvent(0.60, replica_target(2), DROP, duration_s=0.1),
        FaultEvent(0.85, replica_target(3), CRASH),
    ])
    return FaultyScenario(trace, faults)


def _steady_burst_kill() -> FaultyScenario:
    trace = TraceSpec("steady_burst_kill", "steady_burst", seed=23, duration_s=0.75)
    faults = FaultPlan([FaultEvent(0.35, replica_target(0), CRASH)])
    return FaultyScenario(trace, faults, replicas=2)


FAULTY_SCENARIOS: Dict[str, FaultyScenario] = {
    scenario.name: scenario
    for scenario in (_bursts_faulty(), _multi_tenant_faulty(), _steady_burst_kill())
}

for _scenario in FAULTY_SCENARIOS.values():
    register_scenario(_scenario.trace)
del _scenario


def get_faulty(name: str) -> FaultyScenario:
    try:
        return FAULTY_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown faulty scenario {name!r} "
            f"(known: {sorted(FAULTY_SCENARIOS)})"
        ) from None


def faulty_replayer(name: str):
    """A :class:`~repro.trace.replay.TraceReplayer` with the incident attached."""
    scenario = get_faulty(name)
    return TraceReplayer(
        scenario.trace.generate(),
        name=scenario.name,
        duration_s=scenario.trace.duration_s,
        meta=scenario.meta(),
        faults=scenario.faults,
    )
