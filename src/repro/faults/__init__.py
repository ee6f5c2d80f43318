"""Deterministic fault injection, supervised respawn, degradation policies.

The repo's fault story (device-plane crash/recover timelines use the same
:class:`~repro.faults.plan.FaultPlan` type):

* :mod:`~repro.faults.plan` — seeded, serialisable fault schedules;
* :mod:`~repro.faults.injector` — applies a plan to a live frontend at
  existing seams (no production test-only branches);
* :mod:`~repro.faults.supervisor` — respawns ejected replicas with
  backoff, jitter, and a restart budget;
* :mod:`~repro.faults.policy` — deadline-aware retries and brown-out;
* :mod:`~repro.faults.scenarios` — faulty variants of the scenario zoo.

Only :mod:`~repro.faults.plan` loads eagerly: the plan types have no
dependencies, which is what lets the device plane (and anything below
the scheduler) import them without a cycle.  Everything else resolves
lazily on first attribute access (PEP 562).
"""

from importlib import import_module

from repro.faults.plan import (
    CRASH,
    DROP,
    FAULT_KINDS,
    HEARTBEAT_DELAY,
    RECOVER,
    SHM_ATTACH_FAIL,
    STALL,
    FaultEvent,
    FaultPlan,
    replica_target,
    single_fault,
    target_index,
)

#: Lazily resolved exports: name → defining submodule.
_LAZY = {
    "FaultInjector": "repro.faults.injector",
    "ReplicaSupervisor": "repro.faults.supervisor",
    "RetryPolicy": "repro.faults.policy",
    "RetryExhausted": "repro.faults.policy",
    "BrownoutPolicy": "repro.faults.policy",
    "BrownoutController": "repro.faults.policy",
    "BrownoutShed": "repro.faults.policy",
    "FAULTY_SCENARIOS": "repro.faults.scenarios",
    "FaultyScenario": "repro.faults.scenarios",
    "faulty_replayer": "repro.faults.scenarios",
    "get_faulty": "repro.faults.scenarios",
}

__all__ = [
    "CRASH",
    "DROP",
    "FAULT_KINDS",
    "HEARTBEAT_DELAY",
    "RECOVER",
    "SHM_ATTACH_FAIL",
    "STALL",
    "FaultEvent",
    "FaultPlan",
    "replica_target",
    "single_fault",
    "target_index",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
