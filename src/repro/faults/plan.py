"""Deterministic fault plans: seeded, serializable failure schedules.

The device plane has always scripted failures (crash / recover
timelines over ``master`` and ``worker``); this module holds that
vocabulary generalised to the *serving* plane, so a fault schedule is a
first-class, replayable input — exactly like a traffic trace.  A :class:`FaultPlan` is an ordered
list of :class:`FaultEvent`\\ s, each naming a time, a target and one of
the :data:`FAULT_KINDS`:

``crash``
    SIGKILL the target (a process worker genuinely dies; a thread
    replica flips its liveness flag).  Paired with ``recover`` in
    device-plane schedules; serving-plane recovery is the supervisor's
    job, not the schedule's.
``stall``
    Artificial service delay: every batch the target serves during the
    window takes ``delay_s`` longer (a straggler, not a corpse).
``drop``
    Endpoint message loss: replies from the target are withheld for the
    window, surfacing as transport timeouts on the await/reply path.
``heartbeat_delay``
    The target's heartbeats go dark for the window while it keeps
    serving — the false-positive-ejection scenario.
``shm_attach_fail``
    The next ``count`` respawn attempts for the target fail at
    shared-memory attach, exercising supervisor backoff.

Plans serialize to JSON (they ride in ``repro-trace`` artifact meta, see
:mod:`repro.trace.recorder`), so an incident replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

CRASH = "crash"
RECOVER = "recover"
STALL = "stall"
DROP = "drop"
HEARTBEAT_DELAY = "heartbeat_delay"
SHM_ATTACH_FAIL = "shm_attach_fail"

#: Every fault kind a plan may script.  ``crash``/``recover`` are the
#: original device-plane pair; the rest are serving-plane faults.
FAULT_KINDS = (CRASH, RECOVER, STALL, DROP, HEARTBEAT_DELAY, SHM_ATTACH_FAIL)


def replica_target(index: int) -> str:
    """Canonical target string for serving replica ``index``."""
    return f"replica:{int(index)}"


def target_index(target: str) -> int:
    """Parse a ``replica:N`` target back to its index."""
    prefix, _, tail = target.partition(":")
    if prefix != "replica" or not tail.lstrip("-").isdigit():
        raise ValueError(f"not a replica target: {target!r}")
    return int(tail)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: at ``time_s``, do ``kind`` to ``target``.

    ``duration_s`` bounds window faults (stall / drop / heartbeat_delay);
    ``delay_s`` is the per-batch service delay a stall adds; ``count`` is
    how many attempts an ``shm_attach_fail`` poisons.  Irrelevant knobs
    stay at their defaults and are omitted from the JSON form.
    """

    time_s: float
    target: str
    kind: str = CRASH
    duration_s: float = 0.0
    delay_s: float = 0.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time_s}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (not in {FAULT_KINDS})")
        if self.duration_s < 0 or self.delay_s < 0:
            raise ValueError("fault durations must be non-negative")
        if self.count < 1:
            raise ValueError("count must be at least 1")

    @property
    def device(self) -> str:
        """Device-plane name for :attr:`target` (``master`` / ``worker``)."""
        return self.target

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "time_s": self.time_s, "target": self.target, "kind": self.kind,
        }
        if self.duration_s:
            data["duration_s"] = self.duration_s
        if self.delay_s:
            data["delay_s"] = self.delay_s
        if self.count != 1:
            data["count"] = self.count
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(
            time_s=float(data["time_s"]),
            target=str(data["target"]),
            kind=str(data.get("kind", CRASH)),
            duration_s=float(data.get("duration_s", 0.0)),
            delay_s=float(data.get("delay_s", 0.0)),
            count=int(data.get("count", 1)),
        )


def _order(event: FaultEvent) -> Tuple[float, str, str]:
    return (event.time_s, event.target, event.kind)


@dataclass
class FaultPlan:
    """A time-ordered schedule of fault events.

    The liveness contract the device plane (``ScheduleMonitor``,
    ``SystemController.simulate``) relies on: ``is_alive`` applies an
    event *at* the query time — a crash at t=5.0 means dead when asked
    about t=5.0.
    """

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=_order)

    def add(self, event: FaultEvent) -> None:
        self.events.append(event)
        self.events.sort(key=_order)

    def is_alive(self, target: str, now_s: float) -> bool:
        """Crash/recover liveness of ``target`` at ``now_s``."""
        alive = True
        for event in self.events:
            if event.target != target or event.kind not in (CRASH, RECOVER):
                continue
            if event.time_s > now_s:
                break
            alive = event.kind == RECOVER
        return alive

    def to_json(self) -> Dict[str, object]:
        return {"events": [e.to_json() for e in self.events]}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultPlan":
        events = [FaultEvent.from_json(e) for e in data.get("events", [])]
        return cls(events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)


def single_fault(target: str, at_s: float = 0.0) -> FaultPlan:
    """A one-event plan: ``target`` crashes at ``at_s`` and nothing else happens."""
    return FaultPlan([FaultEvent(at_s, target, CRASH)])
