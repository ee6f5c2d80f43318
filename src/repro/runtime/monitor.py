"""Failure detection.

Two flavours:

* :class:`HeartbeatMonitor` — live: pings a worker through the Master's
  transport and declares death after consecutive missed heartbeats.
* :class:`ScheduleMonitor` — analytical: replays a scripted
  :class:`~repro.faults.plan.FaultPlan` over simulated time (the
  Fig. 2 scenarios are its three fixed points).
"""

from __future__ import annotations

from typing import Callable, FrozenSet

from repro.faults.plan import FaultPlan
from repro.distributed.partition import MASTER, WORKER
from repro.utils.logging import get_logger


class HeartbeatMonitor:
    """Declares a peer dead after ``threshold`` consecutive failed pings.

    The monitor never sleeps: its owner calls :meth:`check` at its own
    cadence (the replica pool's heartbeat rounds, live serving's
    per-batch heartbeat).
    """

    def __init__(self, ping: Callable[[], bool], threshold: int = 2) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self._ping = ping
        self.threshold = threshold
        self.consecutive_failures = 0
        self.declared_dead = False
        self.logger = get_logger("monitor")

    def check(self) -> bool:
        """Run one heartbeat; returns current liveness verdict."""
        if self.declared_dead:
            return False
        if self._ping():
            self.consecutive_failures = 0
            return True
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            self.declared_dead = True
            self.logger.warning(
                "peer declared dead after %d missed heartbeats", self.consecutive_failures
            )
        return not self.declared_dead

    def reset(self) -> None:
        self.consecutive_failures = 0
        self.declared_dead = False

    @property
    def ping_fn(self) -> Callable[[], bool]:
        """The liveness callable this monitor drives (settable: fault
        injection wraps it to make heartbeats go dark for a window)."""
        return self._ping

    @ping_fn.setter
    def ping_fn(self, ping: Callable[[], bool]) -> None:
        self._ping = ping

    def rebind(self, ping: Callable[[], bool]) -> None:
        """Point the monitor at a new peer and clear its death verdict.

        The supervisor's adoption step: the monitor object (and its slot
        in the pool's parallel lists) survives a respawn — only the peer
        behind it changes.
        """
        self._ping = ping
        self.reset()


class ScheduleMonitor:
    """Liveness view over a scripted failure schedule at simulated time."""

    def __init__(self, schedule: FaultPlan) -> None:
        self.schedule = schedule

    def alive_at(self, now_s: float) -> FrozenSet[str]:
        return frozenset(
            d for d in (MASTER, WORKER) if self.schedule.is_alive(d, now_s)
        )
