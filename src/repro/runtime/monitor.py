"""Failure detection.

Two flavours:

* :class:`HeartbeatMonitor` — live: pings a worker through the Master's
  transport and declares death after consecutive missed heartbeats.
* :class:`ScheduleMonitor` — analytical: replays a scripted
  :class:`~repro.faults.plan.FaultPlan` over simulated time (the
  Fig. 2 scenarios are its three fixed points).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional

from repro.faults.plan import FaultPlan
from repro.distributed.partition import MASTER, WORKER
from repro.utils.config import Config
from repro.utils.logging import get_logger

#: Config keys (see :class:`~repro.utils.config.Config`) recognised by
#: :meth:`HeartbeatMonitor.from_config`.
HEARTBEAT_THRESHOLD_KEY = "heartbeat_threshold"
HEARTBEAT_INTERVAL_KEY = "heartbeat_interval_s"

DEFAULT_HEARTBEAT_THRESHOLD = 2
DEFAULT_HEARTBEAT_INTERVAL_S = 0.05


class HeartbeatMonitor:
    """Declares a peer dead after ``threshold`` consecutive failed pings.

    ``interval_s`` is the cadence at which the owner is expected to call
    :meth:`check`; the monitor itself never sleeps, it just records the
    configured cadence so every heartbeat caller (the frontend's timer,
    live-serving heartbeats) reads one source of truth.
    """

    def __init__(
        self,
        ping: Callable[[], bool],
        threshold: int = DEFAULT_HEARTBEAT_THRESHOLD,
        interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self._ping = ping
        self.threshold = threshold
        self.interval_s = interval_s
        self.consecutive_failures = 0
        self.declared_dead = False
        self.logger = get_logger("monitor")

    @classmethod
    def from_config(
        cls,
        ping: Callable[[], bool],
        config: Optional[Config] = None,
        *,
        default_threshold: int = DEFAULT_HEARTBEAT_THRESHOLD,
        default_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> "HeartbeatMonitor":
        """Build a monitor from ``heartbeat_threshold`` / ``heartbeat_interval_s``
        config keys, falling back to the caller's defaults when absent."""
        cfg = config or Config()
        return cls(
            ping,
            threshold=int(cfg.get(HEARTBEAT_THRESHOLD_KEY, default_threshold)),
            interval_s=float(cfg.get(HEARTBEAT_INTERVAL_KEY, default_interval_s)),
        )

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

    def __init__(self, schedule: FaultPlan, devices=(MASTER, WORKER)) -> None:
        self.schedule = schedule
        self.devices = tuple(devices)

    def alive_at(self, now_s: float) -> FrozenSet[str]:
        return frozenset(
            d for d in self.devices if self.schedule.is_alive(d, now_s)
        )
