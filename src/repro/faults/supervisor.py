"""Self-healing: supervised respawn of ejected replicas.

The pool's heartbeat machinery *ejects* a dead replica — capacity is
lost until something puts a replacement back.  :class:`ReplicaSupervisor`
is that something: a background loop at heartbeat cadence that watches
the pool's health view and, per ejected slot,

1. respawns a replacement via :meth:`ReplicaPool.spawn_replica`
   (a fresh forked worker for the process backend; an in-place revive
   for threads), retrying with exponential backoff + deterministic
   jitter when the spawn itself fails;
2. enforces a **restart budget** (circuit breaker): a replica that dies
   more than :data:`RESTART_BUDGET` times within :data:`BUDGET_WINDOW_S`
   stays down, is counted in ``supervisor.gave_up`` and reported via
   :meth:`status` — flapping hardware must not eat the control plane;
3. gets the replacement back **warm**: ``spawn_replica`` returns a
   process worker — forked over the pool's already compiled plans — only
   after it probed every candidate width and answered its readiness ping
   (a revived thread replica never went cold), so the first real request
   never pays a cold start — and the primes that worker reports are
   observed by nobody, so a respawn never moves the width policy's
   calibrated EWMAs;
4. adopts it (:meth:`ReplicaPool.adopt` swaps the slot and rebinds the
   monitor) and invalidates the frontend's stale per-(replica, width)
   queues, then emits a ``replica.respawn`` trace event.

Shutdown is a graceful drain: :meth:`close` lets an in-flight respawn
finish, then stops the loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.trace.tracer import EVENT_RESPAWN, NULL_TRACER
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, make_rng

#: A failed respawn is retried after ``BACKOFF_BASE_S * BACKOFF_FACTOR**k``
#: seconds (k = failed attempts so far), capped at ``BACKOFF_MAX_S``...
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 1.0
#: ...and spread by ±``JITTER`` of itself, from a fixed-seed generator so
#: chaos runs stay reproducible.
JITTER = 0.1
#: A slot that dies more than this many times within the window stays down.
RESTART_BUDGET = 3
BUDGET_WINDOW_S = 30.0


@dataclass
class _SlotState:
    """Supervision state of one replica slot."""

    down: bool = False
    attempts: int = 0          # failed respawn attempts for the current death
    next_attempt_at: float = 0.0
    respawns: int = 0
    gave_up: bool = False
    deaths: Deque[float] = field(default_factory=deque)


class ReplicaSupervisor:
    """Watches a frontend's pool and puts ejected replicas back."""

    def __init__(
        self,
        frontend,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.frontend = frontend
        self.pool = frontend.pool
        self.metrics = frontend.metrics
        self.tracer = getattr(frontend, "tracer", NULL_TRACER)
        self.logger = get_logger("faults.supervisor")
        self._clock = clock
        # Deterministic jitter: every supervisor retries on the same schedule.
        self._rng = make_rng(derive_seed(0, "supervisor", "jitter"))
        self._slots: Dict[int, _SlotState] = {
            i: _SlotState() for i in range(len(self.pool.replicas))
        }
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ReplicaSupervisor":
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._thread = threading.Thread(
            target=self._run, name="replica-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain: an in-flight respawn completes, then the loop stops."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if not self._thread.is_alive():
                # Only the loop reads it: drop the back-reference so a
                # closed frontend is plain garbage, not a reference cycle.
                self.frontend = None
            self._thread = None

    def __enter__(self) -> "ReplicaSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervision loop ------------------------------------------------------

    def _run(self) -> None:
        interval = max(self.pool.heartbeat_interval_s, 1e-3)
        while not self._stop.wait(interval):
            self.poll()

    def poll(self) -> None:
        """One supervision pass (the loop body; tests may call directly)."""
        now = self._clock()
        for index, monitor in enumerate(self.pool.monitors):
            state = self._slots[index]
            if not monitor.declared_dead:
                state.down = False
                continue
            if state.gave_up:
                continue
            if not state.down:
                # Freshly observed death: open a respawn episode and
                # charge the restart budget's sliding window.
                state.down = True
                state.attempts = 0
                state.next_attempt_at = now
                state.deaths.append(now)
                while state.deaths and now - state.deaths[0] > BUDGET_WINDOW_S:
                    state.deaths.popleft()
                if len(state.deaths) > RESTART_BUDGET:
                    state.gave_up = True
                    self.metrics.counter("supervisor.gave_up").inc()
                    self.tracer.emit(
                        None, EVENT_RESPAWN,
                        replica=index, gave_up=True, deaths=len(state.deaths),
                    )
                    self.logger.error(
                        "replica %d died %d times within %.1fs; restart budget "
                        "exhausted, leaving it down",
                        index, len(state.deaths), BUDGET_WINDOW_S,
                    )
                    continue
            if now < state.next_attempt_at:
                continue
            try:
                self._respawn(index)
            except Exception as exc:  # noqa: BLE001 - retried with backoff
                state.attempts += 1
                backoff = min(
                    BACKOFF_BASE_S * BACKOFF_FACTOR ** (state.attempts - 1), BACKOFF_MAX_S
                )
                backoff *= 1.0 + JITTER * (2.0 * float(self._rng.random()) - 1.0)
                state.next_attempt_at = self._clock() + backoff
                self.metrics.counter("supervisor.respawn_failures").inc()
                self.logger.warning(
                    "respawn of replica %d failed (attempt %d): %s; next try in %.3fs",
                    index, state.attempts, exc, backoff,
                )
            else:
                state.down = False
                state.attempts = 0
                state.respawns += 1
                self.metrics.counter("supervisor.respawns").inc()

    def _respawn(self, index: int) -> None:
        fresh = self.pool.spawn_replica(index)  # returns booted and warm
        replaced = self.pool.adopt(index, fresh)
        self.frontend.invalidate_replica_queues(index)
        if replaced is not fresh:
            replaced.close()
        self.tracer.emit(
            None, EVENT_RESPAWN,
            replica=index, attempts=self._slots[index].attempts + 1,
        )
        self.logger.warning("replica %d respawned and rejoined routing", index)

    # -- reporting -------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        return {
            "respawns": self.metrics.counter("supervisor.respawns").value,
            "respawn_failures": self.metrics.counter(
                "supervisor.respawn_failures"
            ).value,
            "gave_up": sorted(
                i for i, s in self._slots.items() if s.gave_up
            ),
            "down": sorted(i for i, s in self._slots.items() if s.down),
        }
