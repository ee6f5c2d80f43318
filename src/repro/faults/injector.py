"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live frontend.

Every fault lands at a seam the serving plane already exposes — no
production code grows a test-only branch:

* **crash** → :meth:`Replica.kill` (SIGKILL for a process worker).
* **stall** → wraps the replica's ``run_parts`` instance attribute to
  sleep ``delay_s`` before delegating; the replica becomes a straggler
  the hedge watchdog already knows how to ride out.
* **drop** → installs a :attr:`TransportEndpoint.intercept` that raises
  :class:`~repro.comm.transport.TransportError` on the await/reply path
  for the window (replies look lost; the worker stays alive, so
  :meth:`TransportEndpoint.await_reply` keeps waiting, the transport
  stays in sync, and the reply is drained once the window ends).
  Thread replicas have no transport, so drop degrades to a transient
  ``ReplicaUnavailable`` wrapper — a reroute without an ejection.
* **heartbeat_delay** → rebinds the replica's monitor ping to a
  constant-False for the window: heartbeats go dark while the replica
  keeps serving, forcing the false-positive-ejection path.
* **shm_attach_fail** → wraps :meth:`ReplicaPool.spawn_replica` to fail
  the next ``count`` respawn attempts for the target, exercising the
  supervisor's backoff and restart budget.

Events fire from daemon timers at their scripted offsets after
:meth:`FaultInjector.start`; tests may instead call :meth:`fire`
directly for fully synchronous, deterministic injection.  :meth:`stop`
cancels pending timers and unwinds every still-active wrapper.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List

from repro.comm.transport import TransportError
from repro.faults.plan import (
    CRASH,
    DROP,
    HEARTBEAT_DELAY,
    RECOVER,
    SHM_ATTACH_FAIL,
    STALL,
    FaultEvent,
    FaultPlan,
    target_index,
)
from repro.scheduler.pool import ReplicaUnavailable
from repro.trace.tracer import EVENT_FAULT, NULL_TRACER

#: How long a drop intercept naps before raising, so the endpoint's wait
#: polls the window at a bounded rate instead of spinning.
_DROP_POLL_S = 0.005


class FaultInjector:
    """Arms a plan's events against one frontend's pool."""

    def __init__(
        self,
        frontend,
        plan: FaultPlan,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.frontend = frontend
        self.pool = frontend.pool
        self.plan = plan
        self.metrics = frontend.metrics
        self.tracer = getattr(frontend, "tracer", NULL_TRACER)
        self._clock = clock
        self._timers: List[threading.Timer] = []
        self._restores: List[Callable[[], None]] = []
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Arm one daemon timer per event at its scripted offset."""
        with self._lock:
            if self._started:
                raise RuntimeError("injector already started")
            self._started = True
            for event in self.plan.events:
                timer = threading.Timer(event.time_s, self.fire, args=(event,))
                timer.daemon = True
                self._timers.append(timer)
                timer.start()

    def stop(self) -> None:
        """Cancel pending events and unwind every active wrapper."""
        with self._lock:
            timers, self._timers = self._timers, []
            restores, self._restores = self._restores, []
        for timer in timers:
            timer.cancel()
        for restore in restores:
            restore()

    def __enter__(self) -> "FaultInjector":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- firing ----------------------------------------------------------------

    def fire(self, event: FaultEvent) -> None:
        """Apply one event now (timers land here; tests may call directly)."""
        handler = {
            CRASH: self._fire_crash,
            RECOVER: self._fire_recover,
            STALL: self._fire_stall,
            DROP: self._fire_drop,
            HEARTBEAT_DELAY: self._fire_heartbeat_delay,
            SHM_ATTACH_FAIL: self._fire_shm_attach_fail,
        }[event.kind]
        handler(event)
        self.metrics.counter("faults.injected").inc()
        self.metrics.counter(f"faults.{event.kind}").inc()
        self.tracer.emit(
            None, EVENT_FAULT,
            fault=event.kind, target=event.target, planned_t_s=event.time_s,
        )

    def _expire(self, duration_s: float, restore: Callable[[], None]) -> None:
        """Run ``restore`` when the window closes (and again-safe at stop)."""
        done = threading.Event()

        def once() -> None:
            if not done.is_set():
                done.set()
                restore()

        with self._lock:
            self._restores.append(once)
        if duration_s > 0:
            timer = threading.Timer(duration_s, once)
            timer.daemon = True
            with self._lock:
                self._timers.append(timer)
            timer.start()

    # -- handlers --------------------------------------------------------------

    def _fire_crash(self, event: FaultEvent) -> None:
        self.pool.replicas[target_index(event.target)].kill()

    def _fire_recover(self, event: FaultEvent) -> None:
        # Serving-plane recovery is the supervisor's job; a scripted
        # recover only makes sense for thread replicas (device-plane
        # compatibility) and is applied as revive + monitor reset.
        index = target_index(event.target)
        replica = self.pool.replicas[index]
        replica.revive()
        self.pool.monitors[index].rebind(replica.ping)

    def _fire_stall(self, event: FaultEvent) -> None:
        replica = self.pool.replicas[target_index(event.target)]
        original = replica.run_parts
        delay = event.delay_s

        def stalled(parts, width):
            time.sleep(delay)
            return original(parts, width)

        replica.run_parts = stalled

        def restore() -> None:
            if replica.run_parts is stalled:
                replica.run_parts = original

        self._expire(event.duration_s, restore)

    def _fire_drop(self, event: FaultEvent) -> None:
        index = target_index(event.target)
        replica = self.pool.replicas[index]
        until = self._clock() + event.duration_s
        endpoint = getattr(replica, "_endpoint", None)
        if endpoint is not None:

            def intercept() -> None:
                remaining = until - self._clock()
                if remaining > 0:
                    time.sleep(min(remaining, _DROP_POLL_S))
                    raise TransportError(f"fault: reply from {event.target} dropped")

            endpoint.intercept = intercept

            def restore() -> None:
                if endpoint.intercept is intercept:
                    endpoint.intercept = None

        else:
            original = replica.run_parts

            def dropped(parts, width):
                if self._clock() < until:
                    raise ReplicaUnavailable(
                        f"fault: message to {event.target} dropped"
                    )
                return original(parts, width)

            replica.run_parts = dropped

            def restore() -> None:
                if replica.run_parts is dropped:
                    replica.run_parts = original

        self._expire(event.duration_s, restore)

    def _fire_heartbeat_delay(self, event: FaultEvent) -> None:
        monitor = self.pool.monitors[target_index(event.target)]
        original = monitor.ping_fn

        def dark() -> bool:
            return False

        monitor.ping_fn = dark

        def restore() -> None:
            # The supervisor may have rebound the monitor to a respawned
            # replica inside the window — never clobber that.
            if monitor.ping_fn is dark:
                monitor.ping_fn = original

        self._expire(event.duration_s, restore)

    def _fire_shm_attach_fail(self, event: FaultEvent) -> None:
        pool = self.pool
        index = target_index(event.target)
        original = pool.spawn_replica
        budget = [event.count]

        def failing(i: int):
            if i == index and budget[0] > 0:
                budget[0] -= 1
                raise RuntimeError(
                    f"fault: shm attach failed for {event.target}"
                )
            return original(i)

        pool.spawn_replica = failing

        def restore() -> None:
            if pool.spawn_replica is failing:
                pool.spawn_replica = original

        self._expire(event.duration_s, restore)
