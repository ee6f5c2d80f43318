"""Failure-aware replica pool.

A :class:`Replica` models one serving endpoint: a set of
:class:`~repro.engine.session.InferenceSession` handles (one per
sub-network width, created lazily) over the *shared* weight store — so N
replicas still hold zero parameter copies, exactly like the engine's
in-process endpoints.  The :class:`ReplicaPool` routes each request to
the least-loaded healthy replica and ejects replicas via the same
:class:`~repro.runtime.monitor.HeartbeatMonitor` the live system uses,
one heartbeat round every :data:`HEARTBEAT_INTERVAL_S`.  Retrying a
request whose endpoint died mid-flight is the caller's cycle —
:class:`~repro.scheduler.frontend.ServingFrontend` does
``route`` → ``report_failure`` → ``route(exclude=...)`` over its queues —
the HA story at request granularity.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.session import InferenceSession
from repro.runtime.monitor import HeartbeatMonitor
from repro.scheduler.telemetry import MetricsRegistry, Timer

#: Seconds between heartbeat rounds (the frontend's timer fires them).
HEARTBEAT_INTERVAL_S = 0.05


class ReplicaUnavailable(RuntimeError):
    """The targeted replica (or every replica) cannot serve the request."""


def probe_input(model) -> np.ndarray:
    """One all-zero image for ``model``: the row a warm-up probe serves."""
    net = getattr(model, "net", model)
    return np.zeros((1, net.in_channels, net.image_size, net.image_size))


class Replica:
    """One serving endpoint: per-width sessions over shared weights.

    ``plans`` maps width names to compiled
    :class:`~repro.nn.plan.InferencePlan` objects; a width with a plan
    serves through the allocation-free compiled path (plans are immutable
    and thread-safe, so all replicas share one plan per width — workspace
    isolation happens inside the plan's pool, and a flush computes over
    its own rows only, whatever the plan's ceiling).
    """

    def __init__(self, index: int, model, plans: Optional[Dict[str, object]] = None) -> None:
        self.index = index
        self._model = model
        self._plans = plans or {}
        self._sessions: Dict[str, InferenceSession] = {}
        self._session_lock = threading.Lock()
        self._pending = 0          # dispatched but not yet completed requests
        self._pending_lock = threading.Lock()
        self._alive = True

    # -- health ---------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def ping(self) -> bool:
        """Heartbeat target (what a transport-level ping would report)."""
        return self._alive

    def kill(self) -> None:
        """Simulate endpoint death: every subsequent run raises."""
        self._alive = False

    def revive(self) -> None:
        self._alive = True

    # -- load accounting ------------------------------------------------------

    @property
    def pending(self) -> int:
        with self._pending_lock:
            return self._pending

    def begin(self) -> None:
        with self._pending_lock:
            self._pending += 1

    def finish(self) -> None:
        with self._pending_lock:
            self._pending = max(0, self._pending - 1)

    # -- serving --------------------------------------------------------------

    def session(self, width: str) -> InferenceSession:
        with self._session_lock:
            if width not in self._sessions:
                self._sessions[width] = InferenceSession(
                    self._model, width, plan=self._plans.get(width)
                )
            return self._sessions[width]

    def run(self, x: np.ndarray, width: str) -> np.ndarray:
        """Serve one (possibly batched) request at the given width."""
        if not self._alive:
            raise ReplicaUnavailable(f"replica {self.index} is down")
        out = self.session(width).run(x)
        if not self._alive:
            # Killed mid-forward: the caller must not trust a result a dead
            # endpoint could never have delivered.
            raise ReplicaUnavailable(f"replica {self.index} died mid-request")
        return out

    def run_parts(self, parts: List[np.ndarray], width: str) -> np.ndarray:
        """Serve a micro-batch given as per-request row groups.

        The compiled-plan path lands the rows directly in the plan's input
        arena; without a plan this concatenates and runs eagerly.
        """
        if not self._alive:
            raise ReplicaUnavailable(f"replica {self.index} is down")
        out = self.session(width).run_parts(parts)
        if not self._alive:
            raise ReplicaUnavailable(f"replica {self.index} died mid-request")
        return out

    def warm_service_s(self, widths: Sequence[str]) -> Dict[str, float]:
        """Seconds of one timed 1-row run per width: what a frontend primes from."""
        x, seconds = probe_input(self._model), {}
        for width in widths:
            with Timer() as timer:
                self.run(x, width)
            seconds[width] = timer.elapsed
        return seconds

    def stop(self) -> None:
        """Ask the endpoint to stop, without waiting for it (threads: nothing to ask)."""

    def close(self) -> None:
        """Release endpoint resources (thread replicas hold none)."""

    def __repr__(self) -> str:
        state = "up" if self._alive else "down"
        return f"Replica({self.index}, {state}, pending={self.pending})"


class ReplicaPool:
    """Least-loaded routing over N replicas with heartbeat-driven ejection.

    ``backend`` selects what a replica *is*: ``"thread"`` (the default)
    keeps N in-process session sets sharing one interpreter, while
    ``"process"`` forks N worker processes over shared-memory weights
    (:mod:`repro.scheduler.procpool`) — same routing, health and reroute
    machinery either way, but process replicas escape the GIL and can
    genuinely die (``kill -9``), which the heartbeat path handles
    identically to a simulated thread kill.  Either backend serves
    ``plans``; each process worker also probes ``widths`` before it
    answers its readiness ping (thread replicas ignore them).
    """

    def __init__(
        self,
        model,
        num_replicas: int,
        *,
        metrics: Optional[MetricsRegistry] = None,
        plans: Optional[Dict[str, object]] = None,
        backend: str = "thread",
        widths: Sequence[str] = (),
    ) -> None:
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown replica backend {backend!r}")
        self.backend = backend
        self.metrics = metrics or MetricsRegistry()
        # Spawn ingredients, kept so a supervisor can respawn a dead
        # replica with exactly the recipe the pool was built from.
        self._model = model
        self._plans = plans
        self._widths = tuple(widths)
        if backend == "process":
            from repro.scheduler.procpool import make_process_replicas

            self.replicas: List[Replica] = make_process_replicas(
                model, num_replicas, plans=plans, widths=self._widths, metrics=self.metrics
            )
        else:
            self.replicas = [Replica(i, model, plans) for i in range(num_replicas)]
        # One monitor per replica — the same detector the live
        # master/worker path uses.
        self.monitors: List[HeartbeatMonitor] = [
            HeartbeatMonitor(replica.ping) for replica in self.replicas
        ]
        self.heartbeat_interval_s = HEARTBEAT_INTERVAL_S
        self._lock = threading.Lock()         # routing decisions
        self._health_lock = threading.Lock()  # monitor state transitions

    # -- health ---------------------------------------------------------------

    def healthy(self) -> List[Replica]:
        return [
            r for r, m in zip(self.replicas, self.monitors) if not m.declared_dead
        ]

    def check_health(self) -> List[Replica]:
        """Run one heartbeat round; returns replicas newly declared dead.

        Serialised with :meth:`report_failure` (one lock) so a death seen
        simultaneously by a heartbeat round and a failing request counts as
        exactly one ejection.
        """
        ejected = []
        with self._health_lock:
            for replica, monitor in zip(self.replicas, self.monitors):
                if monitor.declared_dead:
                    continue
                if not monitor.check() and monitor.declared_dead:
                    ejected.append(replica)
                    self.metrics.counter("pool.ejections").inc()
        return ejected

    def report_failure(self, replica: Replica) -> None:
        """Account an observed request failure as missed heartbeats.

        A hard transport failure is stronger evidence than a silent miss,
        so the monitor is driven to its threshold immediately — the
        replica is ejected through the same state machine the periodic
        heartbeat uses, keeping one definition of "dead".
        """
        monitor = self.monitors[replica.index]
        with self._health_lock:
            if self.replicas[replica.index] is not replica:
                # Stale report: this replica was already replaced by a
                # respawn.  Its monitor now pings the *new* (live) peer, so
                # driving it here could never reach the threshold — and the
                # failure belongs to an object no longer in routing anyway.
                return
            was_dead = monitor.declared_dead
            while not monitor.declared_dead and not replica.ping():
                monitor.check()
            if monitor.declared_dead and not was_dead:
                self.metrics.counter("pool.ejections").inc()

    # -- respawn --------------------------------------------------------------

    def spawn_replica(self, index: int) -> Replica:
        """Build a fresh replica for slot ``index`` from the pool's recipe.

        Process backend: forks a brand-new worker over the pool's plans
        (SIGKILL is not survivable) and returns once it has probed its
        widths and answered the readiness ping — nobody observes its
        primes; one that does not come up raises
        :class:`ReplicaUnavailable`.  Thread backend:
        revives the existing object in place.  The result is *not* yet
        routed; :meth:`adopt` it.
        """
        replica = self.replicas[index]
        if self.backend != "process":
            replica.revive()
            return replica
        from repro.scheduler.procpool import ProcessReplica, partition_thread_budget

        return ProcessReplica(
            index,
            self._model,
            plans=self._plans,
            widths=self._widths,
            omp_threads=partition_thread_budget(len(self.replicas)),
            metrics=self.metrics,
        ).wait_ready()

    def adopt(self, index: int, replica: Replica) -> Replica:
        """Swap ``replica`` into slot ``index`` and return it to routing.

        The monitor object keeps its slot — it is rebound to the new
        peer and reset, so the replica re-enters :meth:`healthy` with a
        clean heartbeat history.  Returns the replaced replica (the
        caller owns closing it; for a respawn that unlinks the dead
        worker's ring segment).
        """
        with self._lock, self._health_lock:
            old = self.replicas[index]
            self.replicas[index] = replica
            self.monitors[index].rebind(replica.ping)
        return old

    # -- routing --------------------------------------------------------------

    def route(self, exclude: Tuple[int, ...] = ()) -> Replica:
        """Least-loaded healthy replica, skipping ``exclude`` indices."""
        with self._lock:
            options = [r for r in self.healthy() if r.index not in exclude]
            if not options:
                # Nothing else left: fall back to any healthy replica (a
                # hedge would rather reuse the primary's replica than fail).
                options = self.healthy()
            if not options:
                raise ReplicaUnavailable("no healthy replicas")
            choice = min(options, key=lambda r: (r.pending, r.index))
            choice.begin()
            return choice

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release every replica (process workers shut down and unlink shm).

        Every worker is told to stop before any is joined, so N workers
        leave in the time of the slowest, not the sum.
        """
        for replica in self.replicas:
            replica.stop()
        for replica in self.replicas:
            replica.close()

    def __repr__(self) -> str:
        return f"ReplicaPool({self.replicas!r})"
