"""The serving frontend: admission -> width policy -> replica pool -> batching.

One :class:`ServingFrontend` is the SLA-aware front door over a shared
slimmable weight store:

1. **Admission** fails infeasible requests fast (no compute spent).
2. The **width policy** picks the widest sub-network slice predicted to
   meet the remaining deadline budget.
3. The **replica pool** routes to the least-loaded healthy replica;
   replicas are ejected by heartbeat, and a request whose replica dies
   mid-flight is transparently rerouted — zero lost requests.
4. Per-(replica, width) :class:`~repro.runtime.batching.MicroBatchQueue`
   instances coalesce same-width requests into large batched forwards.
   A request that is *alone* — nothing else routed and unresolved on any
   replica when it is dispatched — is flushed at once; only a request
   with company waits (at most ``max_delay_s``) for batch-mates.

One timer thread drives the pool's heartbeat monitors, fires retry
backoffs and **hedges stragglers**: a request still unresolved well past
its predicted latency gets a duplicate at a narrower width on a different
replica; whichever finishes first resolves the caller's future.

This module is the *live binding*: threads, queues, futures, metrics.
The tunables are :mod:`repro.scheduler.config`; the per-request decision
(steps 1–2) and the ok/late/rejected/lost classifier are
:mod:`repro.scheduler.core`, shared with the virtual-time simulator.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import weakref
from concurrent.futures import Future, InvalidStateError
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Module bindings, not name imports: repro.faults.policy imports the
# admission types right back, so the cycle only resolves if both sides
# defer attribute access to call time (annotations stay strings under
# ``from __future__ import annotations``).
import repro.faults.policy as fault_policy
import repro.faults.supervisor as fault_supervisor
from repro.nn.plan import InferencePlan, compile_width_plans
from repro.runtime.batching import BatchingConfig, DeadlineExceeded, MicroBatchQueue
from repro.scheduler import core
from repro.scheduler.admission import (
    CRITICAL_PRIORITY,
    SLA,
    AdmissionController,
    AdmissionRejected,
)
from repro.scheduler.config import CONFIG_MAPPING_VERSION, SchedulerConfig  # noqa: F401
from repro.scheduler.pool import Replica, ReplicaPool, ReplicaUnavailable
from repro.scheduler.telemetry import MetricsRegistry
from repro.scheduler.width_policy import WidthPolicy
from repro.slimmable.spec import SubNetSpec
from repro.trace.recorder import LOST, OK, REJECTED, RequestRecord, RequestSpec, TraceRecorder
from repro.trace.tracer import (
    EVENT_ADMISSION,
    EVENT_BATCH,
    EVENT_ENQUEUE,
    EVENT_EXECUTE,
    EVENT_FAIL,
    EVENT_HEDGE,
    EVENT_HEDGE_LOST,
    EVENT_HEDGE_WON,
    EVENT_REROUTE,
    EVENT_RESOLVE,
    EVENT_SUBMIT,
    EVENT_WIDTH,
    NULL_TRACER,
    Tracer,
)
from repro.utils.logging import get_logger

#: A request is hedged no earlier than this many predicted service times...
HEDGE_FACTOR = 4.0
#: ...and never within this many seconds of its arrival.
HEDGE_MIN_S = 0.004

_LOG = get_logger("scheduler.frontend")


class _Entry:
    """One in-flight request's scheduling state."""

    __slots__ = (
        "x", "sla", "arrival", "deadline", "width", "future",
        "exclude", "primary_replica", "hedged", "lock",
        "rid", "trace", "spec", "__weakref__",
    )

    def __init__(
        self,
        x: np.ndarray,
        sla: SLA,
        arrival: float,
        *,
        rid: int = -1,
        trace=NULL_TRACER,
        spec: Optional[RequestSpec] = None,
    ) -> None:
        self.x = x
        self.sla = sla
        self.arrival = arrival
        self.deadline = arrival + sla.deadline_s
        self.width: Optional[str] = None
        self.future: "Future[np.ndarray]" = Future()
        self.exclude: Tuple[int, ...] = ()
        self.primary_replica: Optional[int] = None  # where the live leg waits
        self.hedged = False
        self.lock = threading.Lock()
        self.rid = rid          # request id (trace/record identity)
        self.trace = trace      # per-request tracer: sampled-in or NULL_TRACER
        self.spec = spec        # replayed RequestSpec (None for live traffic)


class _Timer:
    """The frontend's one timer: a thread firing ``(instant, seq, action)``
    off one clock-ordered heap.

    A hedge is a *weak* reference to its request's :class:`_Entry`, fired
    through ``hedge``: an answered request is freed at once, not pinned until
    its hedge instant, and dead references are swept whenever the heap has
    doubled, so it stays O(in-flight).  The ``heartbeat`` re-arms itself
    every ``every_s``; a retry backoff is a one-shot callable.  :meth:`drain`
    drops the hedges and runs the backoffs now (and any armed later, on the
    arming thread); heartbeats go on until :meth:`close`.
    """

    SWEEP_FLOOR = 64  # never sweep a heap smaller than this

    def __init__(self, hedge=None, heartbeat=None, every_s: float = 1.0) -> None:
        self._hedge, self._heartbeat, self._every_s = hedge, heartbeat, every_s
        self._heap: List[Tuple[float, int, object]] = []
        self._sweep_at = self.SWEEP_FLOOR
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._draining = self._closed = self._firing = False
        if heartbeat is not None:
            self._heap.append((time.monotonic() + every_s, next(self._seq), heartbeat))
        self._thread = threading.Thread(target=self._run, name="frontend-timer", daemon=True)
        self._thread.start()

    def arm(self, at: float, entry: _Entry) -> None:
        """Hedge ``entry`` at ``at`` unless it is answered by then."""
        with self._cond:
            if self._draining:
                return
            if len(self._heap) >= self._sweep_at:
                # Live tuples are kept whole: no instant moves.
                self._heap[:] = [
                    item for item in self._heap
                    if not isinstance(item[2], weakref.ref) or item[2]() is not None
                ]
                heapq.heapify(self._heap)
                self._sweep_at = 2 * len(self._heap) + self.SWEEP_FLOOR
            self._push(at, weakref.ref(entry))

    def call_at(self, at: float, action) -> None:
        """Run ``action`` once at ``at``; while draining, at once."""
        with self._cond:
            if not self._draining:
                self._push(at, action)
                return
        action()

    def drain(self) -> None:
        with self._cond:
            self._draining = True
            while self._firing:  # a backoff already popped lands first
                self._cond.wait()
            due = sorted(item for item in self._heap if not isinstance(item[2], weakref.ref))
            self._heap[:] = [item for item in due if item[2] is self._heartbeat]
        for _, _, action in due:
            if action is not self._heartbeat:
                action()

    def close(self) -> None:
        self.drain()
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join(timeout=5.0)
        # The callbacks are bound methods of the frontend that owns this
        # timer: drop them so a closed frontend is not a reference cycle.
        self._hedge = self._heartbeat = None
        self._heap.clear()

    def _push(self, at: float, action) -> None:
        item = (at, next(self._seq), action)
        heapq.heappush(self._heap, item)
        if self._heap[0] is item:  # the timer's next instant moved earlier
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                self._firing = False
                if self._draining:
                    self._cond.notify_all()  # a drain waits for the last action
                while not self._closed and (
                    not self._heap or self._heap[0][0] > time.monotonic()
                ):
                    self._cond.wait(self._heap[0][0] - time.monotonic() if self._heap else None)
                if self._closed:
                    return
                action = heapq.heappop(self._heap)[2]
                if action is self._heartbeat:
                    self._push(time.monotonic() + self._every_s, action)
                self._firing = True
            try:
                if isinstance(action, weakref.ref):
                    entry = action()
                    if entry is not None:
                        self._hedge(entry)
                else:
                    action()
            except Exception:  # one failed action must not stop the others
                _LOG.exception("frontend timer action failed")


class ServingFrontend:
    """SLA-aware scheduling over a shared slimmable weight store."""

    def __init__(
        self,
        model,
        config: Optional[SchedulerConfig] = None,
        *,
        tracer: Optional[Tracer] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.config = config or SchedulerConfig()
        self.metrics = MetricsRegistry()
        # Tracing is opt-in: without a tracer every emit call lands on the
        # shared NULL_TRACER no-op, and sampled-out requests bind it too.
        self.tracer = tracer or NULL_TRACER
        self.recorder = recorder
        self._epoch = time.monotonic()  # arrival offsets for recorded specs
        self._rids = itertools.count()
        self._batch_ids = itertools.count()
        net = getattr(model, "net", model)
        # What one row of a served payload must be: (C, H, W).
        self._row_shape = (net.in_channels, net.image_size, net.image_size)
        candidates = self._default_candidates(model, net)
        # One compiled plan per allowed width, all over a single shared
        # packed-weight cache: the per-request resolve/cast/allocate work
        # vanishes from the hot path, and the replicas share the plans
        # (workspace checkout isolates concurrent requests).  A plan sized
        # for ``max_batch`` rows computes a smaller flush over its leading
        # rows only.  ``conv_backend`` selects the convolution lowering for
        # every compiled width.
        # Process workers inherit these plans through ``fork``; the parent
        # never runs them, so there they are compiled without an arena.
        process_backend = self.config.replica_backend == "process"
        self.plans: Dict[str, InferencePlan] = compile_width_plans(
            model,
            candidates,
            batch_rows=self.config.max_batch,
            workspaces=0 if process_backend else 1,
            conv_backend=self.config.conv_backend,
        )
        self.policy = WidthPolicy(
            net,
            candidates,
            plan_flops={w: p.flops_per_image() for w, p in self.plans.items()},
        )
        self.admission = AdmissionController(
            headroom=self.config.admission_headroom, metrics=self.metrics
        )
        self.brownout: Optional[BrownoutController] = None
        if self.config.brownout is not None:
            self.brownout = fault_policy.BrownoutController(
                self.config.brownout, metrics=self.metrics, tracer=self.tracer
            )
        self.pool = ReplicaPool(
            model,
            self.config.replicas,
            metrics=self.metrics,
            plans=self.plans,
            backend=self.config.replica_backend,
            # What each process worker probes before it answers its readiness ping.
            widths=[spec.name for spec in self.policy.candidates],
        )
        self._view = self._plane_view()
        self._queues: Dict[Tuple[int, str], MicroBatchQueue] = {}
        self._queues_lock = threading.Lock()
        self._closing = False  # submit() stops accepting
        self._closed = False   # dispatch (incl. reroutes) fully stopped
        hedge = self._hedge if self.config.enable_hedging else None
        self._timer = _Timer(hedge, self._heartbeat, max(self.pool.heartbeat_interval_s, 1e-3))
        if self.config.warmup:
            self._warmup()
        self.supervisor: Optional[ReplicaSupervisor] = None
        if self.config.supervise:
            # Started after warmup so the supervisor never races the
            # initial priming runs on replica 0.
            self.supervisor = fault_supervisor.ReplicaSupervisor(self).start()

    @staticmethod
    def _default_candidates(model, net) -> List[SubNetSpec]:
        """Certified standalone *lower* sub-networks, narrowest first.

        Upper sub-networks are partitioning alternates sharing the lower
        family's latency tiers, so the width ladder uses the nested lower
        slices (each strictly wider = strictly more accurate).  A family
        that certifies *no* standalone sub-network (a Static DNN) gets
        only the full width: serving a narrower slice it never trained
        standalone would return garbage, so the scheduler must not
        downgrade to it under load.
        """
        spec = net.width_spec
        certified = getattr(model, "certified_standalone", None)
        lowers = spec.lower_family()
        if certified is None:
            return lowers  # bare net: every slice is fair game
        chosen = [s for s in lowers if s.name in certified]
        return chosen if chosen else [spec.full()]

    def _plane_view(self) -> core.PlaneView:
        """The live binding of :func:`core.decide`'s inputs.

        The callables close over the pool and the registry, not ``self``:
        a closed frontend must be plain garbage, not a reference cycle.
        """
        pool, metrics, max_batch = self.pool, self.metrics, self.config.max_batch

        def queue_wait(floor_s: float) -> float:
            # Requests already ahead on the least-loaded replica times the
            # measured per-row service rate of the live width mix (batching
            # amortisation included, since the EWMA is per batched row).
            # Before any batch has run, fall back to the narrowest allowed
            # width's predicted batch time spread over a full batch.
            least_pending = min((r.pending for r in pool.healthy()), default=0)
            row_time = metrics.ewma("frontend.row_service_s").value
            if row_time is None:
                row_time = floor_s / max_batch
            return least_pending * row_time

        return core.PlaneView(
            policy=self.policy,
            admission=self.admission if self.config.enable_admission else None,
            brownout=self.brownout,
            depth=lambda: sum(r.pending for r in pool.replicas),
            miss_rate=lambda: metrics.ewma("frontend.miss_rate").value,
            queue_wait=queue_wait,
        )

    def _warmup(self) -> None:
        """Prime the EWMAs with replica 0's seconds for a 1-row service per
        width (:meth:`Replica.warm_service_s`: a thread replica times a run
        now, a process worker reports the probes it timed while booting)."""
        names = [spec.name for spec in self.policy.candidates]
        for width, seconds in self.pool.replicas[0].warm_service_s(names).items():
            self.metrics.histogram("frontend.warmup_s").observe(seconds)
            self.policy.observe(width, seconds)
            self.metrics.ewma("frontend.row_service_s").observe(seconds)

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        x: np.ndarray,
        sla: Optional[SLA] = None,
        *,
        spec: Optional[RequestSpec] = None,
    ) -> "Future[np.ndarray]":
        """Schedule one request; the future resolves with its output rows.

        The future fails with ``ValueError`` when ``x`` is not a real
        numeric array of shape ``(rows >= 1, C, H, W)`` for the served net
        (before admission or routing: a malformed payload fails alone,
        never its batch-mates), with :class:`AdmissionRejected` (fail-fast,
        no compute spent) when the SLA is infeasible, or with
        :class:`ReplicaUnavailable` when the whole pool is dead.

        ``spec`` is the replayed :class:`RequestSpec` when a
        :class:`~repro.trace.replay.TraceReplayer` drives this frontend:
        it pins the request's trace/record identity to the corpus id (so
        sampling decisions and recorded artifacts line up across replays)
        and is written verbatim into the recorded artifact.
        """
        if self._closing:
            raise RuntimeError("submit on a closed ServingFrontend")
        sla = sla or self.config.default_sla
        rid = spec.request_id if spec is not None else next(self._rids)
        trace = self.tracer if self.tracer.sample(rid) else NULL_TRACER
        entry = _Entry(x, sla, time.monotonic(), rid=rid, trace=trace, spec=spec)
        self.metrics.counter("frontend.requests").inc()
        malformed = self._payload_error(x)
        trace.emit(
            rid,
            EVENT_SUBMIT,
            deadline_s=sla.deadline_s,
            priority=sla.priority,
            rows=1 if malformed else int(x.shape[0]),
        )
        if malformed:
            self.metrics.counter("frontend.failures.malformed").inc()
            entry.future.set_exception(ValueError(malformed))
            trace.emit(rid, EVENT_FAIL, error="ValueError")
            self._finalize(entry, REJECTED, None)
            return entry.future

        decision = core.decide(sla, entry.deadline - time.monotonic(), self._view)
        if decision.admission is not None:
            trace.emit(
                rid,
                EVENT_ADMISSION,
                admitted=decision.admission.admitted,
                reason=decision.admission.reason,
                estimated_s=decision.admission.estimated_s,
                queue_wait_s=decision.queue_wait_s,
            )
        if decision.error is not None:
            self.metrics.counter(
                "frontend.brownout_sheds" if decision.shed else "frontend.rejected"
            ).inc()
            self._classify_failure(decision.error)
            entry.future.set_exception(decision.error)
            trace.emit(rid, EVENT_FAIL, error=type(decision.error).__name__)
            outcome = core.classify_outcome(sla.deadline_s, error=decision.error)
            self._finalize(entry, outcome, None)
            return entry.future
        if decision.clamped:
            self.metrics.counter("frontend.brownout_clamped").inc()
        spec_w, predicted = decision.width, decision.predicted_s
        entry.width = spec_w.name
        self.metrics.counter(f"frontend.width.{spec_w.name}").inc()
        trace.emit(
            rid,
            EVENT_WIDTH,
            width=spec_w.name,
            predicted_s=predicted,
            budget_s=decision.budget_s,
        )
        # Critical-priority requests were admitted on "a late answer beats
        # none", so their leg carries no fail-fast deadline.
        leg_deadline = entry.deadline if sla.priority < CRITICAL_PRIORITY else None
        self._dispatch(entry, spec_w.name, deadline=leg_deadline, primary=True)
        if self.config.enable_hedging:
            # Hedge a true straggler, not ordinary backlog: no earlier than
            # several predicted service times AND half the remaining budget
            # — under a burst every request is "old", and hedging them all
            # would double the overload.
            now = time.monotonic()
            hedge_at = now + max(
                HEDGE_MIN_S, HEDGE_FACTOR * predicted, 0.5 * (entry.deadline - now)
            )
            self._timer.arm(hedge_at, entry)
        return entry.future

    def _payload_error(self, x) -> Optional[str]:
        """Why ``x`` is not a batch the served net takes, or None."""
        if not isinstance(x, np.ndarray) or x.ndim != 4 or x.shape[1:] != self._row_shape:
            return (
                f"payload must be an array of shape (rows, {', '.join(map(str, self._row_shape))}), "
                f"got {getattr(x, 'shape', type(x).__name__)}"
            )
        if x.shape[0] < 1:
            return "payload has no rows"
        if x.dtype.kind not in "fiu":
            return f"payload dtype must be real numeric, got {x.dtype}"
        return None

    # -- dispatch / completion -------------------------------------------------

    def _queue_for(self, replica: Replica, width: str) -> MicroBatchQueue:
        key = (replica.index, width)
        with self._queues_lock:
            # Checked under the same lock close() holds for its final
            # sweep: either this insertion happens before the sweep (and
            # is swept) or _closed is already visible here and refused.
            if self._closed:
                raise RuntimeError("frontend closed")
            if key not in self._queues:
                batching = BatchingConfig(
                    max_batch=self.config.max_batch,
                    max_delay_s=self.config.max_delay_s,
                )
                # One mutable cell shared by the two collector-thread hooks
                # below: _on_batch (membership, runs first) stashes the
                # batch id and tags, _run_parts (execution) reads them.
                # Safe without a lock — each queue has exactly one
                # collector thread, and both hooks run on it.
                batch_ctx: Dict[str, object] = {}

                def _on_batch(tags, rows, r=replica, w=width, ctx=batch_ctx) -> None:
                    bid = next(self._batch_ids)
                    ctx["id"], ctx["tags"] = bid, tags
                    for tag in tags:
                        tag.trace.emit(
                            tag.rid,
                            EVENT_BATCH,
                            batch=bid,
                            rows=rows,
                            replica=r.index,
                            width=w,
                        )

                def _run_parts(parts, r=replica, w=width, ctx=batch_ctx) -> np.ndarray:
                    # Observe *pure* service time (one batched forward), not
                    # dispatch-to-done latency: queue wait is accounted
                    # separately from live pending counts, so backlog never
                    # poisons the width calibration.  The observation is
                    # deliberately per-batch, not per-row: a request rides
                    # its whole batch, so "one batched forward at the live
                    # batch-size mix" is exactly the service time its
                    # deadline budget must absorb.  The queue hands over the
                    # raw per-request arrays: a compiled plan scatters their
                    # rows straight into its input arena, so the batch is
                    # never concatenated into a temporary.
                    with self.metrics.timer("frontend.batch_service_s") as timer:
                        out = r.run_parts(parts, w)
                    service = timer.elapsed
                    self.policy.observe(w, service)
                    # Pooled per-row rate over the live width mix: pending
                    # rows x this EWMA estimates queue wait at admission.
                    self.metrics.ewma("frontend.row_service_s").observe(
                        service / out.shape[0]
                    )
                    # pop, not get: an idle queue must not pin its last
                    # batch's entries (payload + future) until the next one.
                    tags = ctx.pop("tags", ())
                    if any(tag.trace.enabled for tag in tags):
                        info = self._execution_info(w, parts)
                        for tag in tags:
                            tag.trace.emit(
                                tag.rid,
                                EVENT_EXECUTE,
                                batch=ctx.get("id"),
                                service_s=service,
                                **info,
                            )
                    return out

                self._queues[key] = MicroBatchQueue(
                    run_batch_parts=_run_parts, config=batching, on_batch=_on_batch
                )
            return self._queues[key]

    def _execution_info(self, width: str, parts: Sequence[np.ndarray]) -> Dict[str, object]:
        """How this flush actually executed: plan or eager fallback, backend."""
        rows = sum(int(p.shape[0]) for p in parts)
        plan = self.plans[width]  # every candidate width has one
        if not plan.accepts_parts(parts):
            return {"mode": "eager", "rows": rows}
        return {
            "mode": "plan",
            "rows": rows,
            "plan_rows": plan.batch_rows,
            "conv_backend": plan.conv_backend,
        }

    def _dispatch(
        self,
        entry: _Entry,
        width: str,
        *,
        exclude: Tuple[int, ...] = (),
        deadline: Optional[float] = None,
        primary: bool = False,
        leg: str = "primary",
    ) -> None:
        """Queue one leg of a request on a routed replica.

        ``deadline`` is forwarded to the micro-batch queue's fail-fast
        check on the *initial* leg only; reroute and hedge legs carry no
        deadline because once work was admitted the plane commits to
        producing a result (a late answer is a miss, never a loss).
        ``leg`` labels the dispatch for tracing and hedge-outcome
        accounting: ``"primary"``, ``"reroute"`` or ``"hedge"``.

        Every leg tells its queue whether it is *alone*: no leg of any
        request is routed and unresolved on any replica (the plane's
        ``depth``, read before ``route()`` counts this one).  The queue flushes such a leg at
        once; the rule is frontend-wide, not per queue, because a
        collector's own queue is always idle when it gathers — while the
        other replica has a batch in flight, nobody is alone.
        """
        if self._closed:
            self._fail(entry, ReplicaUnavailable("frontend closed"))
            return
        alone = self._view.depth() == 0
        try:
            replica = self.pool.route(exclude=exclude)
        except ReplicaUnavailable as exc:
            self._fail(entry, exc)
            return
        if primary:
            with entry.lock:
                entry.primary_replica = replica.index
        entry.trace.emit(
            entry.rid, EVENT_ENQUEUE, replica=replica.index, width=width, leg=leg
        )
        try:
            inner = self._queue_for(replica, width).submit(
                entry.x, deadline=deadline, tag=entry, alone=alone
            )
        except (RuntimeError, ValueError) as exc:
            # Closed queue (frontend shutting down under a reroute/hedge) or
            # an invalid payload; either way the routed replica's pending
            # count must be released before the future is failed.
            replica.finish()
            self._fail(entry, exc if isinstance(exc, ValueError) else ReplicaUnavailable(str(exc)))
            return
        inner.add_done_callback(lambda f: self._on_done(entry, replica, width, f, leg))

    def _on_done(
        self,
        entry: _Entry,
        replica: Replica,
        width: str,
        inner: "Future[np.ndarray]",
        leg: str = "primary",
    ) -> None:
        replica.finish()
        exc = None if inner.cancelled() else inner.exception()
        if not inner.cancelled() and exc is None:
            self._resolve(entry, inner.result(), leg=leg)
            return
        if isinstance(exc, ReplicaUnavailable):
            # The endpoint died under this request: eject it through the
            # heartbeat state machine and reroute to a survivor.
            self.pool.report_failure(replica)
            if entry.future.done():
                return
            self.metrics.counter("frontend.reroutes").inc()
            with entry.lock:
                entry.exclude = entry.exclude + (replica.index,)
                exclude = entry.exclude
            _LOG.warning("replica %d lost mid-request; rerouting at width %s",
                         replica.index, width)
            entry.trace.emit(entry.rid, EVENT_REROUTE, dead_replica=replica.index, width=width)

            def reroute() -> None:
                self._dispatch(entry, width, exclude=exclude, primary=True, leg="reroute")

            delay, retry = 0.0, self.config.retry_policy
            if retry is not None:
                # Attempt number = replicas already burned on this request;
                # the policy answers "retry, and after how long?" against
                # the remaining deadline budget.  Critical priority never
                # gives up (a late answer beats none), but still backs off.
                attempt, remaining = len(exclude), entry.deadline - time.monotonic()
                critical = entry.sla.priority >= CRITICAL_PRIORITY
                delay = retry.delay_for(attempt, remaining, critical=critical)
                if delay is None:
                    # A deadline that expired while rerouting is a miss, not
                    # an infrastructure loss: classified with the other expiries.
                    why = f"retry budget exhausted after {attempt} attempts"
                    self._fail(entry, fault_policy.RetryExhausted(why) if remaining > 0
                               else DeadlineExceeded("deadline expired while rerouting"))
                    return
                self.metrics.counter("frontend.retries").inc()
            if delay > 0:
                self._timer.call_at(time.monotonic() + delay, reroute)
            else:
                reroute()
            return
        if isinstance(exc, DeadlineExceeded):
            # The initial leg expired before it could even enter a batch
            # (fail-fast in the queue): a miss, recorded distinctly from
            # infrastructure failures.
            self.metrics.counter("frontend.expired").inc()
        self._fail(entry, exc or RuntimeError("request cancelled"))

    def _hedge(self, entry: _Entry) -> None:
        """Timer callback: duplicate a straggler at a narrower width.

        Subject to the hedge budget: duplicated work may add at most
        ``hedge_ratio`` of total traffic, so a backlog where *every*
        request looks old cannot trigger a load-doubling hedge storm.
        """
        with entry.lock:
            if entry.future.done() or entry.hedged:
                return
            entry.hedged = True
            hedge_exclude = entry.exclude
            # Steer the hedge off the replica where the straggling leg
            # waits — a duplicate behind the same backlog only doubles that
            # replica's load.  route() still falls back to it when nothing
            # else is healthy.
            if entry.primary_replica is not None:
                hedge_exclude = hedge_exclude + (entry.primary_replica,)
        budget = self.config.hedge_ratio * self.metrics.counter("frontend.requests").value
        if self.metrics.counter("frontend.hedges").value + 1 > budget:
            self.metrics.counter("frontend.hedges_suppressed").inc()
            return
        narrower = self.policy.narrower_than(entry.width, entry.sla.min_width)
        width = (narrower or self.policy.narrowest(entry.sla.min_width)).name
        self.metrics.counter("frontend.hedges").inc()
        entry.trace.emit(
            entry.rid, EVENT_HEDGE, width=width, primary_width=entry.width
        )
        self._dispatch(entry, width, exclude=hedge_exclude, leg="hedge")

    def _resolve(self, entry: _Entry, result: np.ndarray, *, leg: str = "primary") -> None:
        try:
            entry.future.set_result(result)
        except InvalidStateError:
            return  # the other leg of a hedge won
        latency = time.monotonic() - entry.arrival
        self.metrics.histogram("frontend.latency").observe(latency)
        self.metrics.counter("frontend.completed").inc()
        outcome = core.classify_outcome(entry.sla.deadline_s, latency)
        on_time = outcome == OK
        if on_time:
            self.metrics.counter("frontend.completed_within_deadline").inc()
        else:
            self.metrics.counter("frontend.completed_late").inc()
        # Deadline-miss EWMA: one of the brown-out controller's two
        # pressure signals (the other is live queue depth).
        self.metrics.ewma("frontend.miss_rate").observe(0.0 if on_time else 1.0)
        if entry.hedged:
            # Exactly one leg reaches this point (the future is a
            # single-assignment gate), so the winner's identity is exact.
            won = leg == "hedge"
            entry.trace.emit(
                entry.rid,
                EVENT_HEDGE_WON if won else EVENT_HEDGE_LOST,
                leg=leg,
            )
            self.metrics.counter(
                "frontend.hedge_wins" if won else "frontend.hedge_losses"
            ).inc()
        entry.trace.emit(
            entry.rid, EVENT_RESOLVE, latency_s=latency, on_time=on_time, leg=leg
        )
        self._finalize(entry, outcome, latency)

    def _classify_failure(self, exc: BaseException) -> str:
        """Count the terminal failure under its distinct cause.

        Most-specific first: the exception hierarchy nests (BrownoutShed
        is an AdmissionRejected is a DeadlineExceeded; RetryExhausted is
        a ReplicaUnavailable), and each cause must land in exactly one
        ``frontend.failures.<cause>`` counter.
        """
        if isinstance(exc, fault_policy.BrownoutShed):
            cause = "brownout_shed"
        elif isinstance(exc, AdmissionRejected):
            cause = "admission_rejected"
        elif isinstance(exc, DeadlineExceeded):
            cause = "deadline_expired"
        elif isinstance(exc, fault_policy.RetryExhausted):
            cause = "retry_exhausted"
        elif isinstance(exc, ReplicaUnavailable):
            cause = "replica_unavailable"
        else:
            cause = "error"
        self.metrics.counter(f"frontend.failures.{cause}").inc()
        return cause

    def _fail(self, entry: _Entry, exc: BaseException) -> None:
        try:
            entry.future.set_exception(exc)
        except InvalidStateError:
            return
        self.metrics.counter("frontend.failed").inc()
        self._classify_failure(exc)
        entry.trace.emit(entry.rid, EVENT_FAIL, error=type(exc).__name__)
        outcome = core.classify_outcome(entry.sla.deadline_s, error=exc)
        if outcome == LOST:
            # A lost request is the hardest miss signal brown-out sees;
            # rejections and sheds deliberately don't feed it (a shedding
            # brown-out must not keep itself engaged).
            self.metrics.ewma("frontend.miss_rate").observe(1.0)
        self._finalize(entry, outcome, None)

    def _finalize(self, entry: _Entry, outcome: str, latency: Optional[float]) -> None:
        """Terminal bookkeeping: assemble and persist the request's record.

        Runs exactly once per request (guarded by the future's
        single-assignment in :meth:`_resolve` / :meth:`_fail`).  The
        request's events are *taken* from the tracer here, so the
        per-request index stays bounded by in-flight traced requests.
        """
        events = entry.trace.take(entry.rid)
        if self.recorder is None:
            return
        spec = entry.spec or RequestSpec(
            request_id=entry.rid,
            arrival_s=entry.arrival - self._epoch,
            deadline_s=entry.sla.deadline_s,
            priority=entry.sla.priority,
            min_width=entry.sla.min_width,
            max_width=entry.sla.max_width,
        )
        self.recorder.record(
            RequestRecord(
                spec=spec,
                outcome=outcome,
                width=entry.width,
                latency_s=latency,
                events=tuple(e.to_json() for e in events),
            )
        )

    def invalidate_replica_queues(self, index: int) -> None:
        """Retire the per-(replica, width) queues bound to a replaced slot.

        The queue closures capture the *replica object*, so after the
        supervisor adopts a fresh one the old queues would keep running
        batches against the dead peer.  Closing them drains any pending
        entries through the dead replica's ``run_parts`` — which raises
        ``ReplicaUnavailable`` and reroutes each request to a survivor —
        and the next dispatch to this slot lazily builds fresh queues
        around the adopted replica.  The closes run outside the queues
        lock: a drain triggers reroutes whose ``_queue_for`` needs it.
        """
        with self._queues_lock:
            stale = [
                self._queues.pop(key)
                for key in [k for k in self._queues if k[0] == index]
            ]
        for queue in stale:
            queue.close(timeout=5.0)

    def _heartbeat(self) -> None:
        """One heartbeat round, fired by the timer every heartbeat interval."""
        for replica in self.pool.check_health():
            _LOG.warning("heartbeat ejected replica %d", replica.index)

    # -- lifecycle -------------------------------------------------------------

    def report(self) -> Dict:
        """JSON-friendly snapshot: metrics + width-policy calibration."""
        snapshot = self.metrics.snapshot()
        with self._queues_lock:
            queues = dict(self._queues)
        report = {
            "metrics": snapshot,
            "calibration": self.policy.calibration_snapshot(),
            "replicas": [
                {"index": r.index, "alive": r.alive, "pending": r.pending}
                for r in self.pool.replicas
            ],
            # Per-(replica, width) micro-batch stats, copied under each
            # queue's stats lock (readers never race the flush thread).
            "batching": {
                f"{replica}:{width}": queue.stats.snapshot()
                for (replica, width), queue in sorted(queues.items())
            },
        }
        failures = self.metrics.counters_with_prefix("frontend.failures.")
        if failures:
            report["failures"] = failures
        if self.brownout is not None:
            report["brownout"] = self.brownout.status()
        if self.supervisor is not None:
            report["supervisor"] = self.supervisor.status()
        if self.tracer.enabled:
            report["trace"] = self.tracer.stats()
        workers = self._worker_stats(snapshot)
        if workers:
            report["workers"] = workers
        return report

    def _worker_stats(self, snapshot: Dict) -> List[Dict]:
        """Per-worker rows / repacks / measured rows/s (process backend).

        Every worker is listed, one that has served nothing yet with zeros.
        """
        if self.pool.backend != "process":
            return []
        counters = snapshot["counters"]
        ewmas = snapshot["ewmas"]
        stats = []
        for replica in self.pool.replicas:
            label = f"worker.{replica.index}"
            rate = ewmas.get(f"{label}.rows_per_s", {})
            stats.append(
                {
                    "worker": replica.index,
                    "alive": replica.alive,
                    "rows": counters.get(f"{label}.rows", 0),
                    "batches": counters.get(f"{label}.batches", 0),
                    "repacks": counters.get(f"{label}.repacks", 0),
                    "rows_per_s": rate.get("value"),
                }
            )
        return stats

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Drain every queue, then stop the timer.

        Draining happens in rounds with rerouting still enabled: if a
        replica dies while its queue drains, the displaced requests spawn
        fresh queues on survivors, which the next round drains too — so a
        mid-close failure still loses zero requests.
        """
        if self._closing:
            return
        self._closing = True
        # The supervisor drains first: a respawn landing mid-close would
        # adopt a replica nothing will ever route to (and invalidate
        # queues the drain rounds below are trying to empty).
        if self.supervisor is not None:
            self.supervisor.close(timeout=timeout)
        # No hedge fires from here on: one firing mid-drain could insert a
        # queue after the final round and leak its collector thread.  Retry
        # backoffs end now; reroutes run synchronously inside each queue's
        # close(), so every round catches what they spawn.  Heartbeats go on.
        self._timer.drain()
        while True:
            with self._queues_lock:
                if not self._queues:
                    break
                queues = list(self._queues.values())
                self._queues.clear()
            for queue in queues:
                queue.close(timeout=timeout)
        # Final sweep: a submit() that raced past the _closing check may
        # have inserted a queue between the last drain round and now.
        # Setting _closed under the queues lock makes this exhaustive:
        # _queue_for refuses insertions once _closed is visible, and any
        # insertion that won the lock first is captured in the snapshot.
        with self._queues_lock:
            self._closed = True
            stragglers = list(self._queues.values())
            self._queues.clear()
        for queue in stragglers:
            queue.close(timeout=timeout)
        self._timer.close()
        # Last: process workers shut down and unlink their shm rings (a
        # no-op for thread replicas).  After the queue drain nothing can
        # still be in flight on them.
        self.pool.close()

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
