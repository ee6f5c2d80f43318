"""Open-loop trace replay: live (wall-clock) and simulated (virtual time).

A :class:`TraceReplayer` takes a request stream — a scenario-zoo
:class:`~repro.trace.scenarios.TraceSpec`, a recorded artifact, or an
explicit spec list — and re-injects it against a
:class:`~repro.scheduler.frontend.SchedulerConfig` in one of two modes:

* :meth:`TraceReplayer.replay` drives a **real**
  :class:`~repro.scheduler.frontend.ServingFrontend` open-loop: payloads
  are regenerated deterministically from each spec's ``payload_seed``
  (``derive_seed``-namespaced), submission times follow the recorded
  arrival offsets, and outcomes are measured on the wall clock.  This is
  the mode that answers "what does *this machine* do under this trace"
  — and the mode the tracing-overhead benchmark uses.

* :meth:`TraceReplayer.simulate` runs the same stream in **deterministic
  virtual time**.  The per-request decision is *shared code*: the same
  :func:`repro.scheduler.core.decide` the live frontend calls (brown-out
  gate, admission, budget, width choice over a real
  :class:`~repro.scheduler.width_policy.WidthPolicy`), the same
  ``classify_outcome`` and ``summarize_outcomes``.  What executes the
  decision is an *analytical model*, :class:`_Simulation`: least-loaded
  routing, a per-(replica, width) micro-batch flush model, fault windows
  — with service times that are pure functions of (width, rows), so the
  same corpus yields **bit-identical per-request outcomes** on every run
  and every machine.  This is the mode CI pins: miss-rate drift in
  ``BENCH_trace_replay.json`` means the scheduler's *decision logic*
  changed, not that the runner was noisy.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter, deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

# Module binding: faults.policy is mid-import when the scheduler package
# pulls this module in through repro.trace (see scheduler/config.py).
import repro.faults.policy as fault_policy
from repro.faults.plan import (
    CRASH,
    DROP,
    HEARTBEAT_DELAY,
    RECOVER,
    STALL,
    FaultPlan,
    target_index,
)
from repro.scheduler import core
from repro.scheduler.admission import SLA, AdmissionController
from repro.scheduler.core import summarize_outcomes
from repro.scheduler.width_policy import WidthPolicy
from repro.trace.recorder import (
    FAULTS_META_KEY,
    LOST,
    RequestRecord,
    RequestSpec,
    TraceRecorder,
    read_specs,
)
from repro.trace.scenarios import TraceSpec, get_scenario
from repro.trace.tracer import (
    EVENT_ADMISSION,
    EVENT_BATCH,
    EVENT_ENQUEUE,
    EVENT_FAIL,
    EVENT_REROUTE,
    EVENT_RESOLVE,
    EVENT_SUBMIT,
    EVENT_WIDTH,
    Tracer,
)
from repro.utils.rng import derive_seed, make_rng

#: Virtual service time of the *narrowest* width for one row, seconds.
#: The other widths scale by their analytical cost ratios — the part of
#: the cost model that is trustworthy (see width_policy docstring).
SIM_NARROWEST_ROW_S = 0.004

#: Marginal cost of each additional batched row, as a fraction of the
#: first row (batching amortisation: a 16-row batch costs ~6.25 rows).
SIM_AMORTIZE = 0.35

#: Virtual seconds a crashed replica stays unroutable in :meth:`simulate`
#: — the analytic stand-in for the supervisor's detect + respawn + warmup.
SIM_RESPAWN_DELAY_S = 0.25


def payload_for(spec: RequestSpec, net) -> np.ndarray:
    """Deterministically regenerate one request's input payload."""
    shape = spec.shape or (1, net.in_channels, net.image_size, net.image_size)
    seed = spec.payload_seed
    if seed is None:
        seed = derive_seed(0, "payload", spec.request_id)
    return make_rng(seed).standard_normal(shape)


def sla_for(spec: RequestSpec) -> SLA:
    return SLA(
        deadline_s=spec.deadline_s,
        priority=spec.priority,
        min_width=spec.min_width,
        max_width=spec.max_width,
    )


def _blank_record(spec: RequestSpec) -> Dict[str, object]:
    """A request's result row before it ends: lost until something says otherwise."""
    return {
        "request_id": spec.request_id,
        "arrival_s": spec.arrival_s,
        "outcome": LOST,
        "width": None,
        "latency_s": None,
    }


class TraceReplayer:
    """Re-injects a recorded or generated request stream."""

    def __init__(
        self,
        specs: Sequence[RequestSpec],
        *,
        name: str = "trace",
        duration_s: Optional[float] = None,
        meta: Optional[Mapping[str, object]] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.specs: Tuple[RequestSpec, ...] = tuple(
            sorted(specs, key=lambda s: (s.arrival_s, s.request_id))
        )
        self.name = name
        self.meta = dict(meta or {})
        if duration_s is None:
            duration_s = max((s.arrival_s for s in self.specs), default=0.0) + 1e-9
        self.duration_s = duration_s
        # An attached incident: explicit plan wins, else one riding in the
        # artifact meta (how `replay --faults` re-runs a recorded run).
        if faults is None and self.meta.get(FAULTS_META_KEY):
            faults = FaultPlan.from_json(self.meta[FAULTS_META_KEY])
        self.faults = faults

    @classmethod
    def from_file(cls, path) -> "TraceReplayer":
        """Load any trace artifact (``generated`` or ``recorded``)."""
        header, specs = read_specs(path)
        meta = header.get("meta", {}) or {}
        return cls(
            specs,
            name=str(meta.get("name", "trace")),
            duration_s=(
                float(meta["duration_s"]) if meta.get("duration_s") else None
            ),
            meta=meta,
        )

    @classmethod
    def from_scenario(cls, scenario: Union[str, TraceSpec]) -> "TraceReplayer":
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        return cls(
            spec.generate(),
            name=spec.name,
            duration_s=spec.duration_s,
            meta=spec.meta(),
        )

    # -- live replay -----------------------------------------------------------

    def replay(
        self,
        model,
        config=None,
        *,
        tracer: Optional[Tracer] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> Dict[str, object]:
        """Drive a real :class:`ServingFrontend` open-loop (wall clock).

        Payloads are regenerated from each spec's ``payload_seed``; each
        request carries its own SLA.  ``tracer``/``recorder`` are passed
        straight into the frontend, so a replay can itself be recorded —
        the record-of-a-replay round trip.

        An attached fault plan (``self.faults``) is armed against the
        frontend for the duration of the drive, and serialised into the
        recorder's artifact meta so the incident replays with the trace.
        """
        from repro.scheduler.frontend import SchedulerConfig, ServingFrontend

        config = config or SchedulerConfig()
        net = getattr(model, "net", model)
        frontend = ServingFrontend(model, config, tracer=tracer, recorder=recorder)
        injector = None
        if self.faults:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(frontend, self.faults)
            if recorder is not None:
                recorder.meta.setdefault(FAULTS_META_KEY, self.faults.to_json())
        try:
            records = self.drive(frontend, net, injector=injector)
            # Snapshot before close(): draining clears the per-queue state
            # the report's "batching" section reads.
            report = frontend.report()
        finally:
            if injector is not None:
                injector.stop()
            frontend.close()
        summary = summarize_outcomes(records, self.duration_s)
        return {
            "mode": "live",
            "name": self.name,
            "duration_s": self.duration_s,
            **summary,
            "records": records,
            "frontend": report,
        }

    def drive(self, frontend, net, *, injector=None) -> List[Dict[str, object]]:
        """Submit every spec to ``frontend`` at its arrival offset and wait
        (at most two minutes) for all of them to resolve; returns one
        outcome row per request.

        :meth:`replay` is this plus building and closing the frontend; a
        caller that must look at the frontend *after* the drain (e.g. to
        watch a supervisor heal the pool) owns the frontend and calls this.
        An ``injector`` is started at the trace epoch.
        """
        records = [_blank_record(s) for s in self.specs]
        payloads = [payload_for(s, net) for s in self.specs]
        done = threading.Event()
        remaining = [len(self.specs)]
        lock = threading.Lock()

        def _finish(index: int, submit_t: float, future) -> None:
            now = time.monotonic()
            record, spec = records[index], self.specs[index]
            exc = future.exception()
            if exc is None:
                record["latency_s"] = now - submit_t
            record["outcome"] = core.classify_outcome(
                spec.deadline_s, record["latency_s"], exc
            )
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()

        start = time.monotonic()
        if injector is not None:
            # Armed at the trace epoch (after payload pre-generation), so
            # fault offsets land where the plan scripted them.
            injector.start()
        for index, spec in enumerate(self.specs):
            delay = (start + spec.arrival_s) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            submit_t = time.monotonic()
            future = frontend.submit(payloads[index], sla_for(spec), spec=spec)
            future.add_done_callback(
                lambda f, i=index, t=submit_t: _finish(i, t, f)
            )
        if not done.wait(timeout=120.0):
            raise RuntimeError(
                f"replay did not drain: {remaining[0]} requests unresolved"
            )
        return records

    # -- deterministic simulation ----------------------------------------------

    def simulate(
        self,
        model,
        config=None,
        *,
        recorder: Optional[TraceRecorder] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> Dict[str, object]:
        """Replay in virtual time: bit-identical outcomes on every run.

        Each request is decided by :func:`repro.scheduler.core.decide`
        — the live frontend's own code — and executed by an analytical
        model: least-loaded routing, per-(replica, width) micro-batch
        coalescing with ``max_batch`` / ``max_delay_s`` flushes, FIFO
        replica service, with service times that are pure functions of
        (width, rows):

        ``service(w, n) = row_s(w) * (1 + SIM_AMORTIZE * (n - 1))``

        where ``row_s`` preserves the analytical cost *ratios* between
        widths and anchors the narrowest at ``SIM_NARROWEST_ROW_S``.  No
        wall clock is read anywhere, so the per-request outcome stream
        is a pure function of (specs, config, parameters).

        Faults (``fault_plan`` argument, else the replayer's attached
        plan) are modelled analytically: a **crash** makes the replica
        unroutable for ``SIM_RESPAWN_DELAY_S`` virtual seconds (the
        supervisor's detect + respawn + warmup, collapsed to a constant)
        and reroutes its open, un-flushed batches to survivors —
        batches already flushed are treated as completing, the sim's
        stand-in for reply-in-flight survival.  A **stall** adds the
        event's ``delay_s`` to batches starting inside its window;
        **drop** / **heartbeat_delay** are down-windows of the event's
        duration.  ``shm_attach_fail`` has live-only semantics (it
        shapes respawn retries, already a constant here) and is ignored.
        ``config.brownout`` engages in sim too, driven by virtual queue
        depth, so degradation comparisons are CI-deterministic.
        """
        from repro.scheduler.frontend import SchedulerConfig, ServingFrontend

        config = config or SchedulerConfig()
        net = getattr(model, "net", model)
        candidates = ServingFrontend._default_candidates(model, net)
        policy = WidthPolicy(net, candidates)
        # Width cost table: analytical ratios, anchored at the narrowest.
        base = {spec.name: policy.predict(spec.name) for spec in policy.candidates}
        anchor = min(base.values())
        row_s = {name: SIM_NARROWEST_ROW_S * cost / anchor for name, cost in base.items()}
        widest_first = [spec.name for spec in policy.candidates]  # widest → narrowest

        def service_s(width: str, rows: int) -> float:
            return row_s[width] * (1.0 + SIM_AMORTIZE * (rows - 1))

        # The policy the shared decision path consults predicts exactly the
        # table: a first observation *is* the EWMA's value.
        for name in widest_first:
            policy.observe(name, service_s(name, 1))

        sim = _Simulation(
            replicas=config.replicas,
            max_batch=config.max_batch,
            max_delay_s=config.max_delay_s,
            service_s=service_s,
        )

        plan = fault_plan if fault_plan is not None else self.faults
        if plan and recorder is not None:
            recorder.meta.setdefault(FAULTS_META_KEY, plan.to_json())
        fault_queue = deque(plan.events if plan else ())

        def apply_faults_until(t: float) -> None:
            # Interleave scripted faults with flush timers in time order,
            # so the virtual history is a single totally-ordered stream.
            while fault_queue and fault_queue[0].time_s <= t:
                event = fault_queue.popleft()
                sim.advance(event.time_s)
                sim.apply_fault(event)

        # The sim's binding of the decision path: virtual backlog for the
        # signals, virtual time for the brown-out controller's dwell logic
        # (so hysteresis stays deterministic).  The callables read the
        # loop's current arrival time ``t`` and routed ``replica``.
        t, replica = 0.0, 0
        view = core.PlaneView(
            policy=policy,
            admission=(
                AdmissionController(headroom=config.admission_headroom)
                if config.enable_admission
                else None
            ),
            brownout=(
                fault_policy.BrownoutController(config.brownout, clock=lambda: t)
                if config.brownout is not None
                else None
            ),
            depth=lambda: sim.depth(t),
            miss_rate=lambda: None,
            queue_wait=lambda floor_s: sim.queue_wait(replica, t),
        )

        def record_sim(spec, record, events) -> None:
            if recorder is not None:
                recorder.record(
                    RequestRecord(
                        spec=spec,
                        outcome=record["outcome"],
                        width=record["width"],
                        latency_s=record["latency_s"],
                        events=tuple(events),
                    )
                )

        records: List[Dict[str, object]] = []
        for spec in self.specs:
            t = spec.arrival_s
            apply_faults_until(t)
            sim.advance(t)
            replica = sim.least_loaded(t)
            events: List[Dict[str, object]] = [
                {"t_s": t, "kind": EVENT_SUBMIT, "deadline_s": spec.deadline_s}
            ]
            record = _blank_record(spec)
            records.append(record)
            decision = core.decide(sla_for(spec), spec.deadline_s, view)
            if decision.admission is not None:
                events.append(
                    {
                        "t_s": t,
                        "kind": EVENT_ADMISSION,
                        "admitted": decision.admission.admitted,
                        "reason": decision.admission.reason,
                        "estimated_s": decision.admission.estimated_s,
                    }
                )
            if decision.error is not None:
                if decision.shed:
                    error = type(decision.error).__name__
                    events.append({"t_s": t, "kind": EVENT_FAIL, "error": error})
                record["outcome"] = core.classify_outcome(
                    spec.deadline_s, error=decision.error
                )
                record_sim(spec, record, events)
                continue
            width = record["width"] = decision.width.name
            events.append(
                {
                    "t_s": t,
                    "kind": EVENT_WIDTH,
                    "width": width,
                    "predicted_s": decision.predicted_s,
                    "budget_s": decision.budget_s,
                }
            )
            events.append(
                {
                    "t_s": t,
                    "kind": EVENT_ENQUEUE,
                    "replica": replica,
                    "width": width,
                }
            )
            sim.enqueue(replica, width, t, record, events, spec)
        apply_faults_until(float("inf"))
        sim.drain()
        for completed in sim.completed:
            record_sim(*completed)
        summary = summarize_outcomes(records, self.duration_s)
        return {
            "mode": "sim",
            "name": self.name,
            "duration_s": self.duration_s,
            "params": {
                "narrowest_row_s": SIM_NARROWEST_ROW_S,
                "amortize": SIM_AMORTIZE,
                "replicas": config.replicas,
                "max_batch": config.max_batch,
                "max_delay_s": config.max_delay_s,
                "widths": widest_first,
                "faults": plan.to_json() if plan else None,
                "respawn_delay_s": SIM_RESPAWN_DELAY_S if plan else None,
                "brownout": view.brownout is not None,
            },
            # Flushed-batch shape: {rows: count}, int keys (a virtual-time
            # stand-in for the live plane's BatchingStats.recent_batch_sizes).
            "batches": {
                "count": sim.batches,
                "rows": dict(
                    sorted(Counter(sim.batch_rows).items())
                ),
            },
            **summary,
            "records": records,
        }

def _rows(members) -> int:
    """Payload rows across a batch's members (a spec without a shape is
    the model's default single image)."""
    return sum(spec.shape[0] if spec.shape else 1 for _, _, _, spec in members)


class _Simulation:
    """Virtual-time replica / micro-batch state for :meth:`simulate`.

    Replicas serve batches FIFO (one forward at a time, like a thread
    replica holding the packed-weight store); an open batch per
    (replica, width) flushes when it reaches ``max_batch`` rows or
    ``max_delay_s`` after its first request, and a request that would
    push it *past* ``max_batch`` flushes it and seeds the next one — the
    :class:`~repro.runtime.batching.MicroBatchQueue` contract.  The row
    budget, service time and batch histogram count payload rows;
    ``pending`` and :meth:`depth` count requests, as the live plane does.

    Known gap: the live frontend flushes a request that is alone in the
    whole plane at once; this model still charges it ``max_delay_s``.
    Mirroring the rule here moves every committed ``BENCH_*.json``; the
    clock/executor rebinding (ROADMAP item 3) deletes this class and
    inherits the rule from the live plane instead.
    """

    def __init__(self, *, replicas, max_batch, max_delay_s, service_s) -> None:
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.service_s = service_s
        self.free_at = [0.0] * replicas      # replica busy-until (virtual s)
        self.pending = [0] * replicas        # requests enqueued, not yet flushed
        self.down_until = [0.0] * replicas   # unroutable while now < this
        self.stall: Dict[int, Tuple[float, float, float]] = {}  # i → (from, until, delay)
        self.open: Dict[Tuple[int, str], List] = {}  # (replica, width) → members
        # Flush timers: (flush_at, seq, replica, width, generation).
        self.timers: List[Tuple[float, int, int, str, int]] = []
        self.generation: Dict[Tuple[int, str], int] = {}
        self.batches = 0
        self.batch_rows: List[int] = []  # rows of every flushed batch, in order
        self.seq = 0
        self.completed: List[Tuple[RequestSpec, Dict, List[Dict]]] = []
        self.inflight: List[Tuple[float, int]] = []  # heap of (finish_s, requests)

    def least_loaded(self, now: float = 0.0) -> int:
        alive = [i for i in range(len(self.free_at)) if self.down_until[i] <= now]
        if not alive:
            # Whole pool down: route to the first replica back (matches
            # the live plane, where route() blocks on ReplicaUnavailable
            # reroutes until the supervisor restores capacity).
            alive = list(range(len(self.free_at)))
        return min(alive, key=lambda i: (self.pending[i], self.free_at[i], i))

    def depth(self, now: float) -> int:
        """Requests enqueued or executing at virtual ``now`` — the live
        plane's ``sum(replica.pending)`` analog (pending there is held
        until a request *finishes*, so open rows alone undercount)."""
        while self.inflight and self.inflight[0][0] <= now:
            heapq.heappop(self.inflight)
        return sum(requests for _, requests in self.inflight) + sum(
            len(members) for members in self.open.values()
        )

    def queue_wait(self, replica: int, now: float) -> float:
        """Backlog ahead of a new arrival on ``replica``: residual busy
        time plus the open rows it would queue behind."""
        wait = max(self.free_at[replica] - now, 0.0)
        for (r, width), members in self.open.items():
            if r == replica and members:
                wait += self.service_s(width, _rows(members))
        return wait

    def enqueue(self, replica, width, now, record, events, spec) -> None:
        key = (replica, width)
        member = (now, record, events, spec)
        if _rows(self.open.get(key, ())) + _rows((member,)) > self.max_batch:
            # Row budget: the open batch goes as it is and this request is
            # carried over to seed the next (a lone oversized request
            # finds nothing open and flushes on its own below).
            self._flush(key, now)
        members = self.open.setdefault(key, [])
        if not members:
            # First request opens the batch and starts its max_delay timer.
            self.seq += 1
            gen = self.generation.get(key, 0)
            heapq.heappush(
                self.timers,
                (now + self.max_delay_s, self.seq, replica, width, gen),
            )
        members.append(member)
        self.pending[replica] += 1
        if _rows(members) >= self.max_batch:
            self._flush(key, now)

    def advance(self, now: float) -> None:
        """Fire every flush timer due at or before virtual ``now``."""
        while self.timers and self.timers[0][0] <= now:
            flush_at, _, replica, width, gen = heapq.heappop(self.timers)
            key = (replica, width)
            if self.generation.get(key, 0) != gen or not self.open.get(key):
                continue  # batch already flushed (size trigger) or empty
            self._flush(key, flush_at)

    def drain(self) -> None:
        while self.timers:
            self.advance(self.timers[0][0])

    # -- faults (virtual) ------------------------------------------------------

    def apply_fault(self, event) -> None:
        """Fold one scripted fault into the virtual state (see simulate)."""
        try:
            index = target_index(event.target)
        except ValueError:
            return  # device-plane target: not a serving replica
        if not 0 <= index < len(self.free_at):
            return
        if event.kind == CRASH:
            self._down(index, event.time_s, event.time_s + SIM_RESPAWN_DELAY_S)
        elif event.kind in (DROP, HEARTBEAT_DELAY):
            # A reply blackout and a heartbeat blackout both read as "this
            # replica serves nothing for the window" from virtual time.
            self._down(index, event.time_s, event.time_s + event.duration_s)
        elif event.kind == STALL:
            self.stall[index] = (
                event.time_s, event.time_s + event.duration_s, event.delay_s
            )
        elif event.kind == RECOVER:
            self.down_until[index] = event.time_s
        # SHM_ATTACH_FAIL shapes live respawn retries only — the respawn
        # here is already an analytic constant.

    def _down(self, index: int, now: float, until: float) -> None:
        self.down_until[index] = max(self.down_until[index], until)
        # Open (un-flushed) batches reroute to survivors, as the live
        # plane's ReplicaUnavailable path would; batches already flushed
        # are modelled as completing (reply-in-flight survival).
        moved = []
        for key in [k for k in self.open if k[0] == index]:
            members = self.open.pop(key)
            self.generation[key] = self.generation.get(key, 0) + 1
            self.pending[index] -= len(members)
            moved.extend((key[1], member) for member in members)
        for width, (arrival, record, events, spec) in moved:
            target = self.least_loaded(now)
            events.append(
                {
                    "t_s": now,
                    "kind": EVENT_REROUTE,
                    "dead_replica": index,
                    "replica": target,
                    "width": width,
                }
            )
            self.enqueue(target, width, now, record, events, spec)

    def _flush(self, key: Tuple[int, str], now: float) -> None:
        replica, width = key
        members = self.open.pop(key, [])
        if not members:
            return
        self.generation[key] = self.generation.get(key, 0) + 1
        rows = _rows(members)
        batch_id = self.batches
        self.batches += 1
        self.batch_rows.append(rows)
        start = max(now, self.free_at[replica])
        service = self.service_s(width, rows)
        stall = self.stall.get(replica)
        if stall is not None and stall[0] <= start < stall[1]:
            service += stall[2]
        finish = start + service
        self.free_at[replica] = finish
        self.pending[replica] -= len(members)
        heapq.heappush(self.inflight, (finish, len(members)))
        for arrival, record, events, spec in members:
            events.append(
                {
                    "t_s": now,
                    "kind": EVENT_BATCH,
                    "batch": batch_id,
                    "rows": rows,
                    "replica": replica,
                    "width": width,
                }
            )
            # Latency runs from the *original* arrival (spec time), not the
            # enqueue time — a rerouted member's clock never resets.
            latency = finish - spec.arrival_s
            record["latency_s"] = latency
            record["outcome"] = core.classify_outcome(spec.deadline_s, latency)
            events.append(
                {"t_s": finish, "kind": EVENT_RESOLVE, "outcome": record["outcome"]}
            )
            self.completed.append((spec, record, events))
