"""Low-overhead request-lifecycle tracing.

A :class:`Tracer` collects structured :class:`TraceEvent`\\ s describing
what the serving control plane did to each request — submission,
admission verdict, width decision, micro-batch membership, plan or eager
execution, hedges, reroutes, resolution — into a thread-safe bounded
ring buffer.  The frontend decides *once per request* (deterministically,
from the request id) whether the request is traced; untraced requests
pay only a handful of no-op method calls on :data:`NULL_TRACER`, so
tracing can stay compiled into the hot path without a measurable
goodput cost when disabled.

Timestamps are monotonic-clock offsets from the tracer's ``epoch``
(construction time), so event timelines are directly comparable to the
request arrival offsets the recorder writes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Mapping, Optional

from repro.utils.rng import derive_seed

#: Default ring-buffer capacity (events, not requests).
RING_CAPACITY = 65536

# -- event vocabulary ---------------------------------------------------------
#
# One constant per lifecycle stage; the README "Observability" section is
# the human-readable companion to this list.  Event ``data`` payloads are
# small JSON-friendly dicts.

EVENT_SUBMIT = "submit"            # request entered the frontend
EVENT_ADMISSION = "admission"      # admission verdict (admitted/reason)
EVENT_WIDTH = "width"              # chosen width + predicted vs. budget
EVENT_ENQUEUE = "enqueue"          # leg queued on a (replica, width) queue
EVENT_BATCH = "batch"              # micro-batch membership (batch id, rows)
EVENT_EXECUTE = "execute"          # plan or eager execution of the batch
EVENT_HEDGE = "hedge"              # watchdog fired (or suppressed) a hedge
EVENT_HEDGE_WON = "hedge_won"      # the hedge leg resolved the request
EVENT_HEDGE_LOST = "hedge_lost"    # the primary beat its hedge
EVENT_REROUTE = "reroute"          # leg displaced off a dead replica
EVENT_RESOLVE = "resolve"          # future resolved with a result
EVENT_FAIL = "fail"                # future failed (rejection / loss)
EVENT_FAULT = "fault.inject"         # a FaultPlan event fired (kind, target)
EVENT_RESPAWN = "replica.respawn"    # supervisor returned a replica to routing
EVENT_BROWNOUT_ENTER = "brownout.enter"  # overload valve engaged
EVENT_BROWNOUT_EXIT = "brownout.exit"    # overload valve released

EVENT_VOCABULARY = (
    EVENT_SUBMIT,
    EVENT_ADMISSION,
    EVENT_WIDTH,
    EVENT_ENQUEUE,
    EVENT_BATCH,
    EVENT_EXECUTE,
    EVENT_HEDGE,
    EVENT_HEDGE_WON,
    EVENT_HEDGE_LOST,
    EVENT_REROUTE,
    EVENT_RESOLVE,
    EVENT_FAIL,
    EVENT_FAULT,
    EVENT_RESPAWN,
    EVENT_BROWNOUT_ENTER,
    EVENT_BROWNOUT_EXIT,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on one request's (or the control plane's) timeline."""

    request_id: Optional[int]
    t_s: float  # seconds since the tracer's epoch (monotonic clock)
    kind: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"t_s": self.t_s, "kind": self.kind, **dict(self.data)}


class NullTracer:
    """The zero-cost disabled tracer: every operation is a no-op.

    The frontend binds this to untraced requests so call sites never
    branch on "is tracing on" — they always emit, and disabled emission
    costs one attribute load plus an empty method call.
    """

    enabled = False
    epoch = 0.0

    def sample(self, request_id: int) -> bool:
        return False

    def emit(self, request_id: Optional[int], kind: str, **data) -> None:
        pass

    def take(self, request_id: int) -> List[TraceEvent]:
        return []

    def events(self) -> List[TraceEvent]:
        return []

    def stats(self) -> Dict[str, object]:
        return {"enabled": False, "emitted": 0, "dropped": 0, "sampling": 0.0}


#: Shared no-op tracer instance (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe, sampled, ring-buffered event collector.

    ``sampling`` is the fraction of requests traced; the per-request
    decision is *deterministic* in ``(seed, request_id)`` (via
    :func:`~repro.utils.rng.derive_seed`), so replaying a trace under the
    same tracer seed samples exactly the same requests.

    The ring (:data:`RING_CAPACITY` most recent events) answers "what
    happened lately"; a per-request side index supports record assembly
    and is bounded by the number of *in-flight* traced requests because
    the frontend :meth:`take`\\ s a request's events at its terminal state.
    """

    enabled = True

    def __init__(
        self,
        *,
        sampling: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sampling <= 1.0:
            raise ValueError(f"sampling must be in [0, 1], got {sampling}")
        self.sampling = sampling
        self.seed = seed
        self.epoch = time.monotonic()
        self._ring: Deque[TraceEvent] = deque(maxlen=RING_CAPACITY)
        self._by_request: Dict[int, List[TraceEvent]] = {}
        # Recently taken request ids: a hedge/reroute leg straggling past
        # its request's terminal state may still emit — those events stay
        # in the ring but must not re-create per-request index entries
        # nobody will ever take (an unbounded leak on a long-lived server).
        self._closed_order: Deque[int] = deque()
        self._closed: set = set()
        self._lock = threading.Lock()
        self._emitted = 0
        self._dropped = 0

    # -- sampling --------------------------------------------------------------

    def sample(self, request_id: int) -> bool:
        """Deterministic per-request trace decision (stable across replays)."""
        if self.sampling >= 1.0:
            return True
        if self.sampling <= 0.0:
            return False
        draw = derive_seed(self.seed, "sample", request_id) / float(2**63)
        return draw < self.sampling

    # -- emission --------------------------------------------------------------

    def emit(self, request_id: Optional[int], kind: str, **data) -> None:
        event = TraceEvent(request_id, time.monotonic() - self.epoch, kind, data)
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(event)
            self._emitted += 1
            if request_id is not None and request_id not in self._closed:
                self._by_request.setdefault(request_id, []).append(event)

    # -- consumption -----------------------------------------------------------

    def take(self, request_id: int) -> List[TraceEvent]:
        """Remove and return one request's events (record assembly).

        The id joins a bounded recently-closed set; later emits for it go
        to the ring only (see ``_closed`` above).
        """
        with self._lock:
            if request_id not in self._closed:
                if len(self._closed_order) >= 4096:
                    self._closed.discard(self._closed_order.popleft())
                self._closed_order.append(request_id)
                self._closed.add(request_id)
            return self._by_request.pop(request_id, [])

    def events(self) -> List[TraceEvent]:
        """Recent events from the ring."""
        with self._lock:
            return list(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": True,
                "emitted": self._emitted,
                "dropped": self._dropped,
                "sampling": self.sampling,
                "in_flight_requests": len(self._by_request),
            }
