"""In-memory spans recorded from outside the program.

A :class:`SpanRecorder` patches timing wrappers over public callables
(the way ``repro.faults.injector`` already wraps ``run_parts``) and keeps
one tuple per call: ``(id, name, start, end, parent, rid, tag)``.

* ``parent`` is the id of the span that was open on the same thread when
  this one started, so a layer's **self time** is its duration minus the
  durations of its direct children (children of one parent never overlap:
  they ran one after another on the parent's thread).
* ``rid`` is the request the work belongs to.  On the client thread the
  load generator binds it; where work crosses to another thread the
  wrapper resolves it (``rid_of``) or, with one request in flight, the
  recorder's ``fallback_rid`` names the only candidate.  A micro-batch
  carries the tuple of its members' ids.
* ``tag`` is one number measured at the boundary (e.g. frame bytes).

Nothing here imports ``repro``: the arithmetic is testable on synthetic
spans and a fake clock.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: object   # int, tuple of ints (a micro-batch), or None
    tag: object   # one boundary measurement, or None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrappers it patched in; undoes the patches on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []      # list.append is atomic under the GIL
        self.fallback_rid: object = None  # set by the client when W == 1
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- request binding --------------------------------------------------------

    def bind(self, rid: object) -> None:
        """Name the request the calling thread works for from now on."""
        self._local.rid = rid

    # -- wrapping ---------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        rid_of: Optional[Callable[..., object]] = None,
        tag_of: Optional[Callable[[object], object]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``rid_of(*args, **kwargs)`` resolves the request id from the call's
        arguments and binds it for the call's duration (children inherit
        it); ``tag_of(result)`` measures the result.
        """
        local, spans, clock, ids = self._local, self.spans, self.clock, self._ids

        def traced(*args, **kwargs):
            parent = getattr(local, "open", None)
            sid = next(ids)
            outer_rid = getattr(local, "rid", None)
            if rid_of is not None:
                local.rid = rid_of(*args, **kwargs)
            rid = getattr(local, "rid", None)
            if rid is None:
                rid = self.fallback_rid
            local.open = sid
            tag = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if tag_of is not None:
                    tag = tag_of(result)
                return result
            finally:
                end = clock()
                local.open = parent
                local.rid = outer_rid
                spans.append(Span(sid, name, start, end, parent, rid, tag))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its traced twin until :meth:`unpatch_all`."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **kwargs))
        self._undo.append((owner, attr, had_own, original))

    def unpatch_all(self) -> None:
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the class attribute shows through again

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unpatch_all()


# -- arithmetic on recorded spans ------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def of_requests(spans: Iterable[Span], rids) -> List[Span]:
    """Spans working for one of ``rids`` (a micro-batch counts by its first member)."""
    rids = set(rids)
    return [
        s for s in spans
        if (s.rid[0] if isinstance(s.rid, tuple) else s.rid) in rids
    ]


def by_name(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    groups: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    return groups


def sum_by_rid(spans: Iterable[Span], value_of: Callable[[Span], float]) -> Dict[object, float]:
    """Total of ``value_of(span)`` per request (or per micro-batch) id."""
    totals: Dict[object, float] = defaultdict(float)
    for s in spans:
        if s.rid is not None:
            totals[s.rid] += value_of(s)
    return totals


def write_jsonl(spans: Iterable[Span], path) -> int:
    """One JSON object per span; returns how many were written."""
    count = 0
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
            count += 1
    return count
