"""Closed-loop load generator and the statistics of one measured window.

One thread, a ``Semaphore(W)`` window: acquire -> stamp -> ``submit`` ->
the future's done-callback stamps again and releases.  A request's latency
is its done stamp minus the instant before its ``submit`` — waiting on the
*oldest* future would charge later requests for an earlier one's slowness.
No client threads beyond this one: the box has two cores and the two
replica threads already speak for them.

The generator runs ``warmup_s`` untimed, then ``segments`` segments of
``segment_s``; everything reported is computed from the stamps afterwards,
so the arithmetic is testable with a fake clock.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np


@dataclass
class Window:
    """Stamps of one closed-loop run (warm-up included)."""

    in_flight: int
    rows: int                 # images per request
    start: float              # first instant of segment 0
    segments: int
    segment_s: float
    submitted: np.ndarray     # instant before submit, per request
    done: np.ndarray          # done-callback stamp, per request (0.0 = never)
    edges: List[float] = field(default_factory=list)  # when on_edge actually ran (start, end)

    @property
    def end(self) -> float:
        return self.start + self.segments * self.segment_s

    def measured(self) -> np.ndarray:
        """Indices of requests that completed inside the measured window."""
        return np.flatnonzero((self.done >= self.start) & (self.done < self.end))

    def latencies_s(self) -> np.ndarray:
        k = self.measured()
        return self.done[k] - self.submitted[k]

    def _segment_of(self, k: np.ndarray) -> np.ndarray:
        return ((self.done[k] - self.start) / self.segment_s).astype(int)

    def segment_throughput(self) -> List[float]:
        """Images completed per second, one value per segment."""
        counts = np.bincount(self._segment_of(self.measured()), minlength=self.segments)
        return [float(c) * self.rows / self.segment_s for c in counts]

    def segment_p99_ms(self) -> List[float]:
        """p99 latency (nearest rank) of the requests completing in each segment."""
        k = self.measured()
        segment, latency = self._segment_of(k), self.done[k] - self.submitted[k]
        return [
            percentile(latency[segment == i], 0.99) * 1e3
            for i in range(self.segments) if (segment == i).any()
        ]

    def images_between(self, start: float, end: float) -> int:
        return self.rows * int(((self.done >= start) & (self.done < end)).sum())


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def coefficient_of_variation(values: Sequence[float]) -> float:
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean else 0.0


def run_closed_loop(
    submit: Callable[[object], object],
    payloads: Sequence[object],
    *,
    in_flight: int,
    rows: int,
    segments: int,
    capacity: int,
    segment_s: float = 1.0,
    warmup_s: float = 2.0,
    clock: Callable[[], float] = time.perf_counter,
    on_edge: Optional[Callable[[], None]] = None,
    before_submit: Optional[Callable[[int, object], None]] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    stall_timeout_s: float = 30.0,
) -> Window:
    """Drive ``submit`` with at most ``in_flight`` requests outstanding.

    ``submit(payload)`` returns a ``concurrent.futures.Future``.  Payloads
    are cycled; ``capacity`` is the most requests the run may make.
    ``on_edge`` runs on this thread as the measured window opens and again
    as it closes (resource snapshots); ``before_submit(k,
    payload)`` runs just before the latency stamp of request ``k`` (span
    request binding); ``on_result(k, future)`` runs on the resolving
    thread right after the done stamp, so the caller can keep the answer
    and let the future go.  A window that stops making progress for
    ``stall_timeout_s`` raises ``TimeoutError``.
    """
    gate = threading.Semaphore(in_flight)
    # Stamps go into arrays written (so resident) before the first request:
    # on this VM the first touch of fresh memory can stall for milliseconds,
    # and the harness must not be what stalls a request.  ``np.zeros`` would
    # not do: it hands back untouched zero pages.
    done, submitted = np.full(capacity, 0.0), np.full(capacity, 0.0)

    def on_done(k: int) -> Callable[[object], None]:
        def stamp(future) -> None:
            done[k] = clock()
            if on_result is not None:
                on_result(k, future)
            gate.release()
        return stamp

    k = 0
    n_payloads = len(payloads)
    window = Window(
        in_flight=in_flight, rows=rows, start=clock() + warmup_s,
        segments=segments, segment_s=segment_s, submitted=submitted, done=done,
    )
    while True:
        if not gate.acquire(timeout=stall_timeout_s):
            raise TimeoutError(f"no request completed for {stall_timeout_s} s")
        now = clock()
        if on_edge is not None and len(window.edges) < 2:
            if now >= (window.end if window.edges else window.start):
                on_edge()
                window.edges.append(clock())
        if now >= window.end:
            gate.release()
            break
        if k == capacity:
            raise OverflowError(f"more than {capacity} requests in one window")
        payload = payloads[k % n_payloads]
        if before_submit is not None:
            before_submit(k, payload)
        submitted[k] = clock()
        submit(payload).add_done_callback(on_done(k))
        k += 1
    for _ in range(in_flight):  # drain: every outstanding request has stamped
        if not gate.acquire(timeout=stall_timeout_s):
            raise TimeoutError("requests still outstanding after the window closed")
    window.submitted, window.done = submitted[:k], done[:k]
    return window
