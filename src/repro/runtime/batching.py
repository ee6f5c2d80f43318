"""Dynamic micro-batching request queue.

Serving traffic arrives as many small requests; the numpy compute core is
far more efficient on one large GEMM than on many tiny ones.  A
:class:`MicroBatchQueue` sits between the two: callers :meth:`submit`
individual input arrays and get a :class:`concurrent.futures.Future` back;
a single collector thread accumulates requests until either the batch-size
budget (``max_batch`` rows) or the deadline budget (``max_delay_s`` after
the first queued request) is exhausted, runs **one** batched forward via
the supplied ``run_batch_parts`` callable, and scatters the result rows
back to the per-request futures in submission order.

One rule sits in front of the two budgets: a request its submitter knows
to be *alone* (``submit(..., alone=True)`` — nothing else it could be
batched with is on its way) that also finds the queue empty is flushed at
once, as a batch of its own.  The timer exists to collect batch-mates;
holding a request for mates that cannot exist only adds ``max_delay_s`` to
its latency.  A caller that passes no such evidence gets the two budgets
and nothing else.

``run_batch_parts`` receives the per-request arrays unconcatenated, in
submission order: the serving frontend hands them to an
:class:`~repro.engine.session.InferenceSession`'s :meth:`run_parts`, whose
compiled plan scatters them straight into its input arena.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

_SHUTDOWN = object()

# One queued request: payload, future, caller tag, submitted-alone evidence.
_Item = Tuple[np.ndarray, Future, object, bool]


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired before it could be served.

    Raised through the request future — either immediately at submit time
    (fail-fast: an already-expired request must not occupy batch-row
    budget) or by the SLA-aware scheduler when it rejects an infeasible
    request at admission.
    """


@dataclass(frozen=True)
class BatchingConfig:
    """Budgets for one micro-batching queue."""

    max_batch: int = 32       # flush when this many *rows* are pending
    # flush this long after the first pending request (one submitted
    # ``alone`` into an empty queue does not wait at all)
    max_delay_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")


#: How many recent per-batch row counts BatchingStats retains (the totals
#: are exact; only the per-batch trace is windowed, so a long-lived serving
#: queue does not grow without bound).
RECENT_BATCH_WINDOW = 256


@dataclass
class BatchingStats:
    """Counters describing how the queue flushed.

    Mutated only by the owning queue (collector thread, plus the submit
    path for ``expired_rejects``) under ``lock``; concurrent readers must
    use :meth:`snapshot` rather than iterating ``recent_batch_sizes``
    directly, which the flush path appends to.
    """

    requests: int = 0
    batches: int = 0
    rows: int = 0
    # Why each batch flushed; the three always sum to ``batches``.
    full_flushes: int = 0      # max_batch rows were pending
    deadline_flushes: int = 0  # max_delay_s expired (or close() cut the wait short)
    lone_flushes: int = 0      # submitted alone into an empty queue: no wait
    expired_rejects: int = 0   # requests failed fast: deadline already past at submit
    recent_batch_sizes: "deque" = field(
        default_factory=lambda: deque(maxlen=RECENT_BATCH_WINDOW)
    )
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def mean_batch_rows(self) -> float:
        return self.rows / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        """A consistent, JSON-friendly copy taken under the stats lock."""
        with self.lock:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "rows": self.rows,
                "full_flushes": self.full_flushes,
                "deadline_flushes": self.deadline_flushes,
                "lone_flushes": self.lone_flushes,
                "expired_rejects": self.expired_rejects,
                "mean_batch_rows": self.mean_batch_rows(),
                "recent_batch_sizes": list(self.recent_batch_sizes),
            }


class MicroBatchQueue:
    """Accumulate requests, run one batched forward, scatter the results."""

    def __init__(
        self,
        run_batch_parts: Callable[[List[np.ndarray]], np.ndarray],
        config: Optional[BatchingConfig] = None,
        *,
        on_batch: Optional[Callable[[List[object], int], None]] = None,
        autostart: bool = True,
    ) -> None:
        self.run_batch_parts = run_batch_parts
        # Called on the collector thread with ([tags...], total_rows)
        # immediately before each batched forward — the hook tracing uses
        # to pair a request (its submit-time ``tag``) with the batch it
        # actually rode.  Tags of dropped (cancelled) requests are absent.
        self.on_batch = on_batch
        self.config = config or BatchingConfig()
        self.stats = BatchingStats()
        # What a queue-wait estimate reads: rows submitted but not yet
        # flushed, and (start instant, rows) of the batch running now.
        self.open_rows = 0
        self.running: Optional[Tuple[float, int]] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._submit_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._collector, name="micro-batcher", daemon=True
        )
        self._started = False
        if autostart:
            self.start()

    def start(self) -> None:
        """Start the collector (no-op if already running).

        ``autostart=False`` + submit-then-start gives tests deterministic
        batch composition.
        """
        if not self._started:
            self._started = True
            self._thread.start()

    # -- client side -----------------------------------------------------------

    def submit(
        self,
        x: np.ndarray,
        *,
        deadline: Optional[float] = None,
        tag: object = None,
        alone: bool = False,
    ) -> "Future[np.ndarray]":
        """Enqueue one request (rows = ``x.shape[0]``); returns its future.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp.  A
        request whose deadline has already passed at submit time resolves
        its future with :class:`DeadlineExceeded` immediately and never
        enters the queue — an expired request must not occupy batch-row
        budget that live requests could use.

        ``tag`` is an opaque caller handle carried alongside the request
        and handed back through the ``on_batch`` hook with the batch it
        flushed in.

        ``alone`` is the submitter's evidence that no other request that
        could share this one's batch exists right now (the serving frontend
        passes "nothing else is routed and unresolved on any replica").
        If the collector also finds the queue empty behind it, the request
        is flushed at once instead of waiting out ``max_delay_s`` for
        batch-mates nobody can send.  Still non-blocking: the batch runs
        on the collector thread, never on the caller's.
        """
        if x.ndim < 1 or x.shape[0] == 0:
            raise ValueError(f"request must have at least one row, got shape {x.shape}")
        future: "Future[np.ndarray]" = Future()
        if deadline is not None and time.monotonic() >= deadline:
            with self.stats.lock:
                self.stats.expired_rejects += 1
            future.set_exception(
                DeadlineExceeded(f"deadline {deadline:.6f} already passed at submit")
            )
            return future
        # The lock orders the closed-check against close()'s sentinel put, so
        # no request can land behind _SHUTDOWN and silently never resolve.
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("submit on a closed MicroBatchQueue")
            self.open_rows += x.shape[0]
            self._queue.put((x, future, tag, alone))
        return future

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush everything already submitted, then stop the collector."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self.start()  # a never-started queue still drains on close
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "MicroBatchQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- collector side ---------------------------------------------------------

    def _collector(self) -> None:
        carry: Optional[_Item] = None
        while True:
            if carry is not None:
                item, carry = carry, None
            else:
                item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch, saw_shutdown, kind, carry = self._gather(item)
            self._flush(batch, kind)
            # An idle collector must not pin the batch it just served
            # (payloads, futures and their callbacks) until the next one.
            del item, batch
            if saw_shutdown:
                return

    def _gather(
        self, first: _Item
    ) -> Tuple[List[_Item], bool, str, Optional[_Item]]:
        """Collect requests until the row or deadline budget is spent.

        Returns ``(batch, saw_shutdown, kind, carry)`` where ``kind`` names
        what ended collection — ``"full"`` (the row budget), ``"deadline"``
        (the timer, or shutdown) or ``"lone"`` — and is the
        :class:`BatchingStats` counter the flush lands in.  A request that
        would push the batch *past* ``max_batch`` rows is carried over to
        seed the next batch instead of overflowing this one — downstream
        backends (compiled-plan arenas in particular) size themselves to
        exactly ``max_batch`` rows.  Only a single request larger than
        ``max_batch`` on its own ever produces an oversized batch.

        A first request that was submitted alone and has nothing queued
        behind it is not held for the timer: its submitter saw no possible
        batch-mate, and anything that arrived since would be in the queue.
        """
        batch = [first]
        if first[3] and self._queue.empty():
            return batch, False, "lone", None
        rows = first[0].shape[0]
        flush_at = time.monotonic() + self.config.max_delay_s
        while rows < self.config.max_batch:
            remaining = flush_at - time.monotonic()
            if remaining <= 0:
                return batch, False, "deadline", None
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                return batch, False, "deadline", None
            if item is _SHUTDOWN:
                return batch, True, "deadline", None
            if rows + item[0].shape[0] > self.config.max_batch:
                return batch, False, "full", item
            batch.append(item)
            rows += item[0].shape[0]
        return batch, False, "full", None

    def _flush(self, batch: List[_Item], kind: str) -> None:
        # Claim every future before computing: set_running_or_notify_cancel
        # returns False for futures the client already cancelled (dropped
        # here), and afterwards cancel() can no longer succeed — so the
        # set_result/set_exception calls below cannot race a cancellation
        # and kill the collector.
        with self._submit_lock:
            self.open_rows -= sum(x.shape[0] for x, _, _, _ in batch)
        batch = [(x, f, t) for x, f, t, _ in batch if f.set_running_or_notify_cancel()]
        if not batch:
            return
        arrays = [x for x, _, _ in batch]
        futures = [f for _, f, _ in batch]
        rows = [x.shape[0] for x in arrays]
        try:
            # The hook failing must fail this batch's futures, not the
            # collector thread — later submissions still get served.
            if self.on_batch is not None:
                self.on_batch([t for _, _, t in batch], sum(rows))
            self.running = (time.monotonic(), sum(rows))
            out = self.run_batch_parts(arrays)
            if out.shape[0] != sum(rows):
                raise RuntimeError(
                    f"run_batch_parts returned {out.shape[0]} rows for {sum(rows)} inputs"
                )
        except BaseException as exc:  # noqa: BLE001 - delivered via futures
            for future in futures:
                future.set_exception(exc)
            return
        finally:
            self.running = None
        with self.stats.lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.rows += sum(rows)
            self.stats.recent_batch_sizes.append(sum(rows))
            if kind == "full":
                self.stats.full_flushes += 1
            elif kind == "lone":
                self.stats.lone_flushes += 1
            else:
                self.stats.deadline_flushes += 1
        offset = 0
        for future, n in zip(futures, rows):
            future.set_result(out[offset : offset + n])
            offset += n
