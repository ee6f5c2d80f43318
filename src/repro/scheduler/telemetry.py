"""Serving telemetry: counters, EWMAs and latency histograms.

The control plane makes every decision from *measured* behaviour: the
width policy calibrates its cost-model predictions against an EWMA of
observed per-width service times, admission reasons about live queue
depth, and the benchmark reports p50/p95/p99 tails.  This module is the
shared, thread-safe registry those components write into.

Everything here is windowed or O(1): a long-lived serving frontend never
grows its telemetry without bound.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

#: How many recent observations a LatencyHistogram retains for percentile
#: queries (totals stay exact; only the sample window is bounded).
HISTOGRAM_WINDOW = 4096

#: Weight of the newest observation in every :class:`EWMA`.
EWMA_ALPHA = 0.3


def nearest_rank(ordered, p: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0 < p <= 100).

    The single definition shared by :class:`LatencyHistogram` and
    :func:`~repro.scheduler.core.summarize_outcomes`, so reported tails
    can never diverge between the two.
    """
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """A thread-safe monotonically increasing counter."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("Counter can only increase")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class EWMA:
    """Exponentially weighted moving average of a scalar observation.

    ``value`` is ``None`` until the first observation, so callers can
    distinguish "never measured" from "measured small" — the width policy
    falls back to its analytical cost model in the former case.
    """

    def __init__(self) -> None:
        self._value: Optional[float] = None
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, x: float) -> None:
        with self._lock:
            if self._value is None:
                self._value = float(x)
            else:
                self._value += EWMA_ALPHA * (float(x) - self._value)
            self._count += 1

    @property
    def value(self) -> Optional[float]:
        with self._lock:
            return self._value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def __repr__(self) -> str:
        return f"EWMA(value={self.value}, n={self.count})"


class LatencyHistogram:
    """Windowed latency sample with percentile queries.

    Observations are kept in a bounded deque (:data:`HISTOGRAM_WINDOW`
    most recent); ``count``/``total`` stay exact over the full lifetime.
    Percentiles use the nearest-rank method over the window, which is
    plenty for serving dashboards and benchmark reports.
    """

    def __init__(self) -> None:
        self._samples: Deque[float] = deque(maxlen=HISTOGRAM_WINDOW)
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._total += seconds
            self._max = max(self._max, seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def mean(self) -> Optional[float]:
        """Lifetime mean, or ``None`` before any observation."""
        with self._lock:
            return self._total / self._count if self._count else None

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the retained window (0 < p <= 100).

        ``None`` when nothing has been observed: an empty histogram has no
        tail, and reporting a fake ``0.0`` would read as "infinitely fast"
        in dashboards and bench records.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return None
            return nearest_rank(sorted(self._samples), p)

    def summary(self) -> Dict[str, float]:
        """Count/mean/tails; the latency keys are omitted entirely when no
        observation has been made (no fake zero tails)."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_s": self.mean(),
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self._max,
        }


class Timer:
    """Context manager timing one block into an observation sink.

    The single clock-reading idiom for the serving stack: enter reads
    :func:`time.perf_counter`, exit computes ``elapsed`` and — on a clean
    exit only — feeds it to the sink.  A block that raises still gets its
    ``elapsed`` set (callers may want it for logging) but is *not*
    observed: a failed operation's duration would poison latency stats.
    """

    __slots__ = ("_observe", "_started", "elapsed")

    def __init__(self, observe: Optional[Callable[[float], None]] = None) -> None:
        self._observe = observe
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._started
        if exc_type is None and self._observe is not None:
            self._observe(self.elapsed)


class MetricsRegistry:
    """Named counters / histograms / EWMAs, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._ewmas: Dict[str, EWMA] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            return self._histograms.setdefault(name, LatencyHistogram())

    def ewma(self, name: str) -> EWMA:
        with self._lock:
            if name not in self._ewmas:
                self._ewmas[name] = EWMA()
            return self._ewmas[name]

    def timer(self, name: str) -> Timer:
        """A :class:`Timer` observing into ``histogram(name)`` on clean exit.

        Usage::

            with metrics.timer("frontend.batch_service_s") as timer:
                result = replica.run_parts(...)
            # timer.elapsed holds the measured seconds
        """
        return Timer(self.histogram(name).observe)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """``{suffix: value}`` for every counter named ``<prefix><suffix>``.

        How the frontend report assembles its failure-cause breakdown
        (``frontend.failures.*``) without hard-coding the cause list.
        """
        with self._lock:
            counters = dict(self._counters)
        return {
            name[len(prefix):]: c.value
            for name, c in sorted(counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly dump of every registered metric."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            ewmas = dict(self._ewmas)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "histograms": {k: h.summary() for k, h in sorted(histograms.items())},
            "ewmas": {
                k: {"value": e.value, "count": e.count} for k, e in sorted(ewmas.items())
            },
        }
