"""Telemetry registry: counters, EWMAs, windowed latency histograms."""

import threading

import pytest

from repro.scheduler.telemetry import (
    EWMA_ALPHA,
    HISTOGRAM_WINDOW,
    Counter,
    EWMA,
    LatencyHistogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_are_lossless(self):
        c = Counter()

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestEWMA:
    def test_none_before_first_observation(self):
        assert EWMA().value is None

    def test_first_observation_sets_value(self):
        e = EWMA()
        e.observe(10.0)
        assert e.value == 10.0
        assert e.count == 1

    def test_registry_ewmas_are_one_per_name_at_the_module_alpha(self):
        reg = MetricsRegistry()
        first = reg.ewma("rate")
        for x in (4.0, 8.0, 2.0):
            reg.ewma("rate").observe(x)
        assert reg.ewma("rate") is first and first.count == 3
        expected = 4.0
        for x in (8.0, 2.0):
            expected += EWMA_ALPHA * (x - expected)
        assert first.value == pytest.approx(expected)

    def test_exponential_update(self):
        e = EWMA()
        e.observe(10.0)
        e.observe(20.0)
        assert e.value == pytest.approx(10.0 + EWMA_ALPHA * 10.0)


class TestLatencyHistogram:
    def test_percentiles_nearest_rank(self):
        h = LatencyHistogram()
        for ms in range(1, 101):  # 1..100 ms
            h.observe(ms / 1000.0)
        assert h.percentile(50) == pytest.approx(0.050)
        assert h.percentile(95) == pytest.approx(0.095)
        assert h.percentile(99) == pytest.approx(0.099)
        assert h.percentile(100) == pytest.approx(0.100)

    def test_empty_percentile_is_none(self):
        # "No observations" must be distinguishable from a true 0.0 latency.
        assert LatencyHistogram().percentile(99) is None

    def test_empty_mean_is_none(self):
        assert LatencyHistogram().mean() is None

    def test_empty_summary_is_count_only(self):
        assert LatencyHistogram().summary() == {"count": 0}

    def test_window_bounds_memory_but_totals_exact(self):
        h = LatencyHistogram()
        n = 2 * HISTOGRAM_WINDOW
        for x in range(n):
            h.observe(float(x))
        assert h.count == n
        assert h.mean() == pytest.approx((n - 1) / 2)
        # Window holds only the last HISTOGRAM_WINDOW samples: the median moved up.
        assert h.percentile(50) >= HISTOGRAM_WINDOW

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.observe(0.01)
        summary = h.summary()
        assert set(summary) == {"count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"}
        assert summary["count"] == 1

    def test_rejects_bad_inputs(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.observe(-0.1)
        with pytest.raises(ValueError):
            h.percentile(0)

    def test_empty_percentile_still_validates_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)


class TestTimer:
    def test_observes_elapsed_into_histogram(self):
        reg = MetricsRegistry()
        with reg.timer("op_s") as timer:
            pass
        assert timer.elapsed is not None and timer.elapsed >= 0.0
        hist = reg.histogram("op_s")
        assert hist.count == 1
        assert hist.percentile(50) == pytest.approx(timer.elapsed)

    def test_does_not_observe_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.timer("op_s") as timer:
                raise RuntimeError("boom")
        # elapsed is still measured (callers may want it), but a failed
        # operation's duration is not a service-time observation.
        assert timer.elapsed is not None
        assert reg.histogram("op_s").count == 0

    def test_each_call_is_a_fresh_timer(self):
        reg = MetricsRegistry()
        assert reg.timer("op_s") is not reg.timer("op_s")
        with reg.timer("op_s"):
            pass
        with reg.timer("op_s"):
            pass
        assert reg.histogram("op_s").count == 2


class TestMetricsRegistry:
    def test_same_name_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.ewma("e") is reg.ewma("e")

    def test_snapshot_is_json_friendly(self):
        import json

        reg = MetricsRegistry()
        reg.counter("served").inc(3)
        reg.histogram("lat").observe(0.02)
        reg.ewma("rate").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"]["served"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["ewmas"]["rate"]["value"] == 1.5
        json.dumps(snap)  # must not raise
