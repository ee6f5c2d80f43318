"""Micro-batching queue unit tests: flush triggers, scatter order, shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.batching import BatchingConfig, BatchingStats, MicroBatchQueue


def concat(run):
    """The queue hands its batch callable the per-request arrays; run the
    whole-batch callable ``run`` on them stacked."""
    return lambda parts: run(np.concatenate(parts, axis=0))


def rows_runner(calls=None):
    """A whole-batch runner that tags each row with 10*row_value and records batches."""

    def _run(batch):
        if calls is not None:
            calls.append(batch.copy())
        return batch * 10.0

    return _run


class TestRunBatchParts:
    def test_parts_are_handed_over_unconcatenated(self):
        """The parts backend sees the raw per-request arrays in submission
        order (a compiled plan scatters them into its arena itself)."""
        seen = []

        def _run_parts(parts):
            seen.append([p.copy() for p in parts])
            return np.concatenate(parts, axis=0) * 10.0

        queue = MicroBatchQueue(
            run_batch_parts=_run_parts,
            config=BatchingConfig(max_batch=4, max_delay_s=5.0),
            autostart=False,
        )
        futures = [queue.submit(np.full((2, 3), float(i))) for i in range(2)]
        queue.start()
        for i, f in enumerate(futures):
            np.testing.assert_array_equal(f.result(timeout=10.0), np.full((2, 3), 10.0 * i))
        queue.close()
        assert len(seen) == 1 and len(seen[0]) == 2
        np.testing.assert_array_equal(seen[0][1], np.full((2, 3), 1.0))
        assert queue.stats.batches == 1 and queue.stats.rows == 4


class TestRowBudgetCarryOver:
    def test_batches_never_exceed_max_batch_rows(self):
        """A request that would overflow the row budget seeds the next batch
        instead — compiled-plan arenas are sized to exactly max_batch rows,
        so an overflowing batch would silently fall back to the eager path."""
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)),
            BatchingConfig(max_batch=4, max_delay_s=0.05),
            autostart=False,
        )
        futures = [queue.submit(np.full((3, 2), float(i))) for i in range(4)]
        queue.start()
        for i, f in enumerate(futures):
            np.testing.assert_array_equal(f.result(timeout=10.0), np.full((3, 2), 10.0 * i))
        queue.close()
        assert [c.shape[0] for c in calls] == [3, 3, 3, 3]  # never 6 rows

    def test_lone_oversized_request_still_served(self):
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=4, max_delay_s=0.01)
        )
        out = queue.submit(np.full((9, 2), 1.0)).result(timeout=10.0)
        np.testing.assert_array_equal(out, np.full((9, 2), 10.0))
        queue.close()


class TestFlushTriggers:
    def test_max_batch_flush(self):
        """Submitting exactly the row budget yields one full flush."""
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)),
            BatchingConfig(max_batch=4, max_delay_s=5.0),
            autostart=False,
        )
        futures = [queue.submit(np.full((1, 2), float(i))) for i in range(4)]
        queue.start()
        results = [f.result(timeout=10.0) for f in futures]
        for i, out in enumerate(results):
            np.testing.assert_array_equal(out, np.full((1, 2), 10.0 * i))
        assert queue.stats.full_flushes == 1
        assert queue.stats.deadline_flushes == 0
        assert queue.stats.batches == 1
        assert list(queue.stats.recent_batch_sizes) == [4]
        assert len(calls) == 1 and calls[0].shape == (4, 2)
        queue.close()

    def test_deadline_flush(self):
        """With a huge row budget, the deadline alone flushes the batch."""
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=1000, max_delay_s=0.05)
        )
        futures = [queue.submit(np.full((1,), float(i))) for i in range(3)]
        results = [f.result(timeout=10.0) for f in futures]
        for i, out in enumerate(results):
            np.testing.assert_array_equal(out, np.full((1,), 10.0 * i))
        assert queue.stats.deadline_flushes >= 1
        assert queue.stats.full_flushes == 0
        queue.close()

    def test_multi_row_requests_count_toward_row_budget(self):
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)),
            BatchingConfig(max_batch=6, max_delay_s=5.0),
            autostart=False,
        )
        futures = [queue.submit(np.full((3, 2), float(i))) for i in range(2)]
        queue.start()
        for f in futures:
            f.result(timeout=10.0)
        assert queue.stats.full_flushes == 1
        assert calls[0].shape == (6, 2)
        queue.close()


class TestLoneFlush:
    """A request submitted ``alone`` into an empty queue never waits.

    ``max_delay_s=5.0`` means "the timer never fires": a result inside the
    2 s timeouts below cannot have come from it."""

    @staticmethod
    def _flush_kinds(stats):
        return (stats.full_flushes, stats.deadline_flushes, stats.lone_flushes)

    def test_alone_into_an_empty_queue_is_flushed_at_once(self):
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)), BatchingConfig(max_batch=4, max_delay_s=5.0)
        )
        out = queue.submit(np.full((1, 2), 3.0), alone=True).result(timeout=2.0)
        np.testing.assert_array_equal(out, np.full((1, 2), 30.0))
        assert [c.shape for c in calls] == [(1, 2)]
        assert queue.stats.batches == 1
        assert self._flush_kinds(queue.stats) == (0, 0, 1)
        assert queue.stats.snapshot()["lone_flushes"] == 1
        queue.close()

    def test_alone_with_company_already_queued_gathers_normally(self):
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)),
            BatchingConfig(max_batch=4, max_delay_s=5.0),
            autostart=False,
        )
        futures = [queue.submit(np.full((1, 2), 0.0), alone=True)]
        futures += [queue.submit(np.full((1, 2), float(i))) for i in range(1, 4)]
        queue.start()
        for i, f in enumerate(futures):
            np.testing.assert_array_equal(f.result(timeout=2.0), np.full((1, 2), 10.0 * i))
        assert [c.shape for c in calls] == [(4, 2)]
        assert self._flush_kinds(queue.stats) == (1, 0, 0)
        queue.close()

    def test_not_alone_waits_for_the_row_budget(self):
        """Without the evidence the first request is held for batch-mates,
        even on an idle running collector: all four ride one batch."""
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)), BatchingConfig(max_batch=4, max_delay_s=5.0)
        )
        futures = [queue.submit(np.full((1, 2), float(i))) for i in range(4)]
        for i, f in enumerate(futures):
            np.testing.assert_array_equal(f.result(timeout=2.0), np.full((1, 2), 10.0 * i))
        assert [c.shape for c in calls] == [(4, 2)]
        assert self._flush_kinds(queue.stats) == (1, 0, 0)
        queue.close()

    def test_cancelled_lone_request_is_dropped(self):
        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)),
            BatchingConfig(max_batch=4, max_delay_s=5.0),
            autostart=False,
        )
        doomed = queue.submit(np.full((1,), 1.0), alone=True)
        assert doomed.cancel()
        queue.start()
        later = queue.submit(np.full((1,), 7.0), alone=True)
        np.testing.assert_array_equal(later.result(timeout=2.0), np.full((1,), 70.0))
        assert len(calls) == 1  # the cancelled request never reached the runner
        assert queue.stats.requests == 1 and queue.stats.batches == 1
        assert self._flush_kinds(queue.stats) == (0, 0, 1)
        queue.close()

    def test_flush_kinds_sum_to_batches(self):
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=2, max_delay_s=5.0)
        )
        queue.submit(np.ones((1,)), alone=True).result(timeout=2.0)   # lone
        for f in [queue.submit(np.ones((1,))) for _ in range(2)]:     # row budget
            f.result(timeout=2.0)
        held = queue.submit(np.ones((1,)))  # has no evidence: only close() frees it
        queue.close(timeout=5.0)
        held.result(timeout=2.0)
        assert self._flush_kinds(queue.stats) == (1, 1, 1)
        assert sum(self._flush_kinds(queue.stats)) == queue.stats.batches == 3


class TestScatterOrder:
    def test_each_future_gets_its_own_rows(self):
        """Results scatter back per request, in submission order, any sizes."""
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=100, max_delay_s=0.2), autostart=False
        )
        sizes = [1, 3, 2, 5, 1]
        futures = []
        for i, n in enumerate(sizes):
            futures.append(queue.submit(np.full((n, 4), float(i))))
        queue.start()
        for i, (n, future) in enumerate(zip(sizes, futures)):
            out = future.result(timeout=10.0)
            assert out.shape == (n, 4)
            np.testing.assert_array_equal(out, np.full((n, 4), 10.0 * i))
        queue.close()

    def test_concurrent_submitters_all_get_correct_rows(self):
        queue = MicroBatchQueue(concat(rows_runner()), BatchingConfig(max_batch=8, max_delay_s=0.01))
        results = {}

        def _submit(i):
            results[i] = queue.submit(np.full((1, 2), float(i))).result(timeout=10.0)

        threads = [threading.Thread(target=_submit, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(16):
            np.testing.assert_array_equal(results[i], np.full((1, 2), 10.0 * i))
        assert queue.stats.requests == 16
        queue.close()


class TestShutdown:
    def test_empty_queue_shutdown(self):
        queue = MicroBatchQueue(concat(rows_runner()), BatchingConfig(max_batch=4, max_delay_s=0.5))
        queue.close(timeout=5.0)
        assert not queue._thread.is_alive()
        assert queue.stats.batches == 0

    def test_close_flushes_pending_requests(self):
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=100, max_delay_s=10.0), autostart=False
        )
        futures = [queue.submit(np.full((1,), float(i))) for i in range(3)]
        queue.close(timeout=5.0)
        for i, f in enumerate(futures):
            np.testing.assert_array_equal(f.result(timeout=1.0), np.full((1,), 10.0 * i))

    def test_submit_after_close_raises(self):
        queue = MicroBatchQueue(concat(rows_runner()))
        queue.close()
        with pytest.raises(RuntimeError):
            queue.submit(np.ones((1,)))

    def test_close_is_idempotent(self):
        queue = MicroBatchQueue(concat(rows_runner()))
        queue.close()
        queue.close()


class TestCancellation:
    def test_cancelled_future_does_not_kill_collector(self):
        """A client cancelling its future must not wedge the queue: the
        cancelled request is dropped, its batch-mates still get results,
        and later submissions keep being served."""
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=3, max_delay_s=0.05), autostart=False
        )
        doomed = queue.submit(np.full((1,), 0.0))
        survivor_a = queue.submit(np.full((1,), 1.0))
        survivor_b = queue.submit(np.full((1,), 2.0))
        assert doomed.cancel()
        queue.start()
        np.testing.assert_array_equal(survivor_a.result(timeout=10.0), np.full((1,), 10.0))
        np.testing.assert_array_equal(survivor_b.result(timeout=10.0), np.full((1,), 20.0))
        later = queue.submit(np.full((1,), 3.0))
        np.testing.assert_array_equal(later.result(timeout=10.0), np.full((1,), 30.0))
        assert queue._thread.is_alive()
        queue.close()

    def test_all_cancelled_batch_is_skipped(self):
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=2, max_delay_s=0.05), autostart=False
        )
        futures = [queue.submit(np.full((1,), float(i))) for i in range(2)]
        for f in futures:
            assert f.cancel()
        queue.start()
        later = queue.submit(np.full((1,), 7.0))
        np.testing.assert_array_equal(later.result(timeout=10.0), np.full((1,), 70.0))
        assert queue.stats.requests == 1  # only the live request counted
        queue.close()


class TestSubmitCloseRace:
    def test_hammered_submit_close_never_strands_a_future(self):
        """Every submit must either raise (queue closed) or resolve."""
        for _ in range(20):
            queue = MicroBatchQueue(
                concat(rows_runner()), BatchingConfig(max_batch=4, max_delay_s=0.001)
            )
            outcomes = []

            def _client():
                try:
                    outcomes.append(queue.submit(np.ones((1,))))
                except RuntimeError:
                    outcomes.append(None)

            threads = [threading.Thread(target=_client) for _ in range(8)]
            for t in threads[:4]:
                t.start()
            closer = threading.Thread(target=queue.close)
            closer.start()
            for t in threads[4:]:
                t.start()
            for t in threads:
                t.join()
            closer.join()
            for future in outcomes:
                if future is not None:
                    # Accepted submissions must resolve, never hang.
                    np.testing.assert_array_equal(
                        future.result(timeout=10.0), np.full((1,), 10.0)
                    )


class TestErrors:
    def test_runner_exception_propagates_to_futures(self):
        def _boom(batch):
            raise ValueError("kaput")

        queue = MicroBatchQueue(concat(_boom), BatchingConfig(max_batch=2, max_delay_s=0.01))
        future = queue.submit(np.ones((1,)))
        with pytest.raises(ValueError, match="kaput"):
            future.result(timeout=10.0)
        queue.close()

    def test_row_count_mismatch_is_reported(self):
        queue = MicroBatchQueue(
            concat(lambda batch: batch[:-1]), BatchingConfig(max_batch=2, max_delay_s=0.01)
        )
        future = queue.submit(np.ones((2, 2)))
        with pytest.raises(RuntimeError, match="rows"):
            future.result(timeout=10.0)
        queue.close()

    def test_empty_request_rejected(self):
        queue = MicroBatchQueue(concat(rows_runner()))
        with pytest.raises(ValueError):
            queue.submit(np.ones((0, 2)))
        queue.close()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BatchingConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchingConfig(max_delay_s=-1.0)


class TestStats:
    def test_mean_batch_rows(self):
        stats = BatchingStats()
        assert stats.mean_batch_rows() == 0.0
        stats.batches, stats.rows = 2, 10
        assert stats.mean_batch_rows() == 5.0

    def test_recent_batch_sizes_window_is_bounded(self):
        from repro.runtime.batching import RECENT_BATCH_WINDOW

        stats = BatchingStats()
        for i in range(RECENT_BATCH_WINDOW + 50):
            stats.recent_batch_sizes.append(i)
        assert len(stats.recent_batch_sizes) == RECENT_BATCH_WINDOW
        assert stats.recent_batch_sizes[-1] == RECENT_BATCH_WINDOW + 49

    def test_snapshot_is_consistent_and_json_friendly(self):
        import json

        stats = BatchingStats()
        with stats.lock:
            stats.requests, stats.batches, stats.rows = 6, 2, 10
            stats.full_flushes, stats.deadline_flushes = 1, 1
            stats.recent_batch_sizes.extend([4, 6])
        snap = stats.snapshot()
        assert snap["requests"] == 6
        assert snap["mean_batch_rows"] == 5.0
        assert snap["recent_batch_sizes"] == [4, 6]
        json.dumps(snap)  # plain data, no deques/locks

    def test_snapshot_under_concurrent_mutation_never_tears(self):
        """Readers snapshotting while writers mutate see internally
        consistent values (rows always == 5 * batches here)."""
        stats = BatchingStats()
        stop = threading.Event()

        def _writer():
            while not stop.is_set():
                with stats.lock:
                    stats.batches += 1
                    stats.rows += 5
                    stats.recent_batch_sizes.append(5)

        writers = [threading.Thread(target=_writer) for _ in range(4)]
        for t in writers:
            t.start()
        try:
            for _ in range(200):
                snap = stats.snapshot()
                assert snap["rows"] == 5 * snap["batches"]
        finally:
            stop.set()
            for t in writers:
                t.join()

    def test_live_queue_snapshot_matches_attributes(self):
        queue = MicroBatchQueue(
            concat(rows_runner()), BatchingConfig(max_batch=2, max_delay_s=5.0)
        )
        futures = [queue.submit(np.full((1,), float(i))) for i in range(4)]
        for f in futures:
            f.result(timeout=10.0)
        queue.close()
        snap = queue.stats.snapshot()
        assert snap["requests"] == 4
        assert snap["batches"] == queue.stats.batches
        assert snap["full_flushes"] == 2


class TestBatchCallbackAndTags:
    def test_on_batch_reports_tags_and_rows_before_results(self):
        """on_batch sees the claimed requests' tags + total rows on the
        collector thread, before the runner executes the batch."""
        seen = []
        order = []

        def _run(batch):
            order.append("run")
            return batch * 10.0

        queue = MicroBatchQueue(
            concat(_run),
            BatchingConfig(max_batch=2, max_delay_s=5.0),
            on_batch=lambda tags, rows: (seen.append((tags, rows)), order.append("on_batch")),
            autostart=False,
        )
        futures = [
            queue.submit(np.full((1,), float(i)), tag=f"req{i}") for i in range(2)
        ]
        queue.start()
        for f in futures:
            f.result(timeout=10.0)
        queue.close()
        assert seen == [(["req0", "req1"], 2)]
        assert order == ["on_batch", "run"]

    def test_tags_default_to_none(self):
        seen = []
        queue = MicroBatchQueue(
            concat(rows_runner()),
            BatchingConfig(max_batch=2, max_delay_s=5.0),
            on_batch=lambda tags, rows: seen.append((tags, rows)),
            autostart=False,
        )
        futures = [queue.submit(np.full((1,), float(i))) for i in range(2)]
        queue.start()
        for f in futures:
            f.result(timeout=10.0)
        queue.close()
        assert seen == [([None, None], 2)]

    def test_on_batch_failure_does_not_wedge_futures(self):
        """A raising on_batch hook must not strand the batch's futures."""

        def _boom(tags, rows):
            raise RuntimeError("hook broke")

        queue = MicroBatchQueue(
            concat(rows_runner()),
            BatchingConfig(max_batch=1, max_delay_s=0.01),
            on_batch=_boom,
        )
        future = queue.submit(np.ones((1,)))
        try:
            with pytest.raises(RuntimeError, match="hook broke"):
                future.result(timeout=10.0)
        finally:
            queue.close()


class TestDeadlineFailFast:
    def test_expired_deadline_resolves_immediately(self):
        """An already-expired request fails fast and never occupies the queue."""
        from repro.runtime.batching import DeadlineExceeded

        calls = []
        queue = MicroBatchQueue(
            concat(rows_runner(calls)),
            BatchingConfig(max_batch=2, max_delay_s=5.0),
            autostart=False,
        )
        expired = queue.submit(
            np.full((1,), 99.0), deadline=time.monotonic() - 0.001
        )
        assert expired.done()  # resolved before the collector even starts
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=1.0)
        assert queue.stats.expired_rejects == 1

        # The expired request did not consume batch-row budget: the next two
        # live requests alone fill the 2-row batch and flush together.
        live = [
            queue.submit(np.full((1,), float(i)), deadline=time.monotonic() + 60.0)
            for i in range(2)
        ]
        queue.start()
        for i, future in enumerate(live):
            np.testing.assert_array_equal(
                future.result(timeout=10.0), np.full((1,), 10.0 * i)
            )
        assert queue.stats.requests == 2
        assert queue.stats.full_flushes == 1
        assert len(calls) == 1 and calls[0].shape == (2,)
        queue.close()

    def test_no_deadline_keeps_legacy_behaviour(self):
        queue = MicroBatchQueue(concat(rows_runner()), BatchingConfig(max_batch=1))
        future = queue.submit(np.ones((1,)))
        np.testing.assert_array_equal(future.result(timeout=10.0), np.full((1,), 10.0))
        assert queue.stats.expired_rejects == 0
        queue.close()

    def test_future_deadline_is_accepted(self):
        queue = MicroBatchQueue(concat(rows_runner()), BatchingConfig(max_batch=1))
        future = queue.submit(np.ones((1,)), deadline=time.monotonic() + 60.0)
        np.testing.assert_array_equal(future.result(timeout=10.0), np.full((1,), 10.0))
        queue.close()
