"""Process-pool replicas: parity, fault injection, telemetry, cleanup."""

import os
import signal
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.engine.session import InferenceSession
from repro.models import build_model
from repro.nn.shm import list_segments, unlink_created_segments
from repro.scheduler.admission import SLA
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.scheduler.pool import ReplicaPool, ReplicaUnavailable, wait_for_ejection
from repro.scheduler.procpool import (
    ProcessReplica,
    make_process_replicas,
    partition_thread_budget,
    pin_blas_threads,
)
from repro.scheduler.telemetry import MetricsRegistry
from repro.utils import make_rng
from repro.utils.config import Config


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def one_batch(rows=3, seed=1):
    return make_rng(seed).standard_normal((rows, 1, 28, 28))


@pytest.fixture
def replica(model):
    replicas = make_process_replicas(model, 1, plan_options={"batch_rows": 8})
    yield replicas[0]
    replicas[0].close()


class TestProcessReplica:
    def test_run_matches_parent_session_bitwise(self, model, replica):
        x = one_batch()
        out = replica.run(x, "lower50")
        assert np.array_equal(out, InferenceSession(model, "lower50").run(x))

    def test_run_parts_matches_parent_session(self, model, replica):
        parts = [one_batch(2, seed=2), one_batch(1, seed=3)]
        out = replica.run_parts(parts, "lower100")
        assert np.array_equal(
            out, InferenceSession(model, "lower100").run_parts(parts)
        )

    def test_oversized_batch_falls_back_to_inline_arrays(self, model):
        # A ring too small for the batch forces the inline-arrays path.
        replicas = make_process_replicas(
            model, 1, plan_options={"batch_rows": 8}, ring_bytes=1024
        )
        try:
            x = one_batch(4, seed=4)
            out = replicas[0].run(x, "lower25")
            assert np.array_equal(out, InferenceSession(model, "lower25").run(x))
        finally:
            replicas[0].close()

    def test_parent_version_bump_triggers_worker_repack(self, model):
        metrics = MetricsRegistry()
        replicas = make_process_replicas(
            model, 1, plan_options={"batch_rows": 8}, metrics=metrics
        )
        try:
            x = one_batch(seed=5)
            replicas[0].run(x, "lower50")
            before = metrics.counter("worker.0.repacks").value
            param = next(iter(model.net.parameters()))
            param.data *= 1.0 + 1e-9
            param.bump_version()
            out = replicas[0].run(x, "lower50")
            assert metrics.counter("worker.0.repacks").value > before
            assert np.array_equal(out, InferenceSession(model, "lower50").run(x))
        finally:
            replicas[0].close()

    def test_sigkill_is_detected_and_run_raises(self, model, replica):
        replica.run(one_batch(), "lower25")
        os.kill(replica._proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 2.0
        while replica.ping() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not replica.ping()
        with pytest.raises(ReplicaUnavailable):
            replica.run(one_batch(), "lower25")

    def test_revive_is_refused(self, replica):
        with pytest.raises(RuntimeError):
            replica.revive()

    def test_telemetry_counters_are_worker_labelled(self, model):
        metrics = MetricsRegistry()
        replicas = make_process_replicas(
            model, 2, plan_options={"batch_rows": 8}, metrics=metrics
        )
        try:
            replicas[0].run(one_batch(3), "lower50")
            replicas[1].run(one_batch(2), "lower50")
            counters = metrics.snapshot()["counters"]
            assert counters["worker.0.rows"] == 3
            assert counters["worker.1.rows"] == 2
            assert counters["worker.0.batches"] == 1
            assert metrics.ewma("worker.0.rows_per_s").value > 0
        finally:
            for r in replicas:
                r.close()


class TestPoolIntegration:
    def test_pool_backend_process_shares_one_weight_segment(self, model):
        weight_before = len(list_segments("w"))
        rings_before = len(list_segments("r"))
        pool = ReplicaPool(model, 2, backend="process")
        try:
            served_by = pool.route()
            out = served_by.run(one_batch(), "lower50")
            served_by.finish()
            assert out.shape == (3, 10)
            assert isinstance(served_by, ProcessReplica)
            # The weight store was created once (or reused): never per worker.
            assert len(list_segments("w")) - weight_before <= 1
            assert len(list_segments("r")) == rings_before + 2  # one ring each
        finally:
            pool.close()
        assert len(list_segments("r")) == rings_before

    def test_pool_rejects_unknown_backend(self, model):
        with pytest.raises(ValueError):
            ReplicaPool(model, 1, backend="fiber")

    def test_heartbeat_ejects_sigkilled_worker(self, model):
        pool = ReplicaPool(
            model,
            2,
            backend="process",
            config=Config({"heartbeat_interval_s": 0.001, "heartbeat_threshold": 2}),
        )
        try:
            os.kill(pool.replicas[1]._proc.pid, signal.SIGKILL)
            ejected = wait_for_ejection(pool, timeout_s=5.0)
            assert [r.index for r in ejected] == [1]
            assert [r.index for r in pool.healthy()] == [0]
        finally:
            pool.close()

    def test_execute_reroutes_around_sigkilled_worker(self, model):
        pool = ReplicaPool(model, 2, backend="process")
        try:
            pool.replicas[0].kill()  # SIGKILL twin of the thread-replica kill
            dead = pool.route()
            assert dead.index == 0
            with pytest.raises(ReplicaUnavailable):
                dead.run(one_batch(), "lower25")
            dead.finish()
            pool.report_failure(dead)
            served_by = pool.route()
            out = served_by.run(one_batch(), "lower25")
            served_by.finish()
            assert out.shape == (3, 10)
            assert served_by.index == 1
        finally:
            pool.close()


class TestFrontendFaults:
    """The process-backend twin of the PR-3 replica-kill trace."""

    def _frontend(self, model, **overrides):
        config = SchedulerConfig(
            replicas=2,
            default_sla=SLA(deadline_s=5.0),
            enable_admission=False,
            max_batch=8,
            replica_backend="process",
            **overrides,
        )
        return ServingFrontend(
            model,
            config,
            heartbeat_config=Config({"heartbeat_interval_s": 0.005}),
        )

    def test_sigkill_mid_burst_loses_zero_requests(self, model):
        frontend = self._frontend(model)
        victim = frontend.pool.replicas[0]
        try:
            futures = []
            for i in range(60):
                futures.append(frontend.submit(one_batch(1, seed=i)))
                if i == 20:
                    os.kill(victim._proc.pid, signal.SIGKILL)
            done, not_done = wait(futures, timeout=60.0)
            assert not not_done, f"{len(not_done)} requests never resolved"
            lost = [f for f in futures if f.exception() is not None]
            assert lost == [], f"lost {len(lost)}: {lost[0].exception()!r}"
            for future in futures:
                assert future.result().shape == (1, 10)
            # The dead worker was ejected through the heartbeat machinery...
            assert frontend.pool.monitors[0].declared_dead
            # ...and the survivor served everything that was in flight.
            report = frontend.report()
            workers = {w["worker"]: w for w in report["workers"]}
            assert not workers[0]["alive"] and workers[1]["alive"]
            assert workers[1]["rows"] > 0
        finally:
            frontend.close()

    def test_report_surfaces_worker_stats(self, model):
        frontend = self._frontend(model)
        try:
            frontend.submit(one_batch(1)).result(timeout=30.0)
            report = frontend.report()
            assert {w["worker"] for w in report["workers"]} == {0, 1}
            for stats in report["workers"]:
                assert set(stats) == {
                    "worker", "alive", "rows", "batches", "repacks", "rows_per_s",
                }
        finally:
            frontend.close()

    def test_frontend_close_unlinks_every_ring(self, model):
        rings_before = list_segments("r")
        frontend = self._frontend(model)
        try:
            frontend.submit(one_batch(1)).result(timeout=30.0)
            assert len(list_segments("r")) == len(rings_before) + 2
        finally:
            frontend.close()
        assert list_segments("r") == rings_before


class TestCloseEscalation:
    def test_close_with_wedged_transport_escalates_and_unlinks(self, model):
        """close() must return within its bound even when the transport
        lock never frees (a worker wedged mid-batch): SIGTERM -> SIGKILL,
        and the ring segment is still unlinked — no /dev/shm leak."""
        rings_before = list_segments("r")
        replicas = make_process_replicas(model, 1, plan_options={"batch_rows": 8})
        replica = replicas[0]
        pid = replica._proc.pid
        assert replica._transport_lock.acquire()  # simulate a stuck batch
        try:
            started = time.monotonic()
            replica.close(timeout=0.3)
            assert time.monotonic() - started < 10.0  # bounded, not hung
        finally:
            replica._transport_lock.release()
        # close() joined: the worker is signalled, dead, and reaped.
        with pytest.raises(OSError):
            os.kill(pid, 0)
        assert list_segments("r") == rings_before

    def test_close_after_sigkill_reaps_and_unlinks(self, model):
        rings_before = list_segments("r")
        replicas = make_process_replicas(model, 1, plan_options={"batch_rows": 8})
        replica = replicas[0]
        pid = replica._proc.pid
        replica.kill()
        replica.close(timeout=1.0)
        with pytest.raises(OSError):
            os.kill(pid, 0)
        assert list_segments("r") == rings_before

    def test_close_is_idempotent(self, model):
        replicas = make_process_replicas(model, 1, plan_options={"batch_rows": 8})
        replica = replicas[0]
        replica.close()
        replica.close()  # second call: early-out, no crash
        assert not replica.ping()


class TestThreadBudget:
    def test_partition_splits_evenly_with_floor_one(self):
        assert partition_thread_budget(2, total=8) == 4
        assert partition_thread_budget(3, total=8) == 2
        assert partition_thread_budget(16, total=8) == 1

    def test_pin_blas_threads_sets_environment(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        pin_blas_threads(2)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        pin_blas_threads(1)  # restore the single-thread default for CI


def test_module_cleanup_leaves_no_rings(model):
    """Regression: the whole module's worker churn leaks zero /dev/shm rings."""
    assert list_segments("r") == []
    unlink_created_segments()
