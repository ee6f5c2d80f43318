"""Process-pool replicas: parity, fault injection, telemetry, cleanup."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.engine.endpoints import EndpointError, EndpointUnavailable, TransportEndpoint
from repro.engine.session import InferenceSession
from repro.models.zoo import build_model
from repro.nn.plan import InferencePlan, compile_width_plans
from repro.nn.shm import (
    RING_SEGMENT_TAG,
    ShmRing,
    _unlink_quietly,
    create_segment,
    list_segments,
    unlink_created_segments,
)
from repro.scheduler import pool as pool_module, procpool
from repro.scheduler.admission import SLA
from repro.scheduler.frontend import SchedulerConfig, ServingFrontend
from repro.scheduler.pool import Replica, ReplicaPool, ReplicaUnavailable
from repro.scheduler.procpool import (
    ProcessReplica,
    make_process_replicas,
    partition_thread_budget,
    pin_blas_threads,
)
from repro.scheduler.telemetry import MetricsRegistry
from repro.scheduler.width_policy import ServiceModel
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def one_batch(rows=3, seed=1):
    return make_rng(seed).standard_normal((rows, 1, 28, 28))


@pytest.fixture
def plans(model):
    """What a process-backend frontend hands its workers: compiled, no arena."""
    widths = [s.name for s in model.width_spec.lower_family()]
    return compile_width_plans(model, widths, batch_rows=8, workspaces=0)


@pytest.fixture
def replica(model, plans):
    replicas = make_process_replicas(model, 1, plans=plans)
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

    def test_oversized_batch_falls_back_to_inline_arrays(self, model, plans, monkeypatch):
        # A ring too small for the batch forces the inline-arrays path.
        monkeypatch.setattr(procpool, "RING_BYTES", 1024)
        replicas = make_process_replicas(model, 1, plans=plans)
        try:
            x = one_batch(4, seed=4)
            out = replicas[0].run(x, "lower25")
            assert np.array_equal(out, InferenceSession(model, "lower25").run(x))
        finally:
            replicas[0].close()

    @pytest.mark.parametrize(
        "bad",
        [
            # The reply ring next door: the last batch's logits as input.
            {"ring_offset": procpool.RING_BYTES},
            {"ring_offset": -8},
            {"rows": 10**6},  # past the ring, into the rest of the segment
            {"rows": -1},
            {"row_shape": [1, 2**40, 2**40]},
        ],
        ids=lambda bad: "-".join(bad),
    )
    def test_hostile_ring_descriptor_is_refused_and_the_worker_keeps_serving(
        self, model, replica, bad
    ):
        x = one_batch()
        want = InferenceSession(model, "lower50").run(x)
        assert np.array_equal(replica.run(x, "lower50"), want)
        fields = {"ring_offset": 0, "rows": 3, "row_shape": [1, 28, 28], "dtype": "float64"}
        fields.update(bad)
        with pytest.raises(EndpointUnavailable, match="outside the ring"):
            replica._endpoint.run_parts("lower50", fields)
        assert replica.ping()
        assert np.array_equal(replica.run(x, "lower50"), want)

    def test_error_reply_fails_the_batch_as_a_thread_replica_does(self, model, replica):
        """A live worker's ERROR reply is the batch's error, not a lost
        replica: the same exception a thread replica raises, and the worker
        stays routable."""
        x = one_batch()
        with pytest.raises(KeyError, match="no sub-network named 'nope'"):
            Replica(0, model).run_parts([x], "nope")
        with pytest.raises(KeyError, match="no sub-network named 'nope'"):
            replica.run_parts([x], "nope")
        assert replica.alive and replica.ping()
        assert np.array_equal(replica.run(x, "lower50"), InferenceSession(model, "lower50").run(x))

    @pytest.mark.parametrize(
        "name,detail,kind,text",
        [
            ("ValueError", "bad rows", ValueError, "bad rows"),
            ("KeyError", "no sub-network named 'x'", KeyError, "no sub-network named 'x'"),
            ("ShmError", "placement outside the ring", RuntimeError,
             "ShmError: placement outside the ring"),
            ("UnicodeDecodeError", "'utf-8' codec can't decode byte 0xff", RuntimeError,
             "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
            (None, None, RuntimeError, "unsupported message kind"),
        ],
        ids=["builtin", "key-error", "not-builtin", "needs-more-args", "unnamed"],
    )
    def test_error_reply_names_the_exception_it_raises(self, name, detail, kind, text):
        reason = f"{name}: {detail}" if name else "unsupported message kind 'X'"
        error = EndpointError(f"process-0 error: {reason}", name, detail).peer_exception()
        assert type(error) is kind
        assert text in error.args[0]

    def test_parent_version_bump_triggers_worker_repack(self, model, plans):
        metrics = MetricsRegistry()
        widths = list(plans)
        replicas = make_process_replicas(
            model, 1, plans=plans, widths=widths, metrics=metrics
        )
        # The same request on a parent-side twin: how many blocks it repacks.
        twin = compile_width_plans(model, ["lower50"], batch_rows=8)["lower50"]
        try:
            # The worker's own boot runs are no repacks.
            assert metrics.counter("worker.0.repacks").value == 0
            x = one_batch(seed=5)
            replicas[0].run(x, "lower50")
            twin.run(x)
            assert metrics.counter("worker.0.repacks").value == 0
            param = next(iter(model.net.parameters()))
            param.data *= 1.0 + 1e-9
            param.bump_version()
            out = replicas[0].run(x, "lower50")
            packs = twin.cache.packs
            twin.run(x)
            repacked = twin.cache.packs - packs
            assert repacked == 1  # conv 0's lower50 block
            assert metrics.counter("worker.0.repacks").value == repacked
            assert np.array_equal(out, InferenceSession(model, "lower50").run(x))
        finally:
            replicas[0].close()

    def test_sigkill_is_detected_and_run_raises(self, model, replica):
        replica.run(one_batch(), "lower25")
        os.kill(replica._proc.pid, signal.SIGKILL)
        replica._proc.join(timeout=2.0)
        assert not replica.ping()
        with pytest.raises(ReplicaUnavailable):
            replica.run(one_batch(), "lower25")

    def test_revive_is_refused(self, replica):
        with pytest.raises(RuntimeError):
            replica.revive()

    def test_telemetry_counters_are_worker_labelled(self, model, plans):
        metrics = MetricsRegistry()
        replicas = make_process_replicas(model, 2, plans=plans, metrics=metrics)
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


def mapping_rss_kb(name):
    """Resident KiB of this process's mapping of shm segment ``name``."""
    with open("/proc/self/smaps") as smaps:
        lines = iter(smaps)
        for line in lines:
            if line.rstrip().endswith("/" + name):
                return next(
                    int(field.split()[1]) for field in lines if field.startswith("Rss:")
                )
    raise AssertionError(f"segment {name} is not mapped")


class TestRingSlot:
    def test_concurrent_callers_each_get_their_own_batch(self, model, replica):
        """The reply is copied out of the out-ring before the transport
        lock admits the next exchange: every placement reuses the ring's
        base, so a reader that mapped its reply after releasing the lock
        would return the other caller's logits.  A reader that finds the
        lock free is preempted at the worst moment: it waits until the
        other caller's next exchange has landed its reply.  Holding the
        lock, as it must, a reader never waits."""
        width, batches = "lower25", 200
        session = InferenceSession(model, width)

        def inputs(seed):
            rng = make_rng(seed)
            return [
                [rng.standard_normal((1, 1, 28, 28)) for _ in range(1 + k % 16)]
                for k in range(batches)
            ]

        work = {seed: inputs(seed) for seed in (11, 12)}
        expected = {
            seed: [session.run_parts(parts) for parts in batch_list]
            for seed, batch_list in work.items()
        }
        # Exchanges each caller has completed; a reader stops waiting on a
        # caller that has finished.
        landed, done, cond = {seed: 0 for seed in work}, set(), threading.Condition()
        exchange = replica._endpoint.run_parts

        def counted_exchange(*args, **kwargs):
            try:
                return exchange(*args, **kwargs)
            finally:
                with cond:
                    landed[int(threading.current_thread().name)] += 1
                    cond.notify_all()

        view = replica._out_ring.view

        def preempted_view(*args):
            if not replica._transport_lock.locked():
                (other,) = set(work) - {int(threading.current_thread().name)}
                with cond:
                    seen = landed[other]
                    cond.wait_for(lambda: landed[other] > seen or other in done, timeout=30.0)
            return view(*args)

        replica._endpoint.run_parts = counted_exchange
        replica._out_ring.view = preempted_view
        answers = {seed: [] for seed in work}

        def drive(seed):
            try:
                for parts in work[seed]:
                    answers[seed].append(replica.run_parts(parts, width))
            finally:
                with cond:
                    done.add(seed)
                    cond.notify_all()

        threads = [
            threading.Thread(target=drive, args=(seed,), name=str(seed)) for seed in work
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in work:
            assert len(answers[seed]) == batches
            wrong = [
                k for k, (got, want) in enumerate(zip(answers[seed], expected[seed]))
                if not np.array_equal(got, want)
            ]
            assert wrong == [], f"caller {seed}: batches {wrong[:5]} are not its own"

    def test_ring_mapping_stays_one_batch_resident(self, model, replica):
        parts = [one_batch(1, seed=k) for k in range(16)]
        for _ in range(400):
            replica.run_parts(parts, "lower25")
        # 400 x 100 KB of rows went in; a marching cursor leaves all 16 MiB resident.
        assert mapping_rss_kb(replica._segment.name) < 1024


class TestBoot:
    def test_replicas_are_handed_out_ready(self, model, monkeypatch):
        pongs = []
        pong = TransportEndpoint.pong

        def recording_pong(self, timeout=1.0):
            reply = pong(self, timeout)
            pongs.append((self.name, reply is not None))
            return reply

        monkeypatch.setattr(TransportEndpoint, "pong", recording_pong)
        frontend = ServingFrontend(
            model, SchedulerConfig(replicas=2, replica_backend="process")
        )
        try:
            assert sorted(pongs) == [("worker-0", True), ("worker-1", True)]
            # Listed before they have served anything: the warm-up made no exchange.
            workers = {w["worker"]: w for w in frontend.report()["workers"]}
            assert set(workers) == {0, 1}
            assert all(w["rows"] == 0 and w["batches"] == 0 for w in workers.values())
            assert all(w["repacks"] == 0 for w in workers.values())
        finally:
            frontend.close()

    def test_parent_plans_are_never_checked_out_or_repacked(self, model):
        """The workers serve the frontend's plans through ``fork``; the parent
        never runs them, so no lock inside a plan can be held at a fork."""
        frontend = ServingFrontend(
            model, SchedulerConfig(replicas=2, replica_backend="process")
        )
        try:
            plans = frontend.plans
            assert plans
            packs = {w: p.cache.packs for w, p in plans.items()}
            for i in range(4):
                frontend.submit(one_batch(1, seed=i)).result(timeout=30.0)
            assert all(p.workspaces.created == 0 for p in plans.values())
            assert all(p.workspaces.checkouts == 0 for p in plans.values())
            assert {w: p.cache.packs for w, p in plans.items()} == packs
        finally:
            frontend.close()

    def test_a_worker_grows_one_arena_set_whatever_the_widths(self, model, plans):
        """A forked worker serves one batch at a time, so the plans it
        inherits with no arena set grow exactly one, shared by every width."""
        segment = create_segment(RING_SEGMENT_TAG, 2 * procpool.RING_BYTES)
        try:
            rings = [ShmRing(segment, k * procpool.RING_BYTES, procpool.RING_BYTES) for k in (0, 1)]
            worker = procpool.ProcessWorker(None, model, plans, *rings)
            shared = next(iter(plans.values())).workspaces.shared
            assert shared.created == 0
            for width in list(plans) * 2:  # the boot probes, then served batches
                worker.probe(one_batch(1), width, wire=True)
                worker.probe(one_batch(8), width)
            assert shared.created == 1
            assert all(plan.workspaces.shared is shared for plan in plans.values())
        finally:
            _unlink_quietly(segment.name)  # as ProcessReplica.close does

    def test_every_width_is_primed_without_a_run_parts_exchange(self, model, monkeypatch):
        exchanges = []
        run_parts = TransportEndpoint.run_parts

        def counting_run_parts(self, *args, **kwargs):
            exchanges.append(self.name)
            return run_parts(self, *args, **kwargs)

        monkeypatch.setattr(TransportEndpoint, "run_parts", counting_run_parts)
        frontend = ServingFrontend(
            model, SchedulerConfig(replicas=2, replica_backend="process")
        )
        try:
            assert exchanges == []
            primes = frontend.pool.replicas[0].primes
            fitted = frontend.policy.model
            assert set(primes) == set(fitted.features) and min(primes.values()) > 0
            reference = ServiceModel({w: f for w, f in fitted.features.items()})
            for width in (spec.name for spec in frontend.policy.candidates):
                reference.observe(width, 1, primes[width])
            assert fitted.coef == reference.coef
        finally:
            frontend.close()

    def test_worker_compiles_and_packs_nothing_at_boot(self, model, plans, monkeypatch):
        def no_compiling(*args, **kwargs):
            raise AssertionError("a worker compiled a plan")

        # Forked workers inherit the patch (every compile path ends in it):
        # one that compiled would die booting and fail the readiness wait.
        monkeypatch.setattr(InferencePlan, "compile", no_compiling)
        metrics = MetricsRegistry()
        replicas = make_process_replicas(
            model, 2, plans=plans, widths=list(plans), metrics=metrics
        )
        try:
            # Only replica 0, the one a frontend primes from, times its probes.
            assert set(replicas[0].primes) == set(plans) and replicas[1].primes == {}
            for replica in replicas:
                assert metrics.counter(f"worker.{replica.index}.repacks").value == 0
                assert replica._last_packs == plans["lower25"].cache.packs
        finally:
            for replica in replicas:
                replica.close()

    def test_respawned_workers_report_never_feeds_the_service_model(self, model):
        from repro.faults.supervisor import ReplicaSupervisor

        with ServingFrontend(
            model, SchedulerConfig(replicas=2, replica_backend="process")
        ) as frontend:
            model = frontend.policy.model
            before = model.coef
            dead = frontend.pool.replicas[0]
            dead.kill()
            frontend.pool.report_failure(dead)
            ReplicaSupervisor(frontend, clock=lambda: 0.0).poll()
            fresh = frontend.pool.replicas[0]
            assert fresh is not dead and set(fresh.primes) == set(model.features)
            assert model.coef == before

    def test_worker_killed_while_booting_fails_the_wait_at_once(self, model, monkeypatch):
        rings_before = list_segments("r")
        pool = ReplicaPool(model, 1, backend="process")
        try:
            # Forked workers inherit the patch: each dies on its first line.
            monkeypatch.setattr(
                procpool, "pin_blas_threads", lambda n: os.kill(os.getpid(), signal.SIGKILL)
            )
            for spawn in (
                lambda: make_process_replicas(model, 2),
                lambda: pool.spawn_replica(0),
            ):
                started = time.monotonic()
                with pytest.raises(ReplicaUnavailable):
                    spawn()
                assert time.monotonic() - started < 1.0
        finally:
            pool.close()
        assert list_segments("r") == rings_before

    @pytest.mark.parametrize(
        "fields",
        [{"primes": {"lower25": 0.001}}, {"primes": {"lower25": "fast"}, "packs": 0}],
        ids=["missing-packs", "non-numeric-prime"],
    )
    def test_malformed_pong_closes_the_worker_and_its_ring(self, model, monkeypatch, fields):
        import multiprocessing

        from repro.comm.message import Message, MessageKind

        pool = ReplicaPool(model, 1, backend="process")
        children = {p.pid for p in multiprocessing.active_children()}
        segments = list_segments()
        try:
            monkeypatch.setattr(
                TransportEndpoint,
                "pong",
                lambda self, timeout=1.0: Message(MessageKind.PONG, fields=dict(fields)),
            )
            for spawn in (
                lambda: make_process_replicas(model, 2),
                lambda: pool.spawn_replica(0),
            ):
                with pytest.raises(ReplicaUnavailable, match="did not come up"):
                    spawn()
                assert {p.pid for p in multiprocessing.active_children()} == children
                assert list_segments() == segments
        finally:
            pool.close()


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
        )
        try:
            os.kill(pool.replicas[1]._proc.pid, signal.SIGKILL)
            pool.replicas[1]._proc.join(timeout=5.0)  # dead and reaped: ping says so
            assert pool.check_health() == []  # one miss: not declared yet
            assert pool.check_health() == [pool.replicas[1]]
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
    """The process-backend twin of the thread backend's replica-kill trace."""

    @pytest.fixture(autouse=True)
    def _fast_heartbeat(self, monkeypatch):
        monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL_S", 0.005)

    def _frontend(self, model, **overrides):
        config = SchedulerConfig(
            replicas=2,
            default_sla=SLA(deadline_s=5.0),
            enable_admission=False,
            max_batch=8,
            replica_backend="process",
            **overrides,
        )
        return ServingFrontend(model, config)

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
    def test_close_with_wedged_transport_escalates_and_unlinks(self, model, plans):
        """close() must return within its bound even when the transport
        lock never frees (a worker wedged mid-batch): SIGTERM -> SIGKILL,
        and the ring segment is still unlinked — no /dev/shm leak."""
        rings_before = list_segments("r")
        replicas = make_process_replicas(model, 1, plans=plans)
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

    def test_close_after_sigkill_reaps_and_unlinks(self, model, plans):
        rings_before = list_segments("r")
        replicas = make_process_replicas(model, 1, plans=plans)
        replica = replicas[0]
        pid = replica._proc.pid
        replica.kill()
        replica.close(timeout=1.0)
        with pytest.raises(OSError):
            os.kill(pid, 0)
        assert list_segments("r") == rings_before

    def test_close_is_idempotent(self, model, plans):
        replicas = make_process_replicas(model, 1, plans=plans)
        replica = replicas[0]
        replica.close()
        replica.close()  # second call: early-out, no crash
        assert not replica.ping()


class TestThreadBudget:
    def test_partition_splits_evenly_with_floor_one(self):
        total = len(os.sched_getaffinity(0))
        assert partition_thread_budget(1) == total
        assert partition_thread_budget(2) == max(1, total // 2)
        assert partition_thread_budget(4 * total) == 1

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
