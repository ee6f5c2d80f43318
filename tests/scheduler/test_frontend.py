"""Serving frontend: admission -> width -> pool -> micro-batching, end to end.

Includes the PR acceptance property: a replica killed mid-stream is
absorbed with zero lost requests (every future resolves with a result).
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.runtime.batching import DeadlineExceeded, MicroBatchQueue
from repro.scheduler import pool as pool_module
from repro.scheduler.admission import SLA, AdmissionRejected
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.frontend import ServingFrontend, _Timer
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def one_image(seed=1):
    return make_rng(seed).standard_normal((1, 1, 28, 28))


def make_frontend(model, **overrides):
    defaults = dict(replicas=2, warmup=False)
    defaults.update(overrides)
    return ServingFrontend(model, SchedulerConfig(**defaults))


def hedges(frontend):
    """The timer's pending hedges: weak entry references (the heartbeat
    round shares their heap)."""
    return [a for _, _, a in frontend._timer._heap if isinstance(a, weakref.ref)]


class TestBasicServing:
    def test_roundtrip_single_request(self, model):
        with make_frontend(model) as frontend:
            out = frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            assert out.shape == (1, 10)

    def test_many_requests_all_complete(self, model):
        with make_frontend(model) as frontend:
            futures = [
                frontend.submit(one_image(i), SLA(deadline_s=5.0)) for i in range(40)
            ]
            for future in futures:
                assert future.result(timeout=10.0).shape == (1, 10)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.completed"] == 40

    def test_output_matches_direct_session(self, model):
        """Scheduling must not change the computation, only route/batch it."""
        from repro.engine.session import InferenceSession

        x = one_image(7)
        with make_frontend(model) as frontend:
            # Pin the width so the comparison is like-for-like.
            sla = SLA(deadline_s=5.0, min_width="lower100", max_width="lower100")
            served = frontend.submit(x, sla).result(timeout=10.0)
        direct = InferenceSession(model, "lower100").run(x)
        np.testing.assert_allclose(served, direct, rtol=1e-9, atol=1e-9)

    def test_submit_after_close_raises(self, model):
        frontend = make_frontend(model)
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.submit(one_image(), SLA(deadline_s=1.0))


class TestCompiledPlans:
    def test_frontend_compiles_one_plan_per_candidate(self, model):
        with make_frontend(model) as frontend:
            widths = {spec.name for spec in frontend.policy.candidates}
            assert set(frontend.plans) == widths
            caches = {id(plan.cache) for plan in frontend.plans.values()}
            assert len(caches) == 1  # one shared packed-weight cache
            for plan in frontend.plans.values():
                assert plan.batch_rows == frontend.config.max_batch

    def test_plan_frontend_serves_bitwise_equal_to_eager_frontend(self, model):
        from repro.engine.session import InferenceSession

        x = one_image(11)
        sla = SLA(deadline_s=5.0, min_width="lower50", max_width="lower50")
        with make_frontend(model) as frontend:
            with_plans = frontend.submit(x, sla).result(timeout=10.0)
        eager = InferenceSession(model, "lower50")  # no plan: the eager path
        assert eager.plan is None
        np.testing.assert_array_equal(with_plans, eager.run(x))

    def test_the_width_plans_build_one_arena_set_at_construction(self, model):
        """One pool for every width: the warm-up runs each width in turn in
        the one arena set the frontend built up front."""
        with make_frontend(model, warmup=True) as frontend:
            pools = {id(plan.workspaces.shared) for plan in frontend.plans.values()}
            assert len(pools) == 1
            assert next(iter(frontend.plans.values())).workspaces.shared.created == 1

    def test_width_policy_seeded_from_plan_flops(self, model):
        with make_frontend(model) as frontend:
            flops = {width: plan.flops_per_image() for width, plan in frontend.plans.items()}
            assert frontend.policy.model.features == {
                width: f / max(flops.values()) for width, f in flops.items()
            }


class TestAdmission:
    def test_infeasible_deadline_fails_fast(self, model):
        with make_frontend(model) as frontend:
            # Make every width look slower than the budget.
            for spec in frontend.policy.candidates:
                frontend.policy.observe(spec.name, 10.0)
            future = frontend.submit(one_image(), SLA(deadline_s=0.001))
            with pytest.raises(AdmissionRejected):
                future.result(timeout=5.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.rejected"] == 1
            # Fail-fast means no compute happened for the rejected request.
            assert counters.get("frontend.completed", 0) == 0

    def test_rejection_is_deadline_exceeded(self, model):
        with make_frontend(model) as frontend:
            for spec in frontend.policy.candidates:
                frontend.policy.observe(spec.name, 10.0)
            future = frontend.submit(one_image(), SLA(deadline_s=0.001))
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5.0)

    def test_critical_priority_is_served_anyway(self, model):
        with make_frontend(model) as frontend:
            for spec in frontend.policy.candidates:
                frontend.policy.observe(spec.name, 10.0)
            future = frontend.submit(one_image(), SLA(deadline_s=0.001, priority=1))
            assert future.result(timeout=30.0).shape == (1, 10)

    def test_admission_disabled_serves_everything(self, model):
        """Without admission, even an infeasible-*looking* request is served.

        Predictions say 10s per request vs a 5s deadline (admission would
        reject), but the deadline itself is far enough out that the leg's
        fail-fast check cannot race the dispatch on a slow CI machine.
        """
        with make_frontend(model, enable_admission=False) as frontend:
            for spec in frontend.policy.candidates:
                frontend.policy.observe(spec.name, 10.0)
            future = frontend.submit(one_image(), SLA(deadline_s=5.0))
            assert future.result(timeout=30.0).shape == (1, 10)


class TestQueueWait:
    """Admission's wait is the simulator's: on the replica ``route()`` would
    pick, each running batch's residual plus ``seconds(width, open rows)``
    per open queue, all in the policy's one service model."""

    @staticmethod
    def parked_queue(frontend, replica, width, *row_counts):
        """A never-started queue holding requests of ``row_counts`` rows."""
        queue = MicroBatchQueue(
            lambda parts: np.zeros((sum(len(p) for p in parts), 10)), autostart=False
        )
        for rows in row_counts:
            queue.submit(np.zeros((rows, 1, 28, 28)))
        frontend._queues[(replica, width)] = queue
        return queue

    @staticmethod
    def fit(frontend):
        for name, f in frontend.policy.model.features.items():
            frontend.policy.observe(name, 0.001 + 0.002 * f)
            frontend.policy.observe(name, 0.004 + 0.010 * f, rows=16)

    def test_an_idle_plane_waits_nothing(self, model):
        with make_frontend(model) as frontend:
            self.fit(frontend)
            assert frontend._view.queue_wait() == 0.0
            frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            assert frontend._queues  # served: queues exist, all drained
            assert frontend._view.queue_wait() == 0.0

    def test_open_rows_cost_the_models_seconds_on_the_routed_replica(self, model):
        with make_frontend(model) as frontend:
            self.fit(frontend)
            seconds = frontend.policy.model.seconds
            self.parked_queue(frontend, 0, "lower50", 3, 1)
            self.parked_queue(frontend, 0, "lower100", 5)
            self.parked_queue(frontend, 1, "lower25", 2)
            assert frontend._view.queue_wait() == seconds("lower50", 4) + seconds("lower100", 5)
            frontend.pool.replicas[0].begin()  # replica 1 is now the least loaded
            try:
                assert frontend._view.queue_wait() == seconds("lower25", 2)
            finally:
                frontend.pool.replicas[0].finish()

    def test_a_running_batch_adds_its_residual(self, model):
        with make_frontend(model) as frontend:
            self.fit(frontend)
            seconds = frontend.policy.model.seconds
            queue = self.parked_queue(frontend, 0, "lower75", 2)
            queue.running = (time.monotonic() - 60.0, 16)  # overran its prediction
            assert frontend._view.queue_wait() == seconds("lower75", 2)
            before = time.monotonic()
            queue.running = (before, 16)
            wait = frontend._view.queue_wait()
            elapsed = time.monotonic() - before
            residual = wait - seconds("lower75", 2)
            assert seconds("lower75", 16) - elapsed <= residual <= seconds("lower75", 16)
            queue.running = None


class TestWidthSelection:
    def test_tight_budget_narrows_width(self, model):
        with make_frontend(model) as frontend:
            # Calibrate: 100 ms per widest-width FLOP share, so only the
            # narrowest width (9.6 ms; lower50 29 ms) fits a 20ms budget.
            for name, f in frontend.policy.model.features.items():
                frontend.policy.observe(name, 0.1 * f)
            frontend.submit(one_image(), SLA(deadline_s=0.02)).result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.width.lower25"] == 1

    def test_loose_budget_keeps_widest(self, model):
        with make_frontend(model) as frontend:
            frontend.submit(one_image(), SLA(deadline_s=60.0)).result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.width.lower100"] == 1

    def test_sla_width_bounds_are_respected(self, model):
        with make_frontend(model) as frontend:
            sla = SLA(deadline_s=60.0, max_width="lower50")
            frontend.submit(one_image(), sla).result(timeout=10.0)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.width.lower50"] == 1


class TestMalformedPayload:
    """A payload the served net cannot take fails alone, before admission
    or routing: its batch-mates are answered and nothing reroutes."""

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((1, 28, 28)),                     # no channel axis
            np.zeros((0, 1, 28, 28)),                  # no rows
            np.zeros((1, 3, 28, 28)),                  # wrong channel count
            np.zeros((1, 1, 28, 28), dtype=complex),   # not real
            np.zeros((1, 1, 28, 28), dtype=object),    # not numeric
            np.zeros((1, 1, 28, 28), dtype=bool),      # not a number
            np.zeros((1, 1, 27, 28)),                  # wrong height
            np.zeros((1, 1, 1, 28, 28)),               # one axis too many
            [[0.0] * 28] * 28,                         # not an array
        ],
        ids=["no-channel-axis", "no-rows", "channels", "complex", "object", "bool",
             "height", "five-axes", "list"],
    )
    def test_each_malformed_payload_is_a_value_error(self, model, bad):
        with make_frontend(model, replicas=1) as frontend:
            with pytest.raises(ValueError, match="payload"):
                frontend.submit(bad, SLA(deadline_s=5.0)).result(timeout=10.0)
            assert frontend.metrics.counter("frontend.failures.malformed").value == 1
            assert frontend.pool.replicas[0].pending == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
    def test_any_real_numeric_dtype_is_served(self, model, dtype):
        with make_frontend(model, replicas=1) as frontend:
            x = np.ones((2, 1, 28, 28), dtype=dtype)
            assert frontend.submit(x, SLA(deadline_s=5.0)).result(timeout=10.0).shape == (2, 10)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_bad_payload_fails_alone_and_its_batch_mates_are_answered(self, model, backend):
        with make_frontend(
            model, replicas=1, max_delay_s=0.05, replica_backend=backend
        ) as frontend:
            sla = SLA(deadline_s=30.0)
            good = [frontend.submit(one_image(i), sla) for i in range(4)]
            bad = frontend.submit(np.zeros((1, 28, 28)), sla)
            good += [frontend.submit(one_image(i), sla) for i in range(4, 8)]
            with pytest.raises(ValueError, match="payload"):
                bad.result(timeout=30.0)
            assert all(f.result(timeout=30.0).shape == (1, 10) for f in good)
            alone = frontend.submit(np.zeros((1, 28, 28)), sla)
            with pytest.raises(ValueError, match="payload"):
                alone.result(timeout=30.0)
            assert frontend.metrics.counter("frontend.reroutes").value == 0


class TestFailureAbsorption:
    def test_replica_kill_mid_stream_loses_zero_requests(self, model):
        """The acceptance property: mid-run kill => rerouted, zero lost."""
        with make_frontend(model, replicas=2, max_delay_s=0.005) as frontend:
            futures = []
            for i in range(60):
                futures.append(frontend.submit(one_image(i), SLA(deadline_s=30.0)))
                if i == 20:
                    frontend.pool.replicas[0].kill()
            results = [f.result(timeout=30.0) for f in futures]
            assert len(results) == 60
            assert all(r.shape == (1, 10) for r in results)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.completed"] == 60
            assert counters.get("frontend.failed", 0) == 0
            # The dead replica was ejected through its heartbeat monitor.
            assert frontend.pool.monitors[0].declared_dead
            assert [r.index for r in frontend.pool.healthy()] == [1]

    def test_whole_pool_dead_fails_futures_not_hangs(self, model):
        with make_frontend(model, replicas=2) as frontend:
            for replica in frontend.pool.replicas:
                replica.kill()
                frontend.pool.report_failure(replica)
            future = frontend.submit(one_image(), SLA(deadline_s=1.0))
            with pytest.raises(Exception):
                future.result(timeout=10.0)

    def test_heartbeat_rounds_run_at_the_pool_interval(self, model):
        with make_frontend(model) as frontend:
            assert frontend.pool.heartbeat_interval_s == pool_module.HEARTBEAT_INTERVAL_S
            assert frontend._timer._every_s == pool_module.HEARTBEAT_INTERVAL_S
            # The pool's monitors declare after two misses (live serving: one).
            assert all(m.threshold == 2 for m in frontend.pool.monitors)

    def test_heartbeat_ejects_without_traffic(self, model, monkeypatch):
        monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL_S", 0.005)
        frontend = ServingFrontend(model, SchedulerConfig(replicas=2, warmup=False))
        try:
            # The timer runs check_health every heartbeat: signal the
            # round that leaves replica 1 ejected.
            ejected, check_health = threading.Event(), frontend.pool.check_health

            def watched_check_health():
                newly_dead = check_health()
                if frontend.pool.monitors[1].declared_dead:
                    ejected.set()
                return newly_dead

            frontend.pool.check_health = watched_check_health
            frontend.pool.replicas[1].kill()
            assert ejected.wait(timeout=5.0)
            assert frontend.pool.monitors[1].declared_dead
        finally:
            frontend.close()


class TestLoneRequestNeverWaits:
    """The frontend's one batching rule: a request with nothing else routed
    and unresolved on any replica is flushed at once; one with company takes
    the row budget / ``max_delay_s`` path.

    ``max_delay_s=5.0`` means "the timer never fires" (a result inside a 2 s
    timeout cannot have come from it), and company is made by holding a
    request inside a replica on an ``Event`` — nothing here sleeps."""

    SLA_WIDE = SLA(deadline_s=60.0, min_width="lower100", max_width="lower100")

    @staticmethod
    def _block(replica):
        """Hold every ``run_parts`` on ``replica`` until ``gate`` is set."""
        entered, gate = threading.Event(), threading.Event()
        run_parts = replica.run_parts

        def _held(parts, width):
            entered.set()
            assert gate.wait(timeout=30.0)
            return run_parts(parts, width)

        replica.run_parts = _held
        return entered, gate

    def test_lone_request_resolves_without_the_timer(self, model):
        with make_frontend(model, max_delay_s=5.0) as frontend:
            out = frontend.submit(one_image(), self.SLA_WIDE).result(timeout=2.0)
            assert out.shape == (1, 10)
            (stats,) = frontend.report()["batching"].values()
            assert stats["lone_flushes"] == stats["batches"] == 1
            assert stats["deadline_flushes"] == 0

    def test_requests_with_company_coalesce_to_max_batch(self, model):
        with make_frontend(model, max_batch=2, max_delay_s=5.0) as frontend:
            entered, gate = self._block(frontend.pool.replicas[0])
            try:
                held = frontend.submit(one_image(0), self.SLA_WIDE)  # alone -> replica 0
                assert entered.wait(timeout=10.0)
                # Least-loaded routing with one request held on replica 0:
                # replica 1, replica 0 (tie), replica 1.
                first, queued, second = (
                    frontend.submit(one_image(i), self.SLA_WIDE) for i in (1, 2, 3)
                )
                # Replica 1 was idle, yet its first request waited for the
                # second: one full 2-row batch, not a lone flush and a straggler.
                assert first.result(timeout=2.0).shape == (1, 10)
                assert second.result(timeout=2.0).shape == (1, 10)
                on_one = frontend.report()["batching"]["1:lower100"]
                assert (on_one["batches"], on_one["rows"]) == (1, 2)
                assert (on_one["full_flushes"], on_one["lone_flushes"]) == (1, 0)
            finally:
                gate.set()
            assert held.result(timeout=10.0).shape == (1, 10)
            assert frontend.report()["batching"]["0:lower100"]["lone_flushes"] == 1
        # Behind the held batch and never alone: only close() freed it.
        assert queued.result(timeout=1.0).shape == (1, 10)

    def test_hedge_leg_beside_its_primary_is_not_alone(self, model):
        with make_frontend(model, max_delay_s=5.0, hedge_ratio=1.0) as frontend:
            entered, gate = self._block(frontend.pool.replicas[0])
            try:
                future = frontend.submit(one_image(), SLA(deadline_s=60.0))
                assert entered.wait(timeout=10.0)
                (entry,) = (ref() for ref in hedges(frontend))
                frontend._hedge(entry)  # fire the straggler hedge by hand
                assert frontend.metrics.counter("frontend.hedges").value == 1
                hedge_queue = frontend._queues[(1, "lower75")]
            finally:
                gate.set()
            assert future.result(timeout=10.0).shape == (1, 10)
        # The hedge leg sat out the timer in its queue until close() cut it short.
        stats = hedge_queue.stats
        assert (stats.batches, stats.lone_flushes, stats.deadline_flushes) == (1, 0, 1)

    def test_report_carries_lone_flushes_beside_the_flush_counters(self, model):
        with make_frontend(model) as frontend:
            for i in range(5):
                frontend.submit(one_image(i), SLA(deadline_s=5.0)).result(timeout=10.0)
            for stats in frontend.report()["batching"].values():
                assert {"batches", "rows", "deadline_flushes", "lone_flushes"} <= set(stats)
                assert (
                    stats["full_flushes"] + stats["deadline_flushes"] + stats["lone_flushes"]
                    == stats["batches"]
                )


class TestHedging:
    """The timer's firing *schedule* is wall-clock driven (covered by the
    bench, where hedges fire under real backlog); these tests drive the
    hedge callback directly so CI never depends on thread timing."""

    def _straggler(self, frontend, width="lower100"):
        from repro.scheduler.frontend import _Entry

        entry = _Entry(one_image(0), SLA(deadline_s=5.0), time.monotonic())
        entry.width = width
        entry.primary_replica = 0
        return entry

    def test_hedge_runs_narrower_on_another_replica(self, model):
        with make_frontend(model, hedge_ratio=1.0) as frontend:
            frontend.metrics.counter("frontend.requests").inc(10)  # budget base
            entry = self._straggler(frontend)
            frontend._hedge(entry)
            assert entry.future.result(timeout=10.0).shape == (1, 10)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.hedges"] == 1
            # One width narrower than the straggler, off its replica (0).
            assert (1, "lower75") in frontend._queues

    def test_hedge_is_one_shot_per_request(self, model):
        with make_frontend(model, hedge_ratio=1.0) as frontend:
            frontend.metrics.counter("frontend.requests").inc(10)
            entry = self._straggler(frontend)
            frontend._hedge(entry)
            frontend._hedge(entry)  # second fire: entry.hedged blocks it
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["frontend.hedges"] == 1

    def test_done_requests_are_never_hedged(self, model):
        with make_frontend(model, hedge_ratio=1.0) as frontend:
            frontend.metrics.counter("frontend.requests").inc(10)
            entry = self._straggler(frontend)
            entry.future.set_result(np.zeros((1, 10)))
            frontend._hedge(entry)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters.get("frontend.hedges", 0) == 0

    def test_hedge_budget_suppresses_storms(self, model):
        with make_frontend(model, hedge_ratio=0.0) as frontend:
            frontend.metrics.counter("frontend.requests").inc(100)
            entry = self._straggler(frontend)
            frontend._hedge(entry)
            counters = frontend.metrics.snapshot()["counters"]
            assert counters.get("frontend.hedges", 0) == 0
            assert counters["frontend.hedges_suppressed"] == 1
            assert not entry.future.done()  # primary leg still owns it

    def test_min_width_floor_bounds_the_hedge(self, model):
        with make_frontend(model, hedge_ratio=1.0) as frontend:
            frontend.metrics.counter("frontend.requests").inc(10)
            entry = self._straggler(frontend, width="lower25")
            entry.sla = SLA(deadline_s=5.0, min_width="lower25")
            frontend._hedge(entry)
            assert entry.future.result(timeout=10.0).shape == (1, 10)
            # No narrower candidate exists: the hedge reuses the floor width.
            assert (1, "lower25") in frontend._queues


class TestHedgeWatchdog:
    """arm/close ordering on the timer thread itself (no frontend).

    The heap holds entries weakly, so the stand-in entries are objects the
    test keeps alive (a str cannot be weakly referenced)."""

    class _Stub:
        pass

    def test_fires_in_deadline_order_not_arm_order(self):
        fired = []
        done = __import__("threading").Event()

        def _fire(entry):
            fired.append(entry)
            if len(fired) == 2:
                done.set()

        timer = _Timer(_fire)
        try:
            now = time.monotonic()
            late, early = self._Stub(), self._Stub()
            timer.arm(now + 0.05, late)
            timer.arm(now + 0.01, early)
            assert done.wait(timeout=5.0)
            assert fired == [early, late]
        finally:
            timer.close()

    def test_arm_after_close_never_fires(self):
        fired = []
        timer = _Timer(fired.append)
        timer.close()
        assert not timer._thread.is_alive()  # joined: nothing can fire any more
        timer.arm(time.monotonic() - 1.0, "dropped")  # no-op, no crash
        assert fired == [] and timer._heap == []

    def test_close_with_pending_entries_does_not_fire_them(self):
        fired = []
        timer = _Timer(fired.append)
        pending = self._Stub()
        timer.arm(time.monotonic() + 30.0, pending)
        timer.close()
        assert fired == []
        assert not timer._thread.is_alive()

    def test_close_is_idempotent(self):
        timer = _Timer(lambda entry: None)
        timer.close()
        timer.close()

    def test_heap_stays_proportional_to_what_is_in_flight(self):
        """Only the timer pops, and the hedge instant is 5 s away: without a
        sweep 10 000 answered requests leave 10 000 dead tuples."""
        fired = []
        timer = _Timer(fired.append)
        try:
            at = time.monotonic() + 5.0
            in_flight = [self._Stub() for _ in range(3)]
            for k, stub in enumerate(in_flight):
                timer.arm(at + k, stub)
            for _ in range(10_000):
                timer.arm(at, self._Stub())  # answered (dropped) at once
                assert len(timer._heap) <= 2 * len(in_flight) + 64
            # Live entries keep their hedge instants.
            live = sorted((t, e()) for t, _, e in timer._heap if e() is not None)
            assert live == [(at + k, stub) for k, stub in enumerate(in_flight)]
            assert fired == []
        finally:
            timer.close()

    def test_served_requests_do_not_pile_up_in_the_frontend_heap(self, model):
        with make_frontend(model, replicas=1) as frontend:
            for i in range(300):
                frontend.submit(one_image(i % 4), SLA(deadline_s=10.0)).result(timeout=10.0)
                assert len(hedges(frontend)) <= 2 * 1 + 64

    def test_answered_requests_are_released_before_their_hedge_instant(self, model):
        """Under a 10 s deadline the hedge instant is >= 5 s away; an answered
        request's payload must be free long before the timer pops it."""
        payloads, freed, all_freed = [], [], threading.Event()

        def on_free():
            freed.append(None)
            if len(freed) == 12:
                all_freed.set()

        with make_frontend(model) as frontend:
            futures = []
            for seed in range(12):
                x = one_image(seed)
                payloads.append(weakref.ref(x))
                weakref.finalize(x, on_free)
                futures.append(frontend.submit(x, SLA(deadline_s=10.0)))
                del x
            for future in futures:
                future.result(timeout=10.0)
            # result() returns from set_result(); the collector drops its
            # batch a few bytecodes later — wait for that, not for a timer.
            assert all_freed.wait(timeout=2.0)
            assert [ref() for ref in payloads] == [None] * 12
            refs = hedges(frontend)
            assert len(refs) == 12  # nothing waited for a hedge instant
            assert all(ref() is None for ref in refs)


class TestHedgeWatchdogWakeups:
    """Every admitted request arms the timer; only an arm that moves its
    next instant earlier may wake the thread."""

    class _Stub:
        pass

    def test_later_arms_never_wake_the_timer_and_an_earlier_one_fires_on_time(self):
        fired, done = [], threading.Event()

        def _fire(entry):
            fired.append((time.monotonic(), entry))
            done.set()

        timer = _Timer(_fire)
        cond = timer._cond
        wait, notify = cond.wait, cond.notify
        waits, notifies, waiting = [], [], threading.Event()

        def counting_wait(timeout=None):
            waits.append(timeout)
            waiting.set()
            return wait(timeout)

        def counting_notify(n=1):
            notifies.append(n)
            notify(n)

        cond.wait, cond.notify = counting_wait, counting_notify
        try:
            now = time.monotonic()
            later = [self._Stub() for _ in range(20)]
            for k, stub in enumerate(later):
                timer.arm(now + 60.0 + k, stub)
                if k == 0:  # the heap was empty: one wake, then a wait on this instant
                    assert waiting.wait(timeout=5.0)
            assert len(notifies) == 1
            assert len(waits) <= 2
            early = self._Stub()
            at = time.monotonic() + 0.02
            timer.arm(at, early)
            assert done.wait(timeout=5.0)
            fired_at, entry = fired[0]
            assert entry is early
            assert at <= fired_at < at + 1.0  # its own instant, not the head's
        finally:
            timer.close()


class TestOneTimer:
    """Hedges, heartbeat rounds and retry backoffs share one timer thread."""

    def test_serving_frontend_runs_one_timer_beside_its_collectors(self, model):
        before = set(threading.enumerate())
        frontend = make_frontend(model)
        try:
            frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            started = [t for t in threading.enumerate() if t not in before]
            # One used (replica, width) queue: one collector.
            assert sorted(t.name for t in started) == ["frontend-timer", "micro-batcher"]
        finally:
            frontend.close()
        assert not any(t.is_alive() for t in started)

    def test_close_serves_a_request_waiting_out_its_retry_backoff(self, model, monkeypatch):
        from repro.faults.policy import RetryPolicy

        # No heartbeat round ejects replica 0 before the request routes to it.
        monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL_S", 60.0)
        frontend = ServingFrontend(
            model,
            SchedulerConfig(
                replicas=2,
                warmup=False,
                retry_policy=RetryPolicy(backoff_base_s=60.0, backoff_max_s=60.0),
            ),
        )
        # A retry is counted just before its backoff is armed, so close()
        # starts on either side of the arming: both must serve the request.
        retried, retries = threading.Event(), frontend.metrics.counter("frontend.retries")
        count = retries.inc

        def watched_inc(n=1):
            count(n)
            retried.set()

        retries.inc = watched_inc
        try:
            frontend.pool.replicas[0].kill()
            future = frontend.submit(one_image(), SLA(deadline_s=120.0))
            assert retried.wait(timeout=10.0)  # failed on replica 0, backing off 60 s
            assert not future.done()
        finally:
            frontend.close()
        assert future.done()
        assert future.result().shape == (1, 10)  # served by replica 1, not failed
        counters = frontend.metrics.snapshot()["counters"]
        assert counters["frontend.retries"] == counters["frontend.completed"] == 1
        assert counters.get("frontend.failed", 0) == 0

    def test_drain_runs_backoffs_at_once_and_keeps_the_heartbeat(self):
        beats, ran, beat_after_drain = [], [], threading.Event()

        def heartbeat():
            beats.append(None)
            if ran:
                beat_after_drain.set()

        timer = _Timer(heartbeat=heartbeat, every_s=0.001)
        try:
            timer.call_at(time.monotonic() + 60.0, lambda: ran.append("late"))
            timer.call_at(time.monotonic() + 30.0, lambda: ran.append("early"))
            timer.drain()
            assert ran == ["early", "late"]  # in instant order, on this thread
            timer.call_at(time.monotonic() + 60.0, lambda: ran.append("after"))
            assert ran == ["early", "late", "after"]  # armed while draining: at once
            assert beat_after_drain.wait(timeout=5.0)
        finally:
            timer.close()
        assert not timer._thread.is_alive() and timer._heap == []


class TestCloseReleasesTheFrontend:
    def test_closed_frontend_is_freed_without_the_cycle_collector(self, model):
        """A closed frontend holds its plan arenas; as cyclic garbage it kept
        them until the collector ran (and slowed later builds)."""
        gc.collect()
        gc.disable()
        try:
            frontend = make_frontend(model, warmup=True, supervise=True)
            frontend.submit(one_image(3), SLA(deadline_s=10.0)).result(timeout=10.0)
            ref = weakref.ref(frontend)
            frontend.close()
            del frontend
            assert ref() is None
        finally:
            gc.enable()


class TestCandidateSelection:
    def test_fluid_candidates_are_certified_lowers(self, model):
        with make_frontend(model) as frontend:
            assert {s.name for s in frontend.policy.candidates} == {
                "lower25", "lower50", "lower75", "lower100",
            }

    def test_static_model_never_downgrades_width(self):
        """A family with no standalone-certified subnets serves full width only:
        narrower slices it never trained standalone must not be picked under
        load (they would return garbage)."""
        static = build_model("static", rng=make_rng(0))
        with ServingFrontend(
            static, SchedulerConfig(replicas=1, warmup=False)
        ) as frontend:
            assert [s.name for s in frontend.policy.candidates] == ["lower100"]
            # Even a hopeless budget stays at full width.
            spec, _ = frontend.policy.choose(1e-9)
            assert spec.name == "lower100"

    def test_bare_net_uses_full_lower_family(self, model):
        with ServingFrontend(
            model.net, SchedulerConfig(replicas=1, warmup=False)
        ) as frontend:
            assert len(frontend.policy.candidates) == 4


class TestReport:
    def test_report_shape(self, model):
        with make_frontend(model) as frontend:
            frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            report = frontend.report()
            assert set(report) == {"metrics", "calibration", "replicas", "batching"}
            assert len(report["replicas"]) == 2
            assert len(report["calibration"]["coef"]) == 4

    def test_report_before_any_traffic(self, model):
        """Zero-traffic report: well-formed, no fake-zero latency stats."""
        with make_frontend(model) as frontend:
            report = frontend.report()
            assert set(report) == {"metrics", "calibration", "replicas", "batching"}
            assert report["batching"] == {}  # queues are created lazily
            assert report["metrics"]["counters"] == {}
            for summary in report["metrics"]["histograms"].values():
                # An unobserved histogram must say so, not report p99 == 0.
                assert summary == {"count": 0}
            assert all(r["alive"] for r in report["replicas"])

    def test_report_after_traffic_has_batching_stats(self, model):
        with make_frontend(model) as frontend:
            for i in range(8):
                frontend.submit(one_image(i), SLA(deadline_s=5.0)).result(timeout=10.0)
            report = frontend.report()
            assert report["batching"], "served traffic must surface queue stats"
            for key, stats in report["batching"].items():
                replica, width = key.split(":")
                assert replica.isdigit() and width.startswith("lower")
                assert stats["requests"] >= 1
                assert stats["batches"] >= 1
            total = sum(s["requests"] for s in report["batching"].values())
            assert total == 8
            service = report["metrics"]["histograms"]["frontend.batch_service_s"]
            assert service["count"] >= 1 and service["p99_s"] > 0

    def test_report_after_replica_ejection(self, model):
        with make_frontend(model, max_delay_s=0.005) as frontend:
            futures = []
            for i in range(20):
                futures.append(frontend.submit(one_image(i), SLA(deadline_s=30.0)))
                if i == 5:
                    frontend.pool.replicas[0].kill()
            for f in futures:
                f.result(timeout=30.0)
            report = frontend.report()
            assert [r["alive"] for r in report["replicas"]] == [False, True]
            assert report["metrics"]["counters"]["pool.ejections"] >= 1
            # Queues on the dead replica keep their (pre-death) stats.
            assert any(key.startswith("1:") for key in report["batching"])

    def test_report_includes_trace_stats_when_tracing(self, model):
        from repro.trace.tracer import Tracer

        tracer = Tracer(sampling=1.0)
        with ServingFrontend(
            model, SchedulerConfig(replicas=2, warmup=False), tracer=tracer
        ) as frontend:
            frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            report = frontend.report()
            assert "trace" in report
            assert report["trace"]["emitted"] > 0
            assert report["trace"]["in_flight_requests"] == 0  # taken at resolve

    def test_warmup_primes_every_width(self, model):
        with ServingFrontend(model, SchedulerConfig(replicas=1)) as frontend:
            timed = frontend.metrics.histogram("frontend.warmup_s").count
            assert timed == len(frontend.policy.candidates)
            for spec in frontend.policy.candidates:
                assert frontend.policy.model.seconds(spec.name, 1) > 0


class TestPlanConfig:
    def test_one_plan_per_width(self, model):
        from repro.nn.plan import InferencePlan

        with make_frontend(model, max_batch=8) as frontend:
            for plan in frontend.plans.values():
                assert isinstance(plan, InferencePlan)
                assert plan.batch_rows == 8
            caches = {id(plan.cache) for plan in frontend.plans.values()}
            assert len(caches) == 1
            out = frontend.submit(one_image(21), SLA(deadline_s=5.0)).result(timeout=10.0)
            assert out.shape == (1, 10)

    def test_removed_ladder_rejected(self):
        """The batch-rows ladder is gone: a config that still names it is
        refused, never silently served on one plan per width."""
        removed = "_".join(("rows", "ladder"))
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{removed}'\\]"):
            SchedulerConfig.from_mapping({removed: [1, 4]})
