"""Replica supervisor: respawn, backoff, restart budget, warmup hygiene.

``poll()`` is driven directly with a fake clock so nothing here depends
on the supervision thread's timing; one end-to-end test runs the real
loop against a supervised frontend.
"""

import threading

import pytest

from repro.faults.supervisor import (
    BACKOFF_BASE_S,
    BACKOFF_FACTOR,
    BACKOFF_MAX_S,
    BUDGET_WINDOW_S,
    JITTER,
    RESTART_BUDGET,
    ReplicaSupervisor,
)
from repro.models.zoo import build_model
from repro.scheduler import pool as pool_module
from repro.scheduler.admission import SLA
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.frontend import ServingFrontend
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


@pytest.fixture
def frontend(model):
    with ServingFrontend(model, SchedulerConfig(replicas=2, warmup=False)) as fe:
        yield fe


def one_image(seed=1):
    return make_rng(seed).standard_normal((1, 1, 28, 28))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def eject(frontend, index):
    replica = frontend.pool.replicas[index]
    replica.kill()
    frontend.pool.report_failure(replica)
    assert frontend.pool.monitors[index].declared_dead


class TestRespawn:
    def test_poll_revives_an_ejected_replica(self, frontend):
        sup = ReplicaSupervisor(frontend, clock=FakeClock())
        eject(frontend, 0)
        assert [r.index for r in frontend.pool.healthy()] == [1]
        sup.poll()
        assert [r.index for r in frontend.pool.healthy()] == [0, 1]
        assert frontend.pool.replicas[0].alive
        assert not frontend.pool.monitors[0].declared_dead
        assert frontend.metrics.counter("supervisor.respawns").value == 1
        assert sup.status()["down"] == []

    def test_healthy_pool_is_left_alone(self, frontend):
        sup = ReplicaSupervisor(frontend, clock=FakeClock())
        sup.poll()
        assert frontend.metrics.counter("supervisor.respawns").value == 0

    def test_respawned_replica_serves_again(self, frontend):
        sup = ReplicaSupervisor(frontend, clock=FakeClock())
        eject(frontend, 0)
        sup.poll()
        out = frontend.pool.replicas[0].run(one_image(), "lower25")
        assert out.shape == (1, 10)

    def test_untimed_warmup_never_feeds_the_service_model(self, frontend):
        """A revived replica re-enters routing with the service model
        untouched: a fresh worker's cold forwards must not be observed
        into it."""
        before = frontend.policy.model.coef
        sup = ReplicaSupervisor(frontend, clock=FakeClock())
        eject(frontend, 1)
        sup.poll()
        assert frontend.policy.model.coef == before

    def test_trace_event_emitted_per_respawn(self, model):
        from repro.trace.tracer import EVENT_RESPAWN, Tracer

        tracer = Tracer(sampling=1.0)
        with ServingFrontend(
            model, SchedulerConfig(replicas=2, warmup=False), tracer=tracer
        ) as fe:
            sup = ReplicaSupervisor(fe, clock=FakeClock())
            eject(fe, 0)
            sup.poll()
            events = [e for e in tracer.events() if e.kind == EVENT_RESPAWN]
        assert len(events) == 1 and events[0].data["replica"] == 0


class TestBackoff:
    def test_failed_respawn_backs_off_before_retrying(self, frontend):
        clock = FakeClock()
        sup = ReplicaSupervisor(frontend, clock=clock)
        eject(frontend, 0)
        boom = lambda index: (_ for _ in ()).throw(RuntimeError("attach failed"))  # noqa: E731
        frontend.pool.spawn_replica = boom
        sup.poll()
        assert frontend.metrics.counter("supervisor.respawn_failures").value == 1
        sup.poll()  # clock unchanged: still inside the backoff window
        assert frontend.metrics.counter("supervisor.respawn_failures").value == 1
        clock.now = BACKOFF_BASE_S * (1 + JITTER) + 0.001  # past base backoff: second attempt fires
        sup.poll()
        assert frontend.metrics.counter("supervisor.respawn_failures").value == 2
        del frontend.pool.spawn_replica  # restore the bound method
        clock.now = 5.0
        sup.poll()
        assert frontend.metrics.counter("supervisor.respawns").value == 1
        assert frontend.pool.replicas[0].alive

    def test_backoff_grows_by_its_factor_up_to_its_cap(self, frontend):
        clock = FakeClock()
        sup = ReplicaSupervisor(frontend, clock=clock)
        eject(frontend, 0)
        boom = lambda index: (_ for _ in ()).throw(RuntimeError("attach failed"))  # noqa: E731
        frontend.pool.spawn_replica = boom
        waits = []
        for _ in range(8):
            sup.poll()
            waits.append(sup._slots[0].next_attempt_at - clock.now)
            clock.now = sup._slots[0].next_attempt_at
        del frontend.pool.spawn_replica
        for attempt, wait in enumerate(waits):
            nominal = min(BACKOFF_BASE_S * BACKOFF_FACTOR**attempt, BACKOFF_MAX_S)
            assert nominal * (1 - JITTER) <= wait <= nominal * (1 + JITTER)
        assert waits[-1] <= BACKOFF_MAX_S * (1 + JITTER)

    def test_jitter_is_seed_deterministic(self, frontend):
        a = ReplicaSupervisor(frontend)
        b = ReplicaSupervisor(frontend)
        assert [float(a._rng.random()) for _ in range(4)] == [
            float(b._rng.random()) for _ in range(4)
        ]


class TestRestartBudget:
    def test_flapping_replica_trips_the_circuit_breaker(self, frontend):
        clock = FakeClock()
        sup = ReplicaSupervisor(frontend, clock=clock)
        for death in range(RESTART_BUDGET):  # within budget: respawned
            clock.now = float(death)
            eject(frontend, 0)
            sup.poll()
            assert frontend.pool.replicas[0].alive
        clock.now = float(RESTART_BUDGET)
        eject(frontend, 0)
        sup.poll()  # one death more inside the window: budget exhausted
        assert not frontend.pool.replicas[0].alive
        assert sup.status()["gave_up"] == [0]
        assert frontend.metrics.counter("supervisor.gave_up").value == 1
        clock.now += 1.0
        sup.poll()  # gave-up slots are never retried
        assert not frontend.pool.replicas[0].alive
        assert frontend.metrics.counter("supervisor.respawns").value == RESTART_BUDGET

    def test_deaths_outside_the_window_are_forgiven(self, frontend):
        clock = FakeClock()
        sup = ReplicaSupervisor(frontend, clock=clock)
        for death in range(RESTART_BUDGET):
            clock.now = float(death)
            eject(frontend, 0)
            sup.poll()
        clock.now = BUDGET_WINDOW_S + 1.0  # the first death ages out of the sliding window
        eject(frontend, 0)
        sup.poll()
        assert frontend.pool.replicas[0].alive
        assert sup.status()["gave_up"] == []
        assert frontend.metrics.counter("supervisor.respawns").value == RESTART_BUDGET + 1


class TestLifecycle:
    def test_start_twice_raises_and_close_is_idempotent(self, frontend):
        sup = ReplicaSupervisor(frontend)
        sup.start()
        with pytest.raises(RuntimeError):
            sup.start()
        sup.close()
        sup.close()

    def test_status_shape(self, frontend):
        sup = ReplicaSupervisor(frontend)
        assert set(sup.status()) == {"respawns", "respawn_failures", "gave_up", "down"}


class TestSupervisedFrontend:
    def test_supervised_frontend_heals_and_keeps_serving(self, model, monkeypatch):
        monkeypatch.setattr(pool_module, "HEARTBEAT_INTERVAL_S", 0.005)
        frontend = ServingFrontend(
            model, SchedulerConfig(replicas=2, warmup=False, supervise=True)
        )
        try:
            supervisor = frontend.supervisor
            assert supervisor is not None
            # Signal the end of the pass whose _respawn adopted the new
            # replica: the counter moves after adoption, so waiting on health
            # alone raced the supervisor thread's last few lines.
            healed, poll = threading.Event(), supervisor.poll

            def watched_poll():
                poll()
                if frontend.metrics.counter("supervisor.respawns").value >= 1:
                    healed.set()

            supervisor.poll = watched_poll
            frontend.pool.replicas[0].kill()
            assert healed.wait(timeout=10.0)
            assert frontend.pool.replicas[0].alive
            assert len(frontend.pool.healthy()) == 2
            assert frontend.metrics.counter("supervisor.respawns").value >= 1
            out = frontend.submit(one_image(), SLA(deadline_s=5.0)).result(timeout=10.0)
            assert out.shape == (1, 10)
            report = frontend.report()
            assert report["supervisor"]["respawns"] >= 1
        finally:
            frontend.close()

    def test_unsupervised_frontend_has_no_supervisor(self, frontend):
        assert frontend.supervisor is None
        assert "supervisor" not in frontend.report()
