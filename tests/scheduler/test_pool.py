"""Replica pool: least-loaded routing, heartbeat ejection, rerouting."""

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.runtime.monitor import HeartbeatMonitor
from repro.scheduler.pool import ReplicaPool, ReplicaUnavailable
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


@pytest.fixture
def pool(model):
    return ReplicaPool(model, 3)


def one_image(seed=1):
    return make_rng(seed).standard_normal((1, 1, 28, 28))


def serve(pool, x, width, exclude=()):
    """One synchronous request: the route -> run -> finish a caller owes the pool."""
    replica = pool.route(exclude=exclude)
    try:
        return replica.run(x, width), replica
    finally:
        replica.finish()


class TestRouting:
    def test_route_picks_least_pending(self, pool):
        pool.replicas[0].begin()
        pool.replicas[0].begin()
        pool.replicas[1].begin()
        choice = pool.route()
        assert choice.index == 2  # untouched replica
        choice.finish()

    def test_route_excludes_indices(self, pool):
        choice = pool.route(exclude=(0, 1))
        assert choice.index == 2
        choice.finish()

    def test_route_with_everything_excluded_falls_back_to_healthy(self, pool):
        choice = pool.route(exclude=(0, 1, 2))
        assert choice.index in (0, 1, 2)
        choice.finish()

    def test_route_raises_when_pool_dead(self, pool):
        for replica in pool.replicas:
            replica.kill()
            pool.report_failure(replica)
        with pytest.raises(ReplicaUnavailable):
            pool.route()


class TestServing:
    def test_execute_runs_on_a_replica(self, pool):
        out, replica = serve(pool, one_image(), "lower50")
        assert out.shape == (1, 10)
        assert replica.pending == 0  # released after completion

    def test_sessions_share_weights_zero_copy(self, pool):
        ids = None
        for replica in pool.replicas:
            session = replica.session("lower100")
            current = [id(p.data) for p in session.parameters()]
            assert ids is None or current == ids
            ids = current

    def test_dead_replica_raises(self, model):
        pool = ReplicaPool(model, 1)
        pool.replicas[0].kill()
        with pytest.raises(ReplicaUnavailable):
            pool.replicas[0].run(one_image(), "lower25")

    def test_execute_reroutes_around_dead_replica(self, pool):
        pool.replicas[0].kill()
        # Force routing to consider the dead replica first.
        pool.replicas[1].begin()
        pool.replicas[2].begin()
        dead = pool.route()
        assert dead.index == 0  # routing has not noticed yet
        with pytest.raises(ReplicaUnavailable):
            dead.run(one_image(), "lower25")
        dead.finish()
        pool.report_failure(dead)
        out, replica = serve(pool, one_image(), "lower25", exclude=(0,))
        assert out.shape == (1, 10)
        assert replica.index != 0
        # The failure was reported through the heartbeat state machine.
        assert pool.monitors[0].declared_dead
        assert pool.route().index != 0  # and routing avoids it from now on

    def test_execute_raises_when_all_replicas_dead(self, pool):
        for replica in pool.replicas:
            replica.kill()
        for replica in pool.replicas:  # each attempt fails and is reported ...
            with pytest.raises(ReplicaUnavailable):
                replica.run(one_image(), "lower25")
            pool.report_failure(replica)
        with pytest.raises(ReplicaUnavailable, match="no healthy replicas"):
            pool.route()  # ... until there is nowhere left to route


class TestHealth:
    def test_check_health_ejects_after_threshold(self, model):
        pool = ReplicaPool(model, 2)
        pool.replicas[1].kill()
        assert pool.check_health() == []  # one miss: not declared yet
        assert pool.check_health() == [pool.replicas[1]]  # threshold reached
        assert [r.index for r in pool.healthy()] == [0]
        assert pool.metrics.counter("pool.ejections").value == 1

    def test_monitors_are_the_shared_heartbeat_monitor(self, pool):
        assert all(isinstance(m, HeartbeatMonitor) for m in pool.monitors)

    def test_report_failure_is_idempotent(self, pool):
        pool.replicas[0].kill()
        pool.report_failure(pool.replicas[0])
        pool.report_failure(pool.replicas[0])
        assert pool.metrics.counter("pool.ejections").value == 1


class TestRespawn:
    """The pool half of self-healing: spawn_replica + adopt re-entry."""

    def test_thread_spawn_revives_in_place(self, pool):
        pool.replicas[1].kill()
        fresh = pool.spawn_replica(1)
        assert fresh is pool.replicas[1]
        assert fresh.alive

    def test_adopt_returns_the_replica_to_routing(self, pool):
        pool.replicas[2].kill()
        assert pool.check_health() == []  # one miss: not declared yet
        assert pool.check_health() == [pool.replicas[2]]
        fresh = pool.spawn_replica(2)
        replaced = pool.adopt(2, fresh)
        assert replaced is fresh  # thread backend: same object, revived
        assert [r.index for r in pool.healthy()] == [0, 1, 2]
        assert not pool.monitors[2].declared_dead

    def test_adopted_replica_serves_and_routes(self, pool):
        pool.replicas[0].kill()
        pool.report_failure(pool.replicas[0])
        pool.adopt(0, pool.spawn_replica(0))
        # Make slot 0 the clear least-loaded choice again.
        pool.replicas[1].begin()
        pool.replicas[2].begin()
        out, replica = serve(pool, one_image(), "lower25")
        assert out.shape == (1, 10)
        assert replica.index == 0

    def test_adopted_replica_starts_with_zero_pending(self, pool):
        pool.replicas[0].begin()
        pool.replicas[0].begin()
        pool.replicas[0].kill()
        pool.report_failure(pool.replicas[0])
        adopted = pool.adopt(0, pool.spawn_replica(0))
        # Thread revive keeps the object; what matters is that routing
        # sees it healthy and its load converges as requests finish.
        assert adopted.alive
        assert pool.replicas[0] in pool.healthy()

    def test_stale_failure_report_after_adopt_is_ignored(self, model):
        """A late failure report for a replaced replica must not eject
        the fresh one behind the same monitor slot."""
        pool = ReplicaPool(model, 2)
        old = pool.replicas[0]
        old.kill()
        pool.report_failure(old)
        fresh = type(old)(0, model)
        pool.adopt(0, fresh)
        pool.report_failure(old)  # stale: `old` no longer occupies slot 0
        assert not pool.monitors[0].declared_dead
        assert pool.replicas[0] is fresh


def test_pool_validates_replica_count(model):
    with pytest.raises(ValueError):
        ReplicaPool(model, 0)
