"""Fault injector: every handler lands at a real seam and unwinds cleanly.

Events are fired synchronously (``injector.fire``) against a
thread-backend frontend so nothing here depends on timer scheduling;
drop windows run on a fake clock, and the timer-path tests wait on events
and thread joins, never on a sleep.
"""

import threading
import time

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CRASH,
    DROP,
    HEARTBEAT_DELAY,
    RECOVER,
    SHM_ATTACH_FAIL,
    STALL,
    FaultEvent,
    FaultPlan,
    replica_target,
)
from repro.models.zoo import build_model
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.frontend import ServingFrontend
from repro.scheduler.pool import ReplicaUnavailable
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


def injector_for(frontend, *events):
    return FaultInjector(frontend, FaultPlan(list(events)))


def recording_fire(inj):
    """Route ``inj``'s timers through a wrapper; returns the events it saw."""
    fired = []
    fire = inj.fire

    def record(event):
        fired.append(event)
        fire(event)

    inj.fire = record
    return fired


def assert_exited_unfired(timers, fired):
    assert timers
    for timer in timers:
        timer.join(timeout=5.0)
        assert not timer.is_alive()
    assert fired == []


class TestCrashAndRecover:
    def test_crash_kills_the_target(self, frontend):
        inj = injector_for(frontend, FaultEvent(0.0, replica_target(0), CRASH))
        inj.fire(inj.plan.events[0])
        assert not frontend.pool.replicas[0].alive
        counters = frontend.metrics.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.crash"] == 1

    def test_recover_revives_and_rebinds_the_monitor(self, frontend):
        pool = frontend.pool
        pool.replicas[0].kill()
        pool.report_failure(pool.replicas[0])
        assert pool.monitors[0].declared_dead
        inj = injector_for(frontend, FaultEvent(0.0, replica_target(0), RECOVER))
        inj.fire(inj.plan.events[0])
        assert pool.replicas[0].alive
        assert not pool.monitors[0].declared_dead


class TestStall:
    def test_stall_wraps_run_parts_and_delays(self, frontend):
        replica = frontend.pool.replicas[0]
        inj = injector_for(
            frontend,
            FaultEvent(0.0, replica_target(0), STALL, duration_s=30.0, delay_s=0.05),
        )
        inj.fire(inj.plan.events[0])
        started = time.monotonic()
        out = replica.run_parts([one_image()], "lower25")
        assert time.monotonic() - started >= 0.05
        assert out.shape == (1, 10)
        inj.stop()
        # The wrapper is gone: the same call is fast again.
        started = time.monotonic()
        replica.run_parts([one_image()], "lower25")
        assert time.monotonic() - started < 0.05


class TestDrop:
    def test_drop_on_thread_replica_raises_transiently(self, frontend):
        replica = frontend.pool.replicas[1]
        now = [100.0]
        inj = FaultInjector(
            frontend,
            FaultPlan([FaultEvent(0.0, replica_target(1), DROP, duration_s=30.0)]),
            clock=lambda: now[0],
        )
        inj.fire(inj.plan.events[0])
        with pytest.raises(ReplicaUnavailable):
            replica.run_parts([one_image()], "lower25")
        now[0] += 31.0  # window over: the wrapper delegates again
        assert replica.run_parts([one_image()], "lower25").shape == (1, 10)
        inj.stop()

    def test_stop_unwinds_an_open_drop_window(self, frontend):
        replica = frontend.pool.replicas[1]
        inj = injector_for(
            frontend,
            FaultEvent(0.0, replica_target(1), DROP, duration_s=30.0),
        )
        inj.fire(inj.plan.events[0])
        inj.stop()
        assert replica.run_parts([one_image()], "lower25").shape == (1, 10)


class TestHeartbeatDelay:
    def test_heartbeats_go_dark_while_serving_continues(self, frontend):
        monitor = frontend.pool.monitors[0]
        inj = injector_for(
            frontend,
            FaultEvent(0.0, replica_target(0), HEARTBEAT_DELAY, duration_s=30.0),
        )
        inj.fire(inj.plan.events[0])
        assert monitor.ping_fn() is False
        # The replica itself is fine — only its heartbeat view is dark.
        assert frontend.pool.replicas[0].alive
        inj.stop()
        assert monitor.ping_fn() is True

    def test_restore_never_clobbers_a_rebound_monitor(self, frontend):
        monitor = frontend.pool.monitors[0]
        inj = injector_for(
            frontend,
            FaultEvent(0.0, replica_target(0), HEARTBEAT_DELAY, duration_s=30.0),
        )
        inj.fire(inj.plan.events[0])
        # A supervisor respawn rebinds the monitor inside the window ...
        fresh_ping = lambda: True  # noqa: E731
        monitor.rebind(fresh_ping)
        inj.stop()
        # ... and stop() must leave that rebinding alone.
        assert monitor.ping_fn is fresh_ping


class TestShmAttachFail:
    def test_poisons_exactly_count_spawn_attempts_for_the_target(self, frontend):
        pool = frontend.pool
        inj = injector_for(
            frontend,
            FaultEvent(0.0, replica_target(0), SHM_ATTACH_FAIL, count=2),
        )
        inj.fire(inj.plan.events[0])
        for _ in range(2):
            with pytest.raises(RuntimeError, match="shm attach failed"):
                pool.spawn_replica(0)
        # Other slots are unaffected even while the budget is live.
        assert pool.spawn_replica(1) is pool.replicas[1]
        # Budget spent: the target spawns fine again.
        assert pool.spawn_replica(0) is pool.replicas[0]
        inj.stop()


class TestLifecycle:
    def test_start_twice_raises(self, frontend):
        inj = injector_for(frontend)
        inj.start()
        with pytest.raises(RuntimeError):
            inj.start()
        inj.stop()

    def test_timer_path_fires_scripted_events(self, frontend):
        inj = injector_for(frontend, FaultEvent(0.0, replica_target(0), CRASH))
        fired = threading.Event()
        fire = inj.fire

        def fire_and_signal(event):
            fire(event)
            fired.set()

        inj.fire = fire_and_signal  # the timers resolve ``self.fire`` at start()
        inj.start()
        assert fired.wait(timeout=5.0)
        assert not frontend.pool.replicas[0].alive
        inj.stop()

    def test_stop_cancels_pending_events(self, frontend):
        inj = injector_for(frontend, FaultEvent(30.0, replica_target(0), CRASH))
        fired = recording_fire(inj)
        inj.start()
        timers = list(inj._timers)
        inj.stop()
        assert_exited_unfired(timers, fired)
        assert frontend.pool.replicas[0].alive

    def test_context_manager_arms_and_unwinds(self, frontend):
        event = FaultEvent(30.0, replica_target(0), CRASH)
        inj = injector_for(frontend, event)
        fired = recording_fire(inj)
        with inj:
            timers = list(inj._timers)
        # exit cancelled the pending timer
        assert_exited_unfired(timers, fired)
        assert frontend.pool.replicas[0].alive

