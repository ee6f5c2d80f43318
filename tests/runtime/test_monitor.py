"""Tests for failure monitors."""

import pytest

from repro.faults.plan import FaultEvent, FaultPlan, single_fault
from repro.runtime import HeartbeatMonitor, ScheduleMonitor


class TestHeartbeatMonitor:
    def test_healthy_peer_stays_alive(self):
        monitor = HeartbeatMonitor(lambda: True, threshold=2)
        assert all(monitor.check() for _ in range(5))
        assert monitor.consecutive_failures == 0

    def test_death_after_threshold(self):
        monitor = HeartbeatMonitor(lambda: False, threshold=3)
        assert monitor.check()      # 1 miss
        assert monitor.check()      # 2 misses
        assert not monitor.check()  # 3 misses -> dead
        assert monitor.declared_dead

    def test_flaky_peer_recovers_counter(self):
        responses = iter([False, True, False, False])
        monitor = HeartbeatMonitor(lambda: next(responses), threshold=2)
        assert monitor.check()      # miss 1
        assert monitor.check()      # success resets
        assert monitor.check()      # miss 1 again
        assert not monitor.check()  # miss 2 -> dead

    def test_dead_stays_dead(self):
        monitor = HeartbeatMonitor(lambda: True, threshold=1)
        monitor._ping = lambda: False
        monitor.check()
        monitor._ping = lambda: True
        assert not monitor.check()  # no auto-resurrection

    def test_reset(self):
        monitor = HeartbeatMonitor(lambda: False, threshold=1)
        monitor.check()
        monitor.reset()
        assert not monitor.declared_dead

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(lambda: True, threshold=0)


class TestScheduleMonitor:
    def test_alive_sets_over_time(self):
        monitor = ScheduleMonitor(single_fault("worker", at_s=10.0))
        assert monitor.alive_at(5.0) == frozenset({"master", "worker"})
        assert monitor.alive_at(10.0) == frozenset({"master"})

    def test_recovery(self):
        schedule = FaultPlan(
            [FaultEvent(5.0, "master", "crash"), FaultEvent(15.0, "master", "recover")]
        )
        monitor = ScheduleMonitor(schedule)
        assert monitor.alive_at(7.0) == frozenset({"worker"})
        assert monitor.alive_at(20.0) == frozenset({"master", "worker"})


