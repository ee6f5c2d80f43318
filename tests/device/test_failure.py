"""The device plane's failure vocabulary: scripted crash/recover timelines
(:class:`~repro.faults.plan.FaultPlan` over ``master`` / ``worker``) and the
emulated device's crash-on-Nth-request counter."""

import pytest

from repro.device import CrashCounter
from repro.faults.plan import FaultEvent, FaultPlan, single_fault


class TestFailureEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "master")
        with pytest.raises(ValueError):
            FaultEvent(1.0, "master", kind="explode")


class TestFailureSchedule:
    def test_alive_before_crash(self):
        sched = single_fault("worker", at_s=5.0)
        assert sched.is_alive("worker", 4.9)
        assert not sched.is_alive("worker", 5.0)
        assert sched.is_alive("master", 100.0)

    def test_recovery(self):
        sched = FaultPlan(
            [FaultEvent(2.0, "worker", "crash"), FaultEvent(8.0, "worker", "recover")]
        )
        assert sched.is_alive("worker", 1.0)
        assert not sched.is_alive("worker", 5.0)
        assert sched.is_alive("worker", 9.0)

    def test_events_sorted_on_construction(self):
        sched = FaultPlan(
            [FaultEvent(8.0, "a", "recover"), FaultEvent(2.0, "a", "crash")]
        )
        assert [e.time_s for e in sched.events] == [2.0, 8.0]

    def test_add_keeps_order(self):
        sched = FaultPlan()
        sched.add(FaultEvent(5.0, "a"))
        sched.add(FaultEvent(1.0, "b"))
        assert [e.time_s for e in sched.events] == [1.0, 5.0]

    def test_no_failures(self):
        sched = FaultPlan()
        assert sched.is_alive("anything", 1e9)


class TestCrashCounter:
    def test_crashes_after_n(self):
        counter = CrashCounter(crash_after_requests=2)
        assert not counter.record_request()
        assert not counter.record_request()
        assert counter.record_request()

    def test_crash_after_zero_is_immediate(self):
        assert CrashCounter(0).record_request()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CrashCounter(-1)
