"""Fault plans: validation, ordering, liveness, serialization."""

import pytest

from repro.faults.plan import (
    CRASH,
    DROP,
    FAULT_KINDS,
    HEARTBEAT_DELAY,
    RECOVER,
    STALL,
    FaultEvent,
    FaultPlan,
    replica_target,
    single_fault,
    target_index,
)


class TestTargets:
    def test_replica_target_round_trips(self):
        assert target_index(replica_target(3)) == 3

    def test_non_replica_target_raises(self):
        for bad in ("device:0", "replica", "replica:x", "worker:1"):
            with pytest.raises(ValueError):
                target_index(bad)

    def test_device_alias_property(self):
        event = FaultEvent(1.0, "gpu:0", CRASH)
        assert event.device == event.target == "gpu:0"


class TestFaultEvent:
    def test_defaults(self):
        event = FaultEvent(0.5, replica_target(0))
        assert event.kind == CRASH
        assert event.duration_s == 0.0 and event.delay_s == 0.0 and event.count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-0.1, "replica:0")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "replica:0", "explode")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "replica:0", STALL, duration_s=-1.0)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "replica:0", STALL, delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "replica:0", count=0)

    def test_json_omits_default_knobs(self):
        assert FaultEvent(1.0, "replica:0").to_json() == {
            "time_s": 1.0, "target": "replica:0", "kind": CRASH,
        }

    def test_json_round_trip_preserves_every_knob(self):
        event = FaultEvent(0.4, "replica:2", STALL, duration_s=0.2, delay_s=0.01, count=3)
        assert FaultEvent.from_json(event.to_json()) == event

    def test_from_json_defaults_kind_to_crash(self):
        assert FaultEvent.from_json({"time_s": 1.0, "target": "replica:0"}).kind == CRASH


class TestFaultPlan:
    def test_events_are_time_ordered(self):
        plan = FaultPlan([
            FaultEvent(2.0, "replica:0"),
            FaultEvent(1.0, "replica:1"),
        ])
        assert [e.time_s for e in plan.events] == [1.0, 2.0]
        plan.add(FaultEvent(0.5, "replica:2"))
        assert [e.time_s for e in plan.events] == [0.5, 1.0, 2.0]

    def test_is_alive_applies_event_at_query_time(self):
        plan = single_fault("replica:0", at_s=5.0)
        assert plan.is_alive("replica:0", 4.99)
        assert not plan.is_alive("replica:0", 5.0)  # crash lands *at* t
        assert plan.is_alive("replica:1", 5.0)

    def test_recover_restores_liveness(self):
        plan = FaultPlan([
            FaultEvent(1.0, "replica:0", CRASH),
            FaultEvent(2.0, "replica:0", RECOVER),
        ])
        assert not plan.is_alive("replica:0", 1.5)
        assert plan.is_alive("replica:0", 2.0)

    def test_window_faults_do_not_affect_liveness(self):
        plan = FaultPlan([FaultEvent(1.0, "replica:0", STALL, duration_s=1.0)])
        assert plan.is_alive("replica:0", 1.5)

    def test_plan_json_round_trip(self):
        plan = FaultPlan([
            FaultEvent(0.35, "replica:1", CRASH),
            FaultEvent(0.45, "replica:3", STALL, duration_s=0.25, delay_s=0.02),
        ])
        again = FaultPlan.from_json(plan.to_json())
        assert again.events == plan.events

    def test_bool_and_len(self):
        assert not FaultPlan([]) and len(FaultPlan([])) == 0
        assert single_fault("replica:0") and len(single_fault("replica:0")) == 1


def test_fault_kinds_are_closed_vocabulary():
    assert set(FAULT_KINDS) == {
        CRASH, RECOVER, STALL, DROP, HEARTBEAT_DELAY, "shm_attach_fail",
    }
