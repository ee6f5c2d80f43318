"""Tests for the reliability state machine."""

import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.modes import ExecutionMode
from repro.faults.plan import FaultEvent, FaultPlan, single_fault
from repro.models.zoo import build_model
from repro.runtime.controller import SystemController
from repro.runtime.policy import AdaptationPolicy
from repro.utils.rng import make_rng


def make_controller(family: str):
    model = build_model(family, rng=make_rng(0))
    tm = SystemThroughputModel(
        model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )
    return SystemController(AdaptationPolicy(model, tm), tm)


class TestObserve:
    def test_replans_only_on_change(self):
        controller = make_controller("fluid")
        t1 = controller.observe(frozenset({"master", "worker"}))
        plan1 = controller.current_plan
        controller.observe(frozenset({"master", "worker"}))
        assert controller.current_plan is plan1
        controller.observe(frozenset({"master"}))
        assert controller.current_plan is not plan1
        assert t1.throughput.throughput_ips > 0


class TestSimulation:
    def test_fluid_worker_failure_timeline(self):
        controller = make_controller("fluid")
        timeline = controller.simulate(single_fault("worker", at_s=10.0), horizon_s=20.0)
        modes = timeline.modes()
        assert modes == [ExecutionMode.HIGH_ACCURACY, ExecutionMode.SOLO]
        assert timeline.downtime() == 0.0

    def test_fluid_master_failure_keeps_serving(self):
        controller = make_controller("fluid")
        timeline = controller.simulate(single_fault("master", at_s=5.0), horizon_s=10.0)
        assert timeline.modes()[-1] is ExecutionMode.SOLO
        assert timeline.transitions[-1].plan.assignments[0].device == "worker"
        assert timeline.downtime() == 0.0

    def test_dynamic_master_failure_downs_system(self):
        controller = make_controller("dynamic")
        timeline = controller.simulate(single_fault("master", at_s=5.0), horizon_s=10.0)
        assert timeline.modes()[-1] is ExecutionMode.FAILED
        assert timeline.downtime() > 0.0

    def test_static_any_failure_downs_system(self):
        for device in ("master", "worker"):
            controller = make_controller("static")
            timeline = controller.simulate(single_fault(device, at_s=2.0), horizon_s=6.0)
            assert timeline.modes() == [ExecutionMode.HIGH_ACCURACY, ExecutionMode.FAILED]

    def test_crash_and_recovery_cycle(self):
        controller = make_controller("fluid")
        schedule = FaultPlan(
            [FaultEvent(3.0, "worker", "crash"), FaultEvent(7.0, "worker", "recover")]
        )
        timeline = controller.simulate(schedule, horizon_s=10.0)
        assert timeline.modes() == [
            ExecutionMode.HIGH_ACCURACY,
            ExecutionMode.SOLO,
            ExecutionMode.HIGH_ACCURACY,
        ]

    def test_validation(self):
        controller = make_controller("fluid")
        with pytest.raises(ValueError):
            controller.simulate(single_fault("worker"), horizon_s=0)
