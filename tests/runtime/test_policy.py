"""Tests for the adaptation policy — the paper's decision logic."""

import pytest

from repro.comm.latency_model import CommLatencyModel
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
from repro.distributed.throughput import SystemThroughputModel
from repro.engine.graph import BlockPartition
from repro.engine.modes import MASTER, WORKER, ExecutionMode, Scenario
from repro.models.zoo import build_model
from repro.runtime.policy import TARGET_ACCURACY, TARGET_THROUGHPUT, AdaptationPolicy
from repro.utils.rng import make_rng


def make_policy(family: str, target: str = TARGET_ACCURACY):
    model = build_model(family, rng=make_rng(0))
    tm = SystemThroughputModel(
        model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
    )
    return AdaptationPolicy(model, tm, target=target)


class TestStandaloneDeployability:
    def test_static_has_none(self):
        policy = make_policy("static")
        assert policy.deployable_standalone(MASTER) == []
        assert policy.deployable_standalone(WORKER) == []

    def test_dynamic_master_capped_by_capacity(self):
        policy = make_policy("dynamic")
        names = [s.name for s in policy.deployable_standalone(MASTER)]
        # lower75/lower100 are certified but not resident; capacity is moot here.
        assert names == ["lower25", "lower50"]
        assert policy.best_standalone(MASTER).name == "lower50"

    def test_dynamic_worker_has_none(self):
        policy = make_policy("dynamic")
        assert policy.deployable_standalone(WORKER) == []

    def test_fluid_worker_gets_upper(self):
        policy = make_policy("fluid")
        assert policy.best_standalone(WORKER).name == "upper50"
        names = [s.name for s in policy.deployable_standalone(WORKER)]
        assert names == ["upper25", "upper50"]
        assert [s.name for s in policy.deployable_standalone(MASTER)] == ["lower25", "lower50"]

    def test_residency_follows_the_throughput_models_partition(self):
        """One partition per deployment: split at 12, the Fluid worker's rows
        [12, 16) hold no named sub-network, so the worker alone fails."""
        model = build_model("fluid", rng=make_rng(0))
        tm = SystemThroughputModel(
            model.net,
            jetson_nx_master(),
            jetson_nx_worker(),
            CommLatencyModel(),
            BlockPartition.two_way(12, model.width_spec.max_width),
        )
        policy = AdaptationPolicy(model, tm)
        assert policy.deployable_standalone(WORKER) == []
        assert policy.plan_for_scenario(Scenario.ONLY_WORKER).mode is ExecutionMode.FAILED


class TestScenarioPlans:
    def test_static_both_is_ha(self):
        plan = make_policy("static").plan_for_scenario(Scenario.BOTH)
        assert plan.mode is ExecutionMode.HIGH_ACCURACY
        assert plan.combined_subnet == "lower100"

    def test_static_fails_alone(self):
        policy = make_policy("static")
        assert policy.plan_for_scenario(Scenario.ONLY_MASTER).mode is ExecutionMode.FAILED
        assert policy.plan_for_scenario(Scenario.ONLY_WORKER).mode is ExecutionMode.FAILED

    def test_dynamic_survives_worker_death_only(self):
        policy = make_policy("dynamic")
        master_plan = policy.plan_for_scenario(Scenario.ONLY_MASTER)
        assert master_plan.mode is ExecutionMode.SOLO
        assert master_plan.assignments[0].subnet == "lower50"
        assert policy.plan_for_scenario(Scenario.ONLY_WORKER).mode is ExecutionMode.FAILED

    def test_fluid_survives_either_death(self):
        policy = make_policy("fluid")
        m = policy.plan_for_scenario(Scenario.ONLY_MASTER)
        w = policy.plan_for_scenario(Scenario.ONLY_WORKER)
        assert m.assignments[0].subnet == "lower50"
        assert w.assignments[0].subnet == "upper50"

    def test_no_devices_fails(self):
        assert make_policy("fluid").plan(frozenset()).mode is ExecutionMode.FAILED


class TestTargetSelection:
    def test_fluid_throughput_target_picks_ht(self):
        plan = make_policy("fluid", TARGET_THROUGHPUT).plan_for_scenario(Scenario.BOTH)
        assert plan.mode is ExecutionMode.HIGH_THROUGHPUT
        subnets = {a.device: a.subnet for a in plan.assignments}
        assert subnets == {"master": "lower50", "worker": "upper50"}

    def test_fluid_accuracy_target_picks_ha(self):
        plan = make_policy("fluid", TARGET_ACCURACY).plan_for_scenario(Scenario.BOTH)
        assert plan.mode is ExecutionMode.HIGH_ACCURACY

    def test_dynamic_throughput_target_degrades_to_solo(self):
        # Dynamic has no independent pair: its best throughput lever is the
        # lone 50% model on the Master (paper: 14.4 > 11.1 image/s).
        plan = make_policy("dynamic", TARGET_THROUGHPUT).plan_for_scenario(Scenario.BOTH)
        assert plan.mode is ExecutionMode.SOLO
        assert plan.assignments[0].subnet == "lower50"

    def test_static_target_is_irrelevant(self):
        ht = make_policy("static", TARGET_THROUGHPUT).plan_for_scenario(Scenario.BOTH)
        ha = make_policy("static", TARGET_ACCURACY).plan_for_scenario(Scenario.BOTH)
        assert ht == ha

    def test_unknown_target_rejected(self):
        model = build_model("fluid", rng=make_rng(0))
        tm = SystemThroughputModel(
            model.net, jetson_nx_master(), jetson_nx_worker(), CommLatencyModel()
        )
        with pytest.raises(ValueError):
            AdaptationPolicy(model, tm, target="vibes")
