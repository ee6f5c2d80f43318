"""Faulty scenario zoo + fault-aware simulation/replay round trips."""

import pytest

from repro.faults.plan import CRASH, FaultEvent, FaultPlan, single_fault
from repro.faults.scenarios import FAULTY_REPLICAS, FAULTY_SCENARIOS, faulty_replayer, get_faulty
from repro.models.zoo import build_model
from repro.scheduler.frontend import SchedulerConfig
from repro.trace.recorder import FAULTS_META_KEY, LOST, TraceRecorder
from repro.trace.replay import TraceReplayer
from repro.trace.scenarios import (
    EXTRA_SCENARIOS,
    SCENARIOS,
    TraceSpec,
    get_scenario,
    register_scenario,
)
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


class TestRegistry:
    def test_faulty_variants_register_outside_the_pinned_zoo(self):
        for name in FAULTY_SCENARIOS:
            assert name in EXTRA_SCENARIOS
            assert name not in SCENARIOS  # pinned corpus is untouched
            assert get_scenario(name) is EXTRA_SCENARIOS[name]

    def test_register_scenario_rejects_pinned_names(self):
        pinned = next(iter(SCENARIOS))
        with pytest.raises(ValueError, match="pinned"):
            register_scenario(TraceSpec(pinned, "bursts", seed=99))

    def test_register_scenario_is_idempotent_for_equal_specs(self):
        spec = EXTRA_SCENARIOS["bursts_faulty"]
        register_scenario(spec)  # no-op, no error
        with pytest.raises(ValueError):
            register_scenario(TraceSpec("bursts_faulty", "bursts", seed=77))

    def test_get_faulty_unknown_name(self):
        with pytest.raises(KeyError, match="unknown faulty scenario"):
            get_faulty("nope")

    def test_faulty_seeds_are_distinct_from_the_pinned_generators(self):
        for scenario in FAULTY_SCENARIOS.values():
            base = get_scenario(scenario.trace.generator)
            assert scenario.trace.seed != base.seed

    def test_meta_carries_the_plan_and_replica_count(self):
        scenario = get_faulty("bursts_faulty")
        meta = scenario.meta()
        assert meta["replicas"] == FAULTY_REPLICAS
        plan = FaultPlan.from_json(meta["faults"])
        assert plan.events == scenario.faults.events


    def test_steady_burst_kill_is_scripted_for_two_replicas(self):
        scenario = get_faulty("steady_burst_kill")
        assert scenario.replicas == scenario.meta()["replicas"] == 2
        (kill,) = scenario.faults.events
        assert (kill.kind, kill.target) == (CRASH, "replica:0")
        # Mid-burst: inside the overload phase of the steady_burst shape.
        assert 0.25 < kill.time_s < 0.5


class TestReplayerPlumbing:
    def test_faulty_replayer_attaches_the_plan(self):
        replayer = faulty_replayer("bursts_faulty")
        assert replayer.faults is get_faulty("bursts_faulty").faults
        assert replayer.meta[FAULTS_META_KEY] == replayer.faults.to_json()

    def test_plan_is_recovered_from_artifact_meta(self):
        plan = single_fault("replica:1", at_s=0.2)
        replayer = TraceReplayer(
            [], name="t", duration_s=1.0, meta={FAULTS_META_KEY: plan.to_json()}
        )
        assert replayer.faults is not None
        assert replayer.faults.events == plan.events

    def test_explicit_plan_wins_over_meta(self):
        meta_plan = single_fault("replica:1")
        arg_plan = single_fault("replica:0")
        replayer = TraceReplayer(
            [], name="t", duration_s=1.0,
            meta={FAULTS_META_KEY: meta_plan.to_json()}, faults=arg_plan,
        )
        assert replayer.faults is arg_plan


class TestFaultySimulation:
    def test_sim_with_faults_is_byte_deterministic(self, model):
        outputs = []
        for _ in range(2):
            replayer = faulty_replayer("bursts_faulty")
            recorder = TraceRecorder(kind="simulated", meta=replayer.meta)
            replayer.simulate(
                model,
                SchedulerConfig(replicas=FAULTY_REPLICAS, warmup=False),
                recorder=recorder,
            )
            outputs.append(recorder.dumps())
        assert outputs[0] == outputs[1]

    def test_acceptance_incident_loses_zero_requests_in_sim(self, model):
        replayer = faulty_replayer("bursts_faulty")
        result = replayer.simulate(
            model, SchedulerConfig(replicas=FAULTY_REPLICAS, warmup=False)
        )
        assert result["lost"] == 0
        assert result["params"]["faults"] == replayer.faults.to_json()

    def test_sim_records_the_plan_into_artifact_meta(self, model):
        replayer = faulty_replayer("multi_tenant_faulty")
        recorder = TraceRecorder(kind="simulated")
        replayer.simulate(
            model,
            SchedulerConfig(replicas=FAULTY_REPLICAS, warmup=False),
            recorder=recorder,
        )
        assert recorder.meta[FAULTS_META_KEY] == replayer.faults.to_json()

    def test_crash_reduces_goodput_versus_clean_run(self, model):
        """A crash takes capacity: the faulty run can't beat the clean one."""
        config = SchedulerConfig(replicas=2, warmup=False)
        clean = faulty_replayer("bursts_faulty")
        clean.faults = None
        base = clean.simulate(model, config)
        faulty = faulty_replayer("bursts_faulty").simulate(
            model, config, fault_plan=single_fault("replica:0", at_s=0.1)
        )
        assert (
            faulty["outcomes"]["ok"] <= base["outcomes"]["ok"]
        )

    def test_non_replica_targets_are_ignored_by_the_sim(self, model):
        plan = FaultPlan([FaultEvent(0.1, "device:0", CRASH)])
        replayer = faulty_replayer("bursts_faulty")
        result = replayer.simulate(
            model,
            SchedulerConfig(replicas=FAULTY_REPLICAS, warmup=False),
            fault_plan=plan,
        )
        assert result["lost"] == 0

    def test_fault_free_sim_is_unchanged_by_the_fault_machinery(self, model):
        """Pinned-corpus protection: no plan means bit-identical behaviour."""
        spec = SCENARIOS["diurnal"]
        config = SchedulerConfig(replicas=2, warmup=False)
        a = TraceReplayer.from_scenario(spec).simulate(model, config)
        b = TraceReplayer.from_scenario(spec).simulate(model, config)
        assert a["records"] == b["records"]
        assert a["params"]["faults"] is None
