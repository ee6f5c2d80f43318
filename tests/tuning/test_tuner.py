"""The offline autotuner: determinism, improvement, parallel parity, artifact."""

import json

import pytest

from repro.faults import faulty_replayer
from repro.models import build_model
from repro.scheduler import SchedulerConfig
from repro.trace import TraceReplayer
from repro.tuning import (
    SearchSpace,
    dumps,
    load_config_mapping,
    load_scheduler_config,
    read_tuned_config,
    tune,
    write_tuned_config,
)
from repro.tuning.tuner import COARSE_FRAC, MAX_CANDIDATES
from repro.utils import make_rng


@pytest.fixture(scope="module")
def model():
    return build_model("fluid", rng=make_rng(0))


def small_tune(model, scenario="multi_tenant", **overrides):
    kwargs = dict(
        seed=0, space=SearchSpace.small(), workers=1, validate=False
    )
    kwargs.update(overrides)
    return tune(TraceReplayer.from_scenario(scenario), model, **kwargs)


class TestTune:
    def test_tuned_beats_default_on_saturating_trace(self, model):
        result = small_tune(model)
        assert result.improved
        assert result.tuned.miss_rate < result.baseline.miss_rate
        # The leaderboard is sorted best-first and the winner heads it.
        scores = [e.score for e in result.leaderboard]
        assert scores == sorted(scores)

    def test_deterministic_for_fixed_seed(self, model):
        first = small_tune(model)
        second = small_tune(model)
        assert dumps(first) == dumps(second)

    def test_serial_equals_parallel(self, model):
        serial = small_tune(model, workers=1)
        parallel = small_tune(model, workers=2)
        assert dumps(serial) == dumps(parallel)

    def test_validation_reranks_near_ties_by_zoo(self, model):
        result = small_tune(model, validate=True)
        if result.validation is not None:
            zoo_miss = result.validation["zoo_mean_miss"]
            winner_key = str(result.validation["winner_index"])
            assert zoo_miss[winner_key] == min(zoo_miss.values())
            assert result.evaluations > result.stages["refine"]

    def test_stages_report_the_search_constants(self, model):
        result = small_tune(model)
        stages = result.stages
        assert stages["coarse_frac"] == COARSE_FRAC
        assert stages["coarse"] == min(stages["grid"], MAX_CANDIDATES)
        assert stages["survivors"] == stages["refine"] == min(max(4, stages["coarse"] // 6), stages["coarse"])

    def test_faults_require_a_fault_plan(self, model):
        with pytest.raises(ValueError, match="use_faults"):
            small_tune(model, use_faults=True)

    def test_chaos_tuning_enables_the_live_fault_plane(self, model):
        replayer = faulty_replayer("bursts_faulty")
        result = tune(
            replayer, model,
            seed=0, space=SearchSpace.small(), workers=1,
            validate=False, use_faults=True,
        )
        assert result.faults
        assert result.config.supervise
        assert result.config.retry_policy is not None

    def test_empty_trace_rejected(self, model):
        empty = TraceReplayer((), name="empty", duration_s=1.0)
        with pytest.raises(ValueError, match="empty"):
            tune(empty, model, space=SearchSpace.small())

    @pytest.mark.parametrize("use_faults", [False, True])
    def test_emits_only_searched_keys(self, model, use_faults):
        """Nothing the simulator cannot rank leaves the tuner: every other
        knob keeps its default.  Under faults the live fault plane (supervise,
        bounded retries) is switched on as well."""
        scenario = "bursts_faulty" if use_faults else "multi_tenant"
        replayer = (
            faulty_replayer(scenario) if use_faults else TraceReplayer.from_scenario(scenario)
        )
        result = tune(
            replayer, model, seed=0, space=SearchSpace.small(), workers=1,
            validate=False, use_faults=use_faults,
        )
        emitted, default = result.config.to_mapping(), SchedulerConfig().to_mapping()
        changed = {k for k in emitted.keys() | default.keys() if emitted.get(k) != default.get(k)}
        searched = {"replicas", "max_batch", "max_delay_s", "admission_headroom"}
        families = ("brownout", "retry") if use_faults else ("brownout",)
        assert changed, "the tuned config should differ from the default"
        for key in changed - searched - ({"supervise"} if use_faults else set()):
            assert key.partition(".")[0] in families, key


class TestArtifact:
    def test_write_read_round_trip(self, model, tmp_path):
        result = small_tune(model)
        path = write_tuned_config(tmp_path / "tuned.json", result)
        payload = read_tuned_config(path)
        assert payload["format"] == "repro-tuned-config"
        assert payload["config"] == result.config.to_mapping()
        # The --config loader unwraps the artifact to its config block...
        assert load_config_mapping(path) == result.config.to_mapping()
        # ...and from_mapping rebuilds the exact emitted config.
        assert load_scheduler_config(path) == result.config

    def test_bare_mapping_files_load_too(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replicas": 3}))
        assert load_config_mapping(path) == {"replicas": 3}
        assert load_scheduler_config(path) == SchedulerConfig(replicas=3)

    def test_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 1}))
        with pytest.raises(ValueError, match="not a repro-tuned-config"):
            load_config_mapping(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"format": "repro-tuned-config", "version": 99, "config": {}})
        )
        with pytest.raises(ValueError, match="newer"):
            read_tuned_config(path)

    def test_non_object_config_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config_mapping(path)
