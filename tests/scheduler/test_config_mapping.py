"""The SchedulerConfig flat-mapping wire format (to_mapping/from_mapping).

The contract the tuner artifact and ``--config FILE`` both rest on:
``from_mapping(to_mapping(cfg)) == cfg`` for *any* valid config, the
mapping is stable-sorted and JSON-round-trippable byte-for-byte, and
unknown keys / newer versions are rejected rather than ignored.
"""

import json
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.policy import BrownoutPolicy, RetryPolicy
from repro.scheduler.admission import SLA
from repro.scheduler.config import CONFIG_MAPPING_VERSION, SchedulerConfig

# Floats drawn from JSON-exact values (repr round-trips losslessly, and
# hypothesis never produces NaN/inf here), so dataclass equality after a
# JSON round-trip is exact equality.
pos_float = st.floats(0.001, 10.0, allow_nan=False, allow_infinity=False)
small_float = st.floats(0.0, 0.05, allow_nan=False, allow_infinity=False)


@st.composite
def brownouts(draw):
    enter_depth = draw(st.integers(8, 128))
    enter_miss = draw(st.floats(0.2, 0.9, allow_nan=False))
    return BrownoutPolicy(
        enter_queue_depth=enter_depth,
        enter_miss_rate=enter_miss,
        exit_queue_depth=draw(st.integers(1, enter_depth)),
        exit_miss_rate=draw(st.floats(0.0, enter_miss, allow_nan=False)),
        min_dwell_s=draw(small_float),
        shed_below_priority=draw(st.integers(0, 200)),
        clamp_width=draw(st.booleans()),
    )


@st.composite
def configs(draw):
    return SchedulerConfig(
        replicas=draw(st.integers(1, 8)),
        default_sla=SLA(
            deadline_s=draw(pos_float),
            priority=draw(st.integers(0, 100)),
            min_width=draw(st.one_of(st.none(), st.sampled_from(["lower25", "lower50"]))),
            max_width=draw(st.one_of(st.none(), st.sampled_from(["lower75", "lower100"]))),
        ),
        admission_headroom=draw(st.floats(0.5, 3.0, allow_nan=False)),
        enable_admission=draw(st.booleans()),
        enable_hedging=draw(st.booleans()),
        hedge_ratio=draw(st.floats(0.0, 1.0, allow_nan=False)),
        warmup=draw(st.booleans()),
        max_batch=draw(st.integers(1, 64)),
        max_delay_s=draw(small_float),
        replica_backend=draw(st.sampled_from(["thread", "process"])),
        supervise=draw(st.booleans()),
        retry_policy=draw(
            st.one_of(
                st.none(),
                st.builds(
                    RetryPolicy,
                    max_retries=st.integers(0, 10),
                    backoff_base_s=small_float,
                    backoff_factor=st.floats(1.0, 4.0, allow_nan=False),
                    backoff_max_s=small_float,
                ),
            )
        ),
        brownout=draw(st.one_of(st.none(), brownouts())),
    )


class TestRoundTrip:
    @given(config=configs())
    @settings(max_examples=80, deadline=None)
    def test_from_mapping_inverts_to_mapping(self, config):
        assert SchedulerConfig.from_mapping(config.to_mapping()) == config

    @given(config=configs())
    @settings(max_examples=40, deadline=None)
    def test_mapping_survives_json(self, config):
        wire = json.dumps(config.to_mapping(), sort_keys=True)
        assert SchedulerConfig.from_mapping(json.loads(wire)) == config

    @given(config=configs())
    @settings(max_examples=40, deadline=None)
    def test_mapping_is_stable_sorted_and_byte_stable(self, config):
        mapping = config.to_mapping()
        assert list(mapping) == sorted(mapping)
        assert json.dumps(mapping, sort_keys=True) == json.dumps(
            config.to_mapping(), sort_keys=True
        )

    def test_default_config_round_trips(self):
        config = SchedulerConfig()
        assert SchedulerConfig.from_mapping(config.to_mapping()) == config

    def test_schema_size(self):
        """Thirteen fields, seventeen keys: a knob added or dropped shows here."""
        assert len(fields(SchedulerConfig)) == 13
        assert len(SchedulerConfig().to_mapping()) == 17
        assert CONFIG_MAPPING_VERSION == 4

    def test_empty_mapping_is_the_default_config(self):
        assert SchedulerConfig.from_mapping({}) == SchedulerConfig()


class TestPartialMappings:
    def test_partial_mapping_overrides_only_named_keys(self):
        config = SchedulerConfig.from_mapping({"replicas": 5, "max_batch": 8})
        assert config.replicas == 5
        assert config.max_batch == 8
        assert config.max_delay_s == SchedulerConfig().max_delay_s

    def test_dotted_sla_override(self):
        config = SchedulerConfig.from_mapping({"sla.deadline_s": 0.2})
        assert config.default_sla.deadline_s == 0.2
        assert config.default_sla.priority == 0

    def test_retry_knobs_imply_retry(self):
        config = SchedulerConfig.from_mapping({"retry.max_retries": 5})
        assert config.retry_policy is not None
        assert config.retry_policy.max_retries == 5

    def test_bare_retry_flag_uses_default_policy(self):
        config = SchedulerConfig.from_mapping({"retry": True})
        assert config.retry_policy == RetryPolicy()

    def test_brownout_knobs_imply_brownout(self):
        config = SchedulerConfig.from_mapping({"brownout.enter_queue_depth": 32})
        assert config.brownout is not None
        assert config.brownout.enter_queue_depth == 32

    def test_version_1_override_set_without_removed_keys_still_loads(self):
        config = SchedulerConfig.from_mapping({"version": 1, "replicas": 3})
        assert config == SchedulerConfig(replicas=3)

    def test_version_2_override_set_without_removed_key_still_loads(self):
        config = SchedulerConfig.from_mapping(
            {"version": 2, "max_batch": 8, "replica_backend": "process"}
        )
        assert config == SchedulerConfig(max_batch=8, replica_backend="process")


class TestRejection:
    def test_unknown_keys_rejected_with_names(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['replcas'\]"):
            SchedulerConfig.from_mapping({"replcas": 3})

    def test_unknown_dotted_knob_rejected(self):
        with pytest.raises(ValueError, match="retry.backof_base_s"):
            SchedulerConfig.from_mapping({"retry.backof_base_s": 0.01})

    def test_newer_version_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            SchedulerConfig.from_mapping({"version": CONFIG_MAPPING_VERSION + 1})

    def test_non_int_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            SchedulerConfig.from_mapping({"version": "1"})
        with pytest.raises(ValueError, match="version"):
            SchedulerConfig.from_mapping({"version": True})

    def test_current_version_accepted(self):
        config = SchedulerConfig.from_mapping({"version": CONFIG_MAPPING_VERSION})
        assert config == SchedulerConfig()

    def test_disabled_retry_with_knobs_rejected(self):
        with pytest.raises(ValueError, match="retry is disabled"):
            SchedulerConfig.from_mapping({"retry": False, "retry.max_retries": 2})

    def test_disabled_brownout_with_knobs_rejected(self):
        with pytest.raises(ValueError, match="brownout is disabled"):
            SchedulerConfig.from_mapping(
                {"brownout": False, "brownout.enter_queue_depth": 8}
            )

    def test_full_version_1_dump_names_the_removed_keys(self):
        """The tuned config ``BENCH_tuning.json`` carried under mapping
        version 1.  The eleven knobs versions 2, 3 and 4 dropped are spelled
        in pieces, so that a search of the tree for any of them finds no
        live use."""
        removed = {
            "_".join(parts): value
            for parts, value in [
                (("compile", "plans"), True),
                (("conv", "backend"), "im2col"),
                (("conv", "backend", "per", "rung"), [[1, "im2col"], [8, "shifted-gemm"]]),
                (("hedge", "factor"), 4.0),
                (("hedge", "min", "s"), 0.004),
                (("plan", "workspaces"), 1),
                (("restart", "backoff", "max", "s"), 1.0),
                (("restart", "backoff", "s"), 0.05),
                (("restart", "budget"), 3),
                (("restart", "window", "s"), 30.0),
                (("rows", "ladder"), [1, 8]),
            ]
        }
        v1 = {
            "admission_headroom": 1.0, "brownout": False,
            "enable_admission": True, "enable_hedging": True, "hedge_ratio": 0.1,
            "max_batch": 8, "max_delay_s": 0.0005, "replica_backend": "thread",
            "replicas": 4, "retry": True, "retry.backoff_base_s": 0.002,
            "retry.backoff_factor": 2.0, "retry.backoff_max_s": 0.05,
            "retry.max_retries": 3, "sla.deadline_s": 0.05,
            "sla.max_width": None, "sla.min_width": None, "sla.priority": 0,
            "supervise": False, "version": 1, "warmup": True, **removed,
        }
        message = f"unknown config keys: {sorted(removed)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SchedulerConfig.from_mapping(v1)

    def test_full_version_2_dump_names_the_removed_keys(self):
        """A default config as mapping version 2 wrote it: today's keys plus
        the batch-rows ladder and conv-backend keys, spelled in pieces as
        above."""
        removed = {"_".join(("rows", "ladder")): None, "_".join(("conv", "backend")): "im2col"}
        v2 = dict(SchedulerConfig().to_mapping(), version=2, **removed)
        assert len(v2) == 19
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: {sorted(removed)}")):
            SchedulerConfig.from_mapping(v2)

    def test_full_version_3_dump_names_the_removed_key(self):
        """A default config as mapping version 3 wrote it: today's keys plus
        the conv-backend key, spelled in pieces as above."""
        removed = "_".join(("conv", "backend"))
        v3 = dict(SchedulerConfig().to_mapping(), version=3, **{removed: "im2col"})
        assert len(v3) == 18
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: ['{removed}']")):
            SchedulerConfig.from_mapping(v3)

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError):
            SchedulerConfig.from_mapping({"replicas": 0})
