"""Tests for the global dtype policy."""

import numpy as np
import pytest

from repro.utils.dtypes import (
    DtypePolicy,
    compute_dtype,
    dtype_policy,
    get_dtype_policy,
    resolve_dtype_policy,
    set_dtype_policy,
)


class TestPolicyObject:
    def test_default_reproduces_historical_behaviour(self):
        policy = DtypePolicy()
        assert policy.inference == "float64"
        assert policy.training == "float64"
        assert policy.wire == "float32"

    def test_fast_inference_keeps_float64_training(self):
        policy = DtypePolicy.fast_inference()
        assert policy.inference == "float32"
        assert policy.training == "float64"

    def test_compute_dtype_switches_on_mode(self):
        policy = DtypePolicy.fast_inference()
        assert policy.compute_dtype(training=True) == np.float64
        assert policy.compute_dtype(training=False) == np.float32

    @pytest.mark.parametrize("field", ["inference", "training", "wire"])
    def test_invalid_dtype_rejected(self, field):
        with pytest.raises(ValueError):
            DtypePolicy(**{field: "float16"})

    def test_from_config_defaults_when_keys_absent(self):
        assert DtypePolicy.from_config({}) == DtypePolicy()

    def test_from_config_reads_keys(self):
        policy = DtypePolicy.from_config(
            {"inference_dtype": "float32", "wire_dtype": "float64"}
        )
        assert policy.inference == "float32"
        assert policy.training == "float64"
        assert policy.wire == "float64"


class TestGlobalState:
    def test_context_manager_restores_previous_policy(self):
        before = get_dtype_policy()
        with dtype_policy(inference="float32") as active:
            assert get_dtype_policy() is active
            assert compute_dtype(training=False) == np.float32
        assert get_dtype_policy() == before

    def test_set_returns_old_policy(self):
        old = set_dtype_policy(DtypePolicy.fast_inference())
        try:
            assert get_dtype_policy().inference == "float32"
        finally:
            set_dtype_policy(old if old != DtypePolicy() else None)
        assert get_dtype_policy() == DtypePolicy()

    def test_policy_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            with dtype_policy(DtypePolicy(), inference="float32"):
                pass


class TestThreadSemantics:
    def test_set_policy_is_visible_from_other_threads(self):
        import threading

        seen = {}

        def probe():
            seen["policy"] = get_dtype_policy()

        old = set_dtype_policy(DtypePolicy.fast_inference())
        try:
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=5.0)
        finally:
            set_dtype_policy(old)
        assert seen["policy"].inference == "float32"

    def test_context_override_is_thread_scoped(self):
        import threading

        seen = {}

        def probe():
            seen["policy"] = get_dtype_policy()

        with dtype_policy(inference="float32"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=5.0)
        assert seen["policy"].inference == "float64"


class TestResolve:
    def test_float64_is_default_policy(self):
        assert resolve_dtype_policy("float64") == DtypePolicy()

    def test_float32_is_fast_inference(self):
        assert resolve_dtype_policy("float32") == DtypePolicy.fast_inference()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_dtype_policy("bfloat16")
