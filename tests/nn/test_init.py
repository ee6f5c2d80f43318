"""Tests for the weight initializers every sliced layer draws from."""

import numpy as np
import pytest

from repro.nn import init
from repro.utils.rng import make_rng


class TestKaimingUniform:
    @pytest.mark.parametrize(
        "shape,fan_in",
        [((10, 49), 49), ((16, 1, 3, 3), 9), ((16, 16, 3, 3), 144)],
        ids=["linear", "first-conv", "inner-conv"],
    )
    def test_bound_follows_fan_in(self, shape, fan_in):
        w = init.kaiming_uniform(shape, make_rng(0))
        bound = np.sqrt(2.0) * np.sqrt(3.0 / fan_in)
        assert w.shape == shape
        assert np.abs(w).max() <= bound
        # Uniform on [-b, b] fills its range: the extremes come close to b.
        assert np.abs(w).max() > 0.8 * bound

    def test_same_generator_state_same_weights(self):
        a = init.kaiming_uniform((4, 3, 3, 3), make_rng(2))
        b = init.kaiming_uniform((4, 3, 3, 3), make_rng(2))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_unsupported_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            init.kaiming_uniform(shape, make_rng(0))


class TestBiasUniform:
    def test_bound_is_inverse_sqrt_fan_in(self):
        b = init.bias_uniform((1000,), 16, make_rng(3))
        assert np.abs(b).max() <= 0.25
        assert np.abs(b).max() > 0.2

    @pytest.mark.parametrize("fan_in", [0, -3])
    def test_non_positive_fan_in_rejected(self, fan_in):
        with pytest.raises(ValueError):
            init.bias_uniform((4,), fan_in, make_rng(0))
