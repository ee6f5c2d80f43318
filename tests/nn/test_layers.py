"""Gradient and behaviour tests for the layer catalogue."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Dropout,
    Flatten,
    ForwardContext,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.utils import make_rng
from tests.nn.gradcheck import check_layer_gradients


class TestConv2dLayer:
    def test_output_shape(self, rng):
        conv = Conv2d(3, 5, 3, padding=1, rng=rng)
        assert conv(rng.standard_normal((2, 3, 8, 8))).shape == (2, 5, 8, 8)

    def test_stride_shape(self, rng):
        conv = Conv2d(1, 2, 3, stride=2, rng=rng)
        assert conv(rng.standard_normal((1, 1, 9, 9))).shape == (1, 2, 4, 4)

    def test_gradients(self, rng):
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5))
        check_layer_gradients(conv, x, rng)

    def test_backward_before_forward_raises(self, rng):
        conv = Conv2d(1, 1, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 3, 3)), ForwardContext())

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3, rng=rng)
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, padding=-1, rng=rng)
        with pytest.raises(TypeError):
            Conv2d(1, 1, 3, rng=42)

    def test_flops_per_image(self, rng):
        conv = Conv2d(1, 16, 3, padding=1, rng=rng)
        # 28x28 output, 16 kernels over 1 channel: 2 * 28*28*16*9 MACs.
        assert conv.flops_per_image(28, 28) == 2 * 28 * 28 * 16 * 9


class TestLinearLayer:
    def test_forward_matches_matmul(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        np.testing.assert_allclose(lin(x), x @ lin.weight.data.T + lin.bias.data)

    def test_gradients(self, rng):
        lin = Linear(4, 3, rng=rng)
        check_layer_gradients(lin, rng.standard_normal((3, 4)), rng)

    def test_wrong_feature_count_raises(self, rng):
        lin = Linear(4, 3, rng=rng)
        with pytest.raises(ValueError):
            lin(rng.standard_normal((2, 5)))

    def test_non_2d_input_raises(self, rng):
        lin = Linear(4, 3, rng=rng)
        with pytest.raises(ValueError):
            lin(rng.standard_normal((2, 4, 1)))


class TestActivations:
    def test_relu_gradients(self, rng):
        check_layer_gradients(ReLU(), rng.standard_normal((3, 4)) + 0.1, rng)

    def test_tanh_gradients(self, rng):
        check_layer_gradients(Tanh(), rng.standard_normal((3, 4)), rng)

    def test_tanh_range(self, rng):
        y = Tanh()(rng.standard_normal((10, 10)) * 5)
        assert np.all(np.abs(y) <= 1.0)


class TestPoolingLayers:
    def test_maxpool_gradients(self, rng):
        # Offset values to avoid ties at the argmax (non-differentiable points).
        x = rng.standard_normal((2, 2, 6, 6)) + np.arange(36).reshape(6, 6) * 0.01
        check_layer_gradients(MaxPool2d(2), x, rng)

    def test_global_avg_pool(self, rng):
        gap = GlobalAvgPool2d()
        x = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_allclose(gap(x), x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradients(self, rng):
        check_layer_gradients(GlobalAvgPool2d(), rng.standard_normal((2, 3, 4, 4)), rng)


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = Flatten()
        x = rng.standard_normal((2, 3, 4, 4))
        ctx = ForwardContext()
        y = flat(x, ctx)
        assert y.shape == (2, 48)
        np.testing.assert_array_equal(flat.backward(y, ctx), x)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng=rng)
        drop.train(False)
        x = rng.standard_normal((4, 8))
        np.testing.assert_array_equal(drop(x), x)

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=make_rng(0))
        drop.train(True)
        x = np.ones((200, 200))
        y = drop(x)
        kept = y != 0
        # Survivors scaled by 1/(1-p) = 2.
        np.testing.assert_allclose(y[kept], 2.0)
        assert 0.4 < kept.mean() < 0.6

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=make_rng(1))
        drop.train(True)
        x = np.ones((10, 10))
        ctx = ForwardContext()
        y = drop(x, ctx)
        g = drop.backward(np.ones_like(x), ctx)
        np.testing.assert_array_equal(g != 0, y != 0)

    def test_p_zero_is_identity_in_train(self, rng):
        drop = Dropout(0.0, rng=rng)
        x = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(drop(x), x)

    def test_invalid_p_rejected(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng=rng)
        with pytest.raises(ValueError):
            Dropout(-0.1, rng=rng)
