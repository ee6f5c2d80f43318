"""Tests for sliced conv/linear layers: correctness against dense layers,
gradient routing into the full-width store, and slice validation."""

import numpy as np
import pytest

from repro.nn import ForwardContext
from repro.nn import functional as F
from repro.slimmable import ChannelSlice, SlicedConv2d, SlicedLinear
from repro.utils import make_rng
from tests.nn.gradcheck import numerical_grad_wrt_array


def conv_ctx(conv, in_slice, out_slice):
    """A recording context that binds ``conv`` to one validated sub-block."""
    ctx = ForwardContext()
    in_slice, out_slice = conv.resolve_slices(in_slice, out_slice)
    ctx.bind(conv, in_slice=in_slice, out_slice=out_slice)
    return ctx


def linear_ctx(lin, feature_slice):
    """A recording context that binds ``lin`` to one validated feature slice."""
    ctx = ForwardContext()
    ctx.bind(lin, feature_slice=lin.resolve_feature_slice(feature_slice))
    return ctx


class TestSlicedConvForward:
    def test_full_slice_matches_dense_conv(self, rng):
        conv = SlicedConv2d(3, 5, 3, padding=1, rng=rng)
        x = rng.standard_normal((2, 3, 6, 6))
        y = conv(x)
        dense, _ = F.conv2d_forward(x, conv.weight.data, conv.bias.data, 1, 1)
        np.testing.assert_allclose(y, dense)

    def test_sub_slice_matches_manual_slice(self, rng):
        conv = SlicedConv2d(4, 6, 3, padding=1, rng=rng)
        ctx = conv_ctx(conv, ChannelSlice(1, 3), ChannelSlice(2, 5))
        x = rng.standard_normal((2, 2, 5, 5))
        y = conv(x, ctx)
        w = conv.weight.data[2:5, 1:3]
        b = conv.bias.data[2:5]
        expected, _ = F.conv2d_forward(x, np.ascontiguousarray(w), b, 1, 1)
        np.testing.assert_allclose(y, expected)

    def test_wrong_input_channels_raises(self, rng):
        conv = SlicedConv2d(4, 6, 3, rng=rng)
        ctx = conv_ctx(conv, ChannelSlice(0, 2), ChannelSlice(0, 3))
        with pytest.raises(ValueError):
            conv(rng.standard_normal((1, 4, 5, 5)), ctx)

    def test_slice_bounds_validated(self, rng):
        conv = SlicedConv2d(4, 6, 3, rng=rng)
        with pytest.raises(ValueError):
            conv.resolve_slices(ChannelSlice(0, 5), ChannelSlice(0, 6))
        with pytest.raises(ValueError):
            conv.resolve_slices(ChannelSlice(0, 4), ChannelSlice(0, 7))

    def test_slice_input_false_ignores_in_slice(self, rng):
        conv = SlicedConv2d(1, 6, 3, padding=1, slice_input=False, rng=rng)
        ctx = conv_ctx(conv, ChannelSlice(0, 1), ChannelSlice(2, 4))
        x = rng.standard_normal((1, 1, 5, 5))
        assert conv(x, ctx).shape == (1, 2, 5, 5)


class TestSlicedConvBackward:
    def test_gradients_land_only_in_active_block(self, rng):
        conv = SlicedConv2d(4, 6, 3, padding=1, rng=rng)
        ctx = conv_ctx(conv, ChannelSlice(1, 3), ChannelSlice(2, 5))
        x = rng.standard_normal((2, 2, 5, 5))
        y = conv(x, ctx)
        conv.zero_grad()
        conv.backward(np.ones_like(y), ctx)
        grad = conv.weight.grad
        active = grad[2:5, 1:3]
        assert np.abs(active).sum() > 0
        total = np.abs(grad).sum()
        assert total == pytest.approx(np.abs(active).sum())
        bias_grad = conv.bias.grad
        assert not bias_grad[:2].any() and not bias_grad[5:].any()

    def test_weight_gradient_matches_numerical(self, rng):
        conv = SlicedConv2d(3, 4, 3, padding=1, rng=rng)
        slices = (ChannelSlice(0, 2), ChannelSlice(1, 4))
        x = rng.standard_normal((1, 2, 4, 4))
        g = rng.standard_normal((1, 3, 4, 4))

        def objective():
            return float((conv(x, conv_ctx(conv, *slices)) * g).sum())

        conv.zero_grad()
        ctx = conv_ctx(conv, *slices)
        conv(x, ctx)
        grad_x = conv.backward(g, ctx)
        num_w = numerical_grad_wrt_array(objective, conv.weight.data)
        np.testing.assert_allclose(conv.weight.grad, num_w, atol=1e-6)
        num_x = numerical_grad_wrt_array(objective, x)
        np.testing.assert_allclose(grad_x, num_x, atol=1e-6)

    def test_flops_scale_with_slice(self, rng):
        conv = SlicedConv2d(8, 8, 3, padding=1, rng=rng)
        full = conv.flops_per_image(10, 10, ChannelSlice(0, 8), ChannelSlice(0, 8))
        quarter = conv.flops_per_image(10, 10, ChannelSlice(0, 4), ChannelSlice(0, 4))
        assert quarter * 4 == full


class TestSlicedLinear:
    def test_full_slice_matches_dense(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        x = rng.standard_normal((4, 8))
        np.testing.assert_allclose(lin(x), x @ lin.weight.data.T + lin.bias.data)

    def test_sub_slice_matches_manual(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        ctx = linear_ctx(lin, ChannelSlice(2, 6))
        x = rng.standard_normal((4, 4))
        expected = x @ lin.weight.data[:, 2:6].T + lin.bias.data
        np.testing.assert_allclose(lin(x, ctx), expected)

    def test_gradients_only_in_active_columns(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        ctx = linear_ctx(lin, ChannelSlice(2, 6))
        y = lin(rng.standard_normal((4, 4)), ctx)
        lin.zero_grad()
        lin.backward(np.ones_like(y), ctx)
        grad = lin.weight.grad
        assert not grad[:, :2].any() and not grad[:, 6:].any()
        assert grad[:, 2:6].any()

    def test_bias_always_full(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        ctx = linear_ctx(lin, ChannelSlice(0, 4))
        y = lin(rng.standard_normal((2, 4)), ctx)
        lin.zero_grad()
        lin.backward(np.ones_like(y), ctx)
        assert lin.bias.grad.shape == (3,)
        assert lin.bias.grad.all()

    def test_slice_bounds_validated(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        with pytest.raises(ValueError):
            lin.resolve_feature_slice(ChannelSlice(0, 9))

    def test_wrong_input_width_raises(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        ctx = linear_ctx(lin, ChannelSlice(0, 4))
        with pytest.raises(ValueError):
            lin(rng.standard_normal((2, 8)), ctx)
