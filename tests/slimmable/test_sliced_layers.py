"""Tests for sliced conv/linear layers: correctness against dense layers,
gradient routing into the full-width store, and slice validation."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.context import ForwardContext
from repro.slimmable.sliced_conv import SlicedConv2d
from repro.slimmable.sliced_linear import SlicedLinear
from repro.slimmable.spec import ChannelSlice
from repro.utils.rng import make_rng
from tests.nn.gradcheck import check_layer_gradients, numerical_grad_wrt_array


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

    def test_full_slice_gradients(self, rng):
        # Input, weight and bias against central differences: the one full
        # numerical check of F.conv2d_backward.
        conv = SlicedConv2d(2, 3, 3, padding=1, rng=rng)
        check_layer_gradients(conv, rng.standard_normal((2, 2, 5, 5)), rng)

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

    def test_full_slice_gradients(self, rng):
        lin = SlicedLinear(4, 3, rng=rng)
        check_layer_gradients(lin, rng.standard_normal((3, 4)), rng)

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


# (kernel, stride, padding, input side): every lowering the paper net uses
# (3x3, pad 1) plus the strided, unpadded and wide-kernel corners.
GEOMETRIES = [
    (3, 1, 1, 6),
    (3, 2, 0, 7),
    (1, 1, 0, 4),
    (5, 1, 2, 5),
    (3, 2, 1, 6),
    (2, 2, 0, 6),
]
GEOMETRY_IDS = [f"k{k}s{s}p{p}n{n}" for k, s, p, n in GEOMETRIES]

# (in_slice, out_slice) of a 4 -> 5 channel layer: full, lower, inner, upper.
CONV_SLICES = [
    ((0, 4), (0, 5)),
    ((0, 2), (0, 3)),
    ((1, 3), (1, 4)),
    ((2, 4), (3, 5)),
]
CONV_SLICE_IDS = ["full", "lower", "inner", "upper"]


class TestSlicedConvGeometry:
    @pytest.mark.parametrize("kernel,stride,padding,size", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_output_shape(self, rng, kernel, stride, padding, size):
        conv = SlicedConv2d(3, 5, kernel, stride=stride, padding=padding, rng=rng)
        side = F.conv_out_size(size, kernel, stride, padding)
        assert side == (size + 2 * padding - kernel) // stride + 1
        assert conv(rng.standard_normal((2, 3, size, size))).shape == (2, 5, side, side)

    def test_flops_per_image_counts_every_mac(self, rng):
        conv = SlicedConv2d(1, 16, 3, padding=1, slice_input=False, rng=rng)
        # 28x28 output, 16 kernels over 1 channel: 2 * 28*28*16*9 MACs.
        flops = conv.flops_per_image(28, 28, ChannelSlice(0, 1), ChannelSlice(0, 16))
        assert flops == 2 * 28 * 28 * 16 * 9

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ValueError):
            SlicedConv2d(0, 1, 3, rng=rng)
        with pytest.raises(ValueError):
            SlicedConv2d(1, 0, 3, rng=rng)
        with pytest.raises(TypeError):
            SlicedConv2d(1, 1, 3, rng=42)

    def test_num_parameters_is_the_full_store(self, rng):
        conv = SlicedConv2d(4, 6, 3, rng=rng)
        assert conv.num_parameters() == 6 * 4 * 3 * 3 + 6

    def test_backward_before_forward_raises(self, rng):
        conv = SlicedConv2d(1, 1, 3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 3, 3)), ForwardContext())


class TestSlicedConvGradcheck:
    @pytest.mark.parametrize("slices", CONV_SLICES, ids=CONV_SLICE_IDS)
    @pytest.mark.parametrize("kernel,stride,padding,size", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_gradients(self, kernel, stride, padding, size, slices):
        # Input, weight and bias of one sub-block against central
        # differences, on every geometry F.conv2d_backward must invert.
        rng = make_rng(kernel * 100 + stride * 10 + padding)
        conv = SlicedConv2d(4, 5, kernel, stride=stride, padding=padding, rng=rng)
        in_slice, out_slice = (ChannelSlice(*s) for s in slices)
        x = rng.standard_normal((2, in_slice.width, size, size))
        check_layer_gradients(
            conv,
            x,
            rng,
            bind=lambda ctx: ctx.bind(conv, in_slice=in_slice, out_slice=out_slice),
        )


class TestSlicedLinearChecks:
    @pytest.mark.parametrize("start,stop", [(0, 6), (0, 3), (2, 5), (4, 6)])
    def test_sub_slice_gradients(self, start, stop):
        rng = make_rng(start * 10 + stop)
        lin = SlicedLinear(6, 3, rng=rng)
        feature_slice = ChannelSlice(start, stop)
        check_layer_gradients(
            lin,
            rng.standard_normal((3, feature_slice.width)),
            rng,
            bind=lambda ctx: ctx.bind(lin, feature_slice=feature_slice),
        )

    def test_non_2d_input_raises(self, rng):
        lin = SlicedLinear(4, 3, rng=rng)
        with pytest.raises(ValueError):
            lin(rng.standard_normal((2, 4, 1)))

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ValueError):
            SlicedLinear(0, 3, rng=rng)
        with pytest.raises(ValueError):
            SlicedLinear(4, 0, rng=rng)
        with pytest.raises(TypeError):
            SlicedLinear(4, 3, rng=7)

    def test_flops_per_image(self, rng):
        lin = SlicedLinear(8, 3, rng=rng)
        assert lin.flops_per_image(ChannelSlice(2, 6)) == 2 * 4 * 3

    def test_num_parameters_is_the_full_store(self, rng):
        assert SlicedLinear(8, 3, rng=rng).num_parameters() == 8 * 3 + 3

    def test_backward_before_forward_raises(self, rng):
        lin = SlicedLinear(4, 3, rng=rng)
        with pytest.raises(RuntimeError):
            lin.backward(np.zeros((2, 3)), ForwardContext())
