"""Gradient and behaviour tests for the unsliced layers."""

import numpy as np
import pytest

from repro.nn.context import ForwardContext
from repro.nn.layers.activation import ReLU
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.layers.reshape import Flatten
from repro.utils.rng import make_rng
from tests.nn.gradcheck import check_layer_gradients

# (kernel, stride, input side): the paper's 2x2/2 pool, a wider window,
# overlapping windows and a side the windows do not tile.
POOLS = [(2, 2, 6), (3, 3, 9), (2, 1, 5), (3, 2, 7)]
POOL_IDS = [f"k{k}s{s}n{n}" for k, s, n in POOLS]


def tie_free(rng, shape):
    """Random input with distinct values, so every window has one argmax."""
    x = rng.permutation(int(np.prod(shape))).reshape(shape).astype(float)
    return x + 0.1 * rng.random(shape)


class TestActivations:
    def test_relu_gradients(self, rng):
        check_layer_gradients(ReLU(), rng.standard_normal((3, 4)) + 0.1, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_forward_is_maximum_and_keeps_dtype(self, rng, dtype):
        x = rng.standard_normal((4, 5)).astype(dtype)
        y = ReLU()(x)
        assert y.dtype == dtype
        np.testing.assert_array_equal(y, np.maximum(x, 0))

    def test_relu_gradient_is_zero_where_input_was_negative(self, rng):
        relu = ReLU()
        x = rng.standard_normal((6, 6))
        ctx = ForwardContext()
        relu(x, ctx)
        grad = relu.backward(np.ones_like(x), ctx)
        np.testing.assert_array_equal(grad, (x > 0).astype(float))


class TestPoolingLayers:
    def test_maxpool_gradients(self, rng):
        # Offset values to avoid ties at the argmax (non-differentiable points).
        x = rng.standard_normal((2, 2, 6, 6)) + np.arange(36).reshape(6, 6) * 0.01
        check_layer_gradients(MaxPool2d(2), x, rng)

    @pytest.mark.parametrize("kernel,stride,size", POOLS, ids=POOL_IDS)
    def test_maxpool_gradients_per_geometry(self, kernel, stride, size):
        rng = make_rng(kernel * 10 + stride)
        x = tie_free(rng, (2, 2, size, size))
        check_layer_gradients(MaxPool2d(kernel, stride), x, rng)

    @pytest.mark.parametrize("kernel,stride,size", POOLS, ids=POOL_IDS)
    def test_maxpool_output_matches_window_max(self, kernel, stride, size):
        rng = make_rng(size)
        x = rng.standard_normal((2, 3, size, size))
        y = MaxPool2d(kernel, stride)(x)
        side = (size - kernel) // stride + 1
        assert y.shape == (2, 3, side, side)
        for i in range(side):
            for j in range(side):
                window = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                np.testing.assert_array_equal(y[:, :, i, j], window.max(axis=(2, 3)))

    def test_maxpool_stride_defaults_to_kernel(self):
        assert MaxPool2d(3).stride == 3

    def test_maxpool_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = Flatten()
        x = rng.standard_normal((2, 3, 4, 4))
        ctx = ForwardContext()
        y = flat(x, ctx)
        assert y.shape == (2, 48)
        np.testing.assert_array_equal(flat.backward(y, ctx), x)

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 2, 5, 1), (2, 4, 3, 7)])
    def test_flattens_all_but_the_batch_axis(self, rng, shape):
        flat = Flatten()
        x = rng.standard_normal(shape)
        ctx = ForwardContext()
        y = flat(x, ctx)
        np.testing.assert_array_equal(y, x.reshape(shape[0], -1))
        np.testing.assert_array_equal(flat.backward(y, ctx), x)


class TestBackwardBeforeForward:
    @pytest.mark.parametrize(
        "layer", [ReLU(), MaxPool2d(2), Flatten()], ids=["relu", "maxpool", "flatten"]
    )
    def test_raises(self, layer):
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 2, 2)), ForwardContext())

    def test_non_recording_context_keeps_no_state(self, rng):
        relu = ReLU()
        ctx = ForwardContext(recording=False)
        relu(rng.standard_normal((2, 3)), ctx)
        with pytest.raises(RuntimeError):
            relu.backward(np.ones((2, 3)), ctx)
