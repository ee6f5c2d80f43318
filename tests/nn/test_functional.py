"""Tests for the stateless numerical kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.utils.rng import make_rng


class TestConvOutSize:
    def test_basic(self):
        assert F.conv_out_size(28, 3, 1, 1) == 28
        assert F.conv_out_size(28, 3, 1, 0) == 26
        assert F.conv_out_size(28, 2, 2, 0) == 14

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            F.conv_out_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self):
        x = make_rng(0).standard_normal((2, 3, 8, 8))
        cols, (oh, ow) = F.im2col(x, (3, 3), stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 64, 3 * 9)

    def test_values_match_naive_window(self):
        rng = make_rng(1)
        x = rng.standard_normal((1, 2, 5, 5))
        cols, (oh, ow) = F.im2col(x, (3, 3), stride=1, padding=0)
        # Window at (i, j) = x[:, :, i:i+3, j:j+3] flattened channel-major.
        for i in range(oh):
            for j in range(ow):
                expected = x[0, :, i : i + 3, j : j + 3].reshape(-1)
                np.testing.assert_array_equal(cols[i * ow + j], expected)

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), c> == <x, col2im(c)> for all c: the defining property
        # of the backward scatter.
        rng = make_rng(2)
        x = rng.standard_normal((2, 3, 6, 6))
        cols, _ = F.im2col(x, (3, 3), 1, 1)
        c = rng.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        back = F.col2im(c, x.shape, (3, 3), 1, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        size=st.integers(5, 9),
        kernel=st.integers(1, 3),
    )
    def test_adjoint_property_randomised(self, stride, padding, size, kernel):
        if size + 2 * padding < kernel:
            return
        rng = make_rng(stride * 100 + padding * 10 + size)
        x = rng.standard_normal((1, 2, size, size))
        cols, _ = F.im2col(x, (kernel, kernel), stride, padding)
        c = rng.standard_normal(cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * F.col2im(c, x.shape, (kernel, kernel), stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestConv2d:
    def test_matches_naive_convolution(self):
        rng = make_rng(3)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y, _ = F.conv2d_forward(x, w, b, stride=1, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros_like(y)
        for n in range(2):
            for co in range(3):
                for i in range(5):
                    for j in range(5):
                        patch = xp[n, :, i : i + 3, j : j + 3]
                        naive[n, co, i, j] = (patch * w[co]).sum() + b[co]
        np.testing.assert_allclose(y, naive, atol=1e-12)

    @pytest.mark.parametrize(
        "kernel,stride,padding,size",
        [(3, 2, 0, 7), (1, 1, 0, 4), (5, 1, 2, 5), (3, 2, 1, 6), (2, 2, 0, 6), (3, 1, 0, 5)],
        ids=["k3s2p0", "k1s1p0", "k5s1p2", "k3s2p1", "k2s2p0", "k3s1p0"],
    )
    def test_matches_naive_convolution_per_geometry(self, kernel, stride, padding, size):
        rng = make_rng(kernel * 100 + stride * 10 + padding)
        x = rng.standard_normal((2, 2, size, size))
        w = rng.standard_normal((3, 2, kernel, kernel))
        b = rng.standard_normal(3)
        y, _ = F.conv2d_forward(x, w, b, stride=stride, padding=padding)
        side = F.conv_out_size(size, kernel, stride, padding)
        assert y.shape == (2, 3, side, side)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        naive = np.zeros_like(y)
        for i in range(side):
            for j in range(side):
                patch = xp[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                naive[:, :, i, j] = np.einsum("ncij,ocij->no", patch, w) + b
        np.testing.assert_allclose(y, naive, atol=1e-12)

    def test_channel_mismatch_raises(self):
        rng = make_rng(0)
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, np.zeros(2), 1, 1)

    def test_backward_shapes(self):
        rng = make_rng(4)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        y, cols = F.conv2d_forward(x, w, np.zeros(4), 1, 1)
        gx, gw, gb = F.conv2d_backward(np.ones_like(y), cols, x.shape, w, 1, 1)
        assert gx.shape == x.shape
        assert gw.shape == w.shape
        assert gb.shape == (4,)


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y, _ = F.maxpool2d_forward(x, 2, 2)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y, argmax = F.maxpool2d_forward(x, 2, 2)
        gx = F.maxpool2d_backward(np.ones_like(y), argmax, x.shape, 2, 2)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_array_equal(gx[0, 0], expected)

    def test_gradient_sum_preserved(self):
        rng = make_rng(5)
        x = rng.standard_normal((2, 3, 8, 8))
        y, argmax = F.maxpool2d_forward(x, 2, 2)
        g = rng.standard_normal(y.shape)
        gx = F.maxpool2d_backward(g, argmax, x.shape, 2, 2)
        assert gx.sum() == pytest.approx(g.sum(), rel=1e-10)

    def test_forward_without_indices_matches(self):
        rng = make_rng(9)
        x = rng.standard_normal((2, 3, 8, 8))
        y_full, argmax = F.maxpool2d_forward(x, 2, 2)
        y_fast, none_indices = F.maxpool2d_forward(x, 2, 2, need_indices=False)
        assert none_indices is None
        np.testing.assert_array_equal(y_fast, y_full)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2), (2, 1)])
    def test_bincount_scatter_matches_add_at(self, kernel, stride):
        """The flat-bincount backward must equal the np.add.at reference,
        including overlapping windows (stride < kernel) where argmax
        destinations collide."""
        rng = make_rng(10)
        x = rng.standard_normal((3, 2, 9, 9))
        y, argmax = F.maxpool2d_forward(x, kernel, stride)
        g = rng.standard_normal(y.shape)

        gx = F.maxpool2d_backward(g, argmax, x.shape, kernel, stride)

        # Reference scatter with np.add.at (the implementation this replaced).
        n, c, h, w = x.shape
        out_h, out_w = y.shape[2], y.shape[3]
        ref = np.zeros(x.shape, dtype=g.dtype)
        di = argmax // kernel
        dj = argmax % kernel
        oh_idx, ow_idx = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
        rows = oh_idx[None, None] * stride + di
        cols = ow_idx[None, None] * stride + dj
        n_idx = np.arange(n)[:, None, None, None]
        c_idx = np.arange(c)[None, :, None, None]
        np.add.at(ref, (n_idx, c_idx, rows, cols), g)

        np.testing.assert_allclose(gx, ref, rtol=0, atol=1e-12)


class TestRelu:
    def test_forward_and_mask(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        y, mask = F.relu_forward(x)
        np.testing.assert_array_equal(y, [[0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(
            F.relu_backward(np.ones_like(x), mask), [[0.0, 0.0, 1.0]]
        )

    def test_forward_without_mask(self):
        x = make_rng(11).standard_normal((4, 5))
        y_full, mask = F.relu_forward(x)
        y_fast, no_mask = F.relu_forward(x, need_mask=False)
        assert no_mask is None
        np.testing.assert_array_equal(y_fast, y_full)
        np.testing.assert_array_equal(y_fast, np.maximum(x, 0))


class TestCastCompute:
    def test_matching_array_returned_unchanged(self):
        """dtype + contiguity match -> the exact same object, no copy."""
        x = np.ascontiguousarray(make_rng(12).standard_normal((3, 4)))
        (out,) = F.cast_compute(True, x)
        assert out is x

    def test_mismatched_dtype_is_converted(self):
        from repro.utils.dtypes import DtypePolicy, dtype_policy

        x = make_rng(13).standard_normal((3, 4))  # float64
        with dtype_policy(DtypePolicy.fast_inference()):
            (out,) = F.cast_compute(False, x)
        assert out.dtype == np.float32 and out.flags.c_contiguous

    def test_non_contiguous_is_made_contiguous(self):
        x = make_rng(14).standard_normal((4, 6))[:, ::2]
        assert not x.flags.c_contiguous
        (out,) = F.cast_compute(True, x)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, x)


class TestIm2ColNoCopy:
    def test_result_is_contiguous(self):
        x = make_rng(15).standard_normal((2, 3, 8, 8))
        cols, _ = F.im2col(x, (3, 3), 1, 1)
        assert cols.flags.c_contiguous

    def test_viewable_1x1_case_still_contiguous(self):
        # 1x1 kernel stride 1: the transpose-reshape can be expressible as
        # a view of the strided windows; the guard must still hand back a
        # contiguous matrix.
        x = make_rng(16).standard_normal((2, 3, 5, 5))
        cols, (oh, ow) = F.im2col(x, (1, 1), 1, 0)
        assert cols.flags.c_contiguous
        np.testing.assert_array_equal(
            cols, x.transpose(0, 2, 3, 1).reshape(2 * 25, 3)
        )

    def test_padding_zero_takes_no_pad_roundtrip(self):
        # With padding=0 the unfold runs on the original storage: the
        # column values are strided reads of x itself.
        x = make_rng(17).standard_normal((1, 2, 6, 6))
        cols, _ = F.im2col(x, (3, 3), 1, 0)
        np.testing.assert_array_equal(cols[0], x[0, :, :3, :3].reshape(-1))


class TestFusedKernels:
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 0), (3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0)])
    def test_gather_matches_a_per_window_loop(self, kernel, stride, padding):
        # F.im2col is F.im2col_into over a padded copy, so both are checked
        # against windows sliced out one at a time.
        x = make_rng(18).standard_normal((2, 3, 8, 7))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh = (8 + 2 * padding - kernel) // stride + 1
        ow = (7 + 2 * padding - kernel) // stride + 1
        windows = np.array([
            padded[i, :, r * stride : r * stride + kernel, q * stride : q * stride + kernel].ravel()
            for i in range(2) for r in range(oh) for q in range(ow)
        ])
        cols, out_hw = F.im2col(x, (kernel, kernel), stride, padding)
        assert out_hw == (oh, ow)
        np.testing.assert_array_equal(cols, windows)
        out = np.full_like(windows, np.nan)
        stage = np.full((3 * kernel * kernel, oh * ow), np.nan)
        F.im2col_into(F.bind_im2col(padded, (kernel, kernel), stride, out, stage))
        np.testing.assert_array_equal(out, windows)

    def test_gemm_bias_matches_eager(self):
        rng = make_rng(19)
        x = rng.standard_normal((5, 7))
        w = rng.standard_normal((4, 7))
        b = rng.standard_normal(4)
        out = np.empty((5, 4))
        F.gemm_bias(x, w.T, b, out)
        np.testing.assert_array_equal(out, x @ w.T + b)

    def test_gemm_bias_relu_matches_eager(self):
        rng = make_rng(20)
        cols = rng.standard_normal((6, 9))
        w = rng.standard_normal((3, 9))
        b = rng.standard_normal(3)
        out = np.empty((6, 3))
        F.gemm_bias_relu(cols, w.T, b, out)
        np.testing.assert_array_equal(out, np.maximum(cols @ w.T + b, 0.0))

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2)])
    def test_maxpool2d_into_matches_eager(self, kernel, stride):
        rng = make_rng(21)
        x = rng.standard_normal((2, 3, 9, 9))
        # Compare against the index-carrying reduction, not need_indices=False
        # (which now reuses maxpool2d_into itself).
        ref, _ = F.maxpool2d_forward(x, kernel, stride, need_indices=True)
        out = np.empty_like(ref)
        F.maxpool2d_into(F.pool_windows(x, kernel, stride), out)
        np.testing.assert_array_equal(out, ref)

    @given(
        seed=st.integers(0, 2**31 - 1),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        extra=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_eager_indexless_pool_is_bitwise_the_argmax_path(
        self, seed, kernel, stride, extra
    ):
        """The eager inference pool (the ported pairwise fold) stays bitwise
        identical to the argmax reduction for every window geometry — max is
        exact, so fold order cannot matter."""
        size = kernel + extra
        x = make_rng(seed).standard_normal((2, 2, size, size))
        indexed, argmax = F.maxpool2d_forward(x, kernel, stride, need_indices=True)
        folded, no_idx = F.maxpool2d_forward(x, kernel, stride, need_indices=False)
        assert argmax is not None and no_idx is None
        np.testing.assert_array_equal(folded, indexed)


#: Values a GEMM tile may hold that order or round specially.
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


class TestPoolFirstEpilogue:
    """A compiled plan's pooled conv block pools the raw GEMM tile, then adds
    bias and applies ReLU on the pooled tile; the eager layers add bias,
    apply ReLU, then pool.  Rounding is monotone, so max(a + b, c + b) ==
    max(a, c) + b, and ReLU commutes with max: the two orders agree bit for
    bit, signed zeros and NaNs included."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        geometry=st.sampled_from([(2, 2), (3, 2), (2, 1), (3, 1)]),
        n=st.integers(1, 3),
        channels=st.integers(1, 5),
        extra=st.integers(0, 4),
        # Tiles far below the bias make distinct values round to one sum.
        scale=st.sampled_from([1e-30, 1e-8, 1.0, 1e8]),
        ties=st.floats(0.0, 0.6),
        specials=st.floats(0.0, 0.4),
    )
    @settings(max_examples=200, deadline=None)
    def test_pool_then_bias_relu_is_bias_relu_then_pool(
        self, seed, dtype, geometry, n, channels, extra, scale, ties, specials
    ):
        kernel, stride = geometry
        size = kernel + extra
        rng = make_rng(seed)
        # The GEMM tile as the plan holds it: NHWC-flat rows, one per pixel.
        tile = (rng.standard_normal((n, size, size, channels)) * scale).astype(dtype)
        tied = rng.random(tile.shape) < ties
        tile[tied] = np.roll(tile, 1, axis=2)[tied]  # a window neighbour's value
        special = rng.random(tile.shape) < specials
        tile[special] = rng.choice(SPECIALS, special.sum())
        bias = rng.standard_normal(channels).astype(dtype)
        bias[rng.random(channels) < 0.3] = rng.choice([0.0, -0.0])

        out = F.conv_out_size(size, kernel, stride, 0)
        pooled = np.empty((n, out, out, channels), dtype=dtype)  # channel-last
        F.maxpool2d_into(
            F.pool_windows(tile.transpose(0, 3, 1, 2), kernel, stride),
            pooled.transpose(0, 3, 1, 2),
        )
        np.add(pooled, bias, out=pooled)
        np.maximum(pooled, 0.0, out=pooled)
        got = pooled.transpose(0, 3, 1, 2)

        activated, _ = F.relu_forward(tile + bias, need_mask=False)
        want, _ = F.maxpool2d_forward(
            np.ascontiguousarray(activated.transpose(0, 3, 1, 2)), kernel, stride,
            need_indices=False,
        )
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
