"""Stateless numerical kernels used by the layer classes.

The convolution kernels use the im2col/col2im formulation: a convolution is
lowered to a single GEMM, and its backward pass is two GEMMs plus a col2im
scatter.  For the paper's model sizes (28x28 inputs, <=16 channels) this is
comfortably fast in numpy.

All kernels operate on NCHW-ordered arrays and are dtype-polymorphic: they
compute in whatever float dtype the caller hands them.  The layer classes
pick that dtype from the global :class:`~repro.utils.dtypes.DtypePolicy`
(float64 by default; float32 on the inference fast path) via
:func:`cast_compute`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.dtypes import compute_dtype

#: Convolution backends a compiled plan (and the CLI/config layer) may
#: select.  ``im2col`` is the default and bitwise-identical to the eager
#: path; ``shifted-gemm`` accumulates kernel-column offset GEMMs over a
#: rolling row panel — no ``(rows, C*k*k)`` column matrix and no strided
#: per-window gather, but a *relaxed* equality contract (allclose, not
#: bitwise: the GEMM reduction is re-associated across kernel columns).
CONV_BACKENDS = ("im2col", "shifted-gemm")

#: The shifted-GEMM relaxed-equality contract, per compute dtype: outputs
#: must be allclose to the im2col path within these tolerances (the only
#: divergence is reduction re-association across kernel columns, so the
#: bound is a few ulps of accumulated rounding — measured maxima sit well
#: inside these).  Tests and benches assert through this one table.
SHIFTED_GEMM_TOLERANCE = {
    "float32": {"rtol": 1e-4, "atol": 1e-5},
    "float64": {"rtol": 1e-9, "atol": 1e-12},
}


def shifted_gemm_tolerance(dtype) -> dict:
    """``{rtol, atol}`` of the shifted-GEMM contract for ``dtype``."""
    name = np.dtype(dtype).name
    try:
        return SHIFTED_GEMM_TOLERANCE[name]
    except KeyError:
        raise ValueError(f"no shifted-GEMM tolerance defined for dtype {name!r}")


def check_conv_backend(name: str) -> str:
    """Validate a conv-backend name (the one place the list is enforced)."""
    if name not in CONV_BACKENDS:
        raise ValueError(
            f"unknown conv backend {name!r}; expected one of {CONV_BACKENDS}"
        )
    return name


def cast_compute(training: bool, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Cast arrays to the policy's compute dtype for the given mode.

    An array already in the compute dtype and C-contiguous is returned
    as-is (same object, no copy and no numpy dispatch) — on the serving
    hot path that is every activation after the first layer, so only
    genuinely mismatched inputs pay the ``ascontiguousarray`` conversion.
    """
    dtype = compute_dtype(training)
    return tuple(
        a if a.dtype == dtype and a.flags.c_contiguous
        else np.ascontiguousarray(a, dtype=dtype)
        for a in arrays
    )


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def sliding_windows(
    x: np.ndarray, kh: int, kw: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``(N, C, out_h, out_w, kh, kw)`` window view of ``x``.

    The one copy of the stride arithmetic behind im2col (both variants)
    and window pooling — keep it that way: the compiled plans' bitwise
    equality with the eager path rests on both reading windows through
    identical views.
    """
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(x.shape[0], x.shape[1], out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold sliding windows of ``x`` into a matrix.

    Args:
        x: input of shape ``(N, C, H, W)``.
        kernel: ``(kh, kw)`` window size.
        stride: window stride (same in both dims).
        padding: zero padding (same on all sides).

    Returns:
        ``(cols, (out_h, out_w))`` where ``cols`` has shape
        ``(N * out_h * out_w, C * kh * kw)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_out_size(h, kh, stride, padding)
    out_w = conv_out_size(w, kw, stride, padding)

    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    windows = sliding_windows(x, kh, kw, stride, out_h, out_w)
    # -> (N, out_h, out_w, C, kh, kw) -> (N*out_h*out_w, C*kh*kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    # The reshape of the transposed strided view almost always had to copy
    # (and that copy is C-contiguous); only the rare viewable cases (e.g.
    # 1x1 kernels) still need an explicit contiguous conversion.
    if not cols.flags.c_contiguous:
        cols = np.ascontiguousarray(cols)
    return cols, (out_h, out_w)


def im2col_into(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    out: np.ndarray,
) -> Tuple[int, int]:
    """Allocation-free :func:`im2col` for pre-padded inputs.

    ``x`` must already include any zero padding (compiled plans keep a
    persistent padded arena buffer whose border never changes).  The unfold
    is written straight into ``out`` — a contiguous ``(N*oh*ow, C*kh*kw)``
    workspace buffer — via a strided-view copy, so the call allocates
    nothing.  Returns ``(out_h, out_w)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_out_size(h, kh, stride, 0)
    out_w = conv_out_size(w, kw, stride, 0)
    windows = sliding_windows(x, kh, kw, stride, out_h, out_w)
    # out is contiguous, so the 6-d reshape is a view; copyto then performs
    # the same (N, oh, ow, C, kh, kw) gather im2col's transpose-reshape does.
    src = windows.transpose(0, 2, 3, 1, 4, 5)
    dst = out.reshape(n, out_h, out_w, c, kh, kw)
    np.copyto(dst, src)
    return out_h, out_w


# -- shifted-GEMM convolution -------------------------------------------------
#
# A stride-1 convolution over a zero-padded input is a sum of kernel-offset
# products.  Flatten each channel's padded image to one long row (plus a
# shared inter-image tail so offset reads never leave the buffer) and the
# windows at kernel offset (i, j) become the *contiguous* slice starting at
# ``i*padded_w + j`` — so the convolution is k (kernel-column) GEMMs over a
# rolling row panel, accumulated in place, with the valid output pixels
# sitting in a strided view of the wide result.  No ``(rows, C*k*k)`` column
# matrix is ever built and nothing is gathered per window; the only copies
# are whole-row memcpys into the panel.  The price is a relaxed equality
# contract: the reduction over kernel columns is re-associated, so outputs
# are allclose — not bitwise-equal — to the im2col path.


def shifted_tail(kernel: int, padded_w: int) -> int:
    """Extra zero elements a flattened arena needs past its last image."""
    return (kernel - 1) * padded_w + (kernel - 1)


def shifted_panel_fill(
    xflat: np.ndarray, panel: np.ndarray, kernel: int, padded_w: int, shift: int
) -> None:
    """Fill the ``(C*kh, L)`` row panel for kernel-column ``shift``.

    Row ``ci*kh + i`` is the contiguous slice
    ``xflat[ci, i*padded_w + shift :][:L]`` — one memcpy per (channel, kernel
    row): the strided per-window gather the im2col backends pay is gone.
    """
    c_kh, length = panel.shape
    kh = kernel
    view = panel.reshape(c_kh // kh, kh, length)
    for i in range(kh):
        start = i * padded_w + shift
        np.copyto(view[:, i, :], xflat[:, start : start + length])


def shifted_gemm_conv(
    xflat: np.ndarray,
    w_panels: np.ndarray,
    panel: np.ndarray,
    wide: np.ndarray,
    scratch: np.ndarray,
    kernel: int,
    padded_w: int,
) -> np.ndarray:
    """Sum of ``kernel`` column-offset GEMMs accumulated in place into ``wide``.

    Args:
        xflat: ``(C, N*Hp*Wp + tail)`` flattened padded input arena.
        w_panels: ``(kw, C_out, C*kh)`` packed weights — ``w_panels[j]`` is
            the GEMM operand for kernel column ``j``.
        panel: ``(C*kh, L)`` rolling row-panel buffer, refilled per column.
        wide: ``(C_out, L)`` wide output arena (valid pixels are a strided
            subset; garbage columns fall in padding/tail positions).
        scratch: ``(C_out, L)`` accumulation scratch.
        kernel / padded_w: offset geometry.

    All operands are C-contiguous, so every GEMM runs copy-free in BLAS and
    the call allocates nothing.
    """
    for j in range(kernel):
        shifted_panel_fill(xflat, panel, kernel, padded_w, j)
        if j == 0:
            np.dot(w_panels[0], panel, out=wide)
        else:
            np.dot(w_panels[j], panel, out=scratch)
            wide += scratch
    return wide


def bias_act_into(src: np.ndarray, bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Broadcast-add a leading-axis bias into ``out``, then ReLU it.

    ``src``/``out`` are channel-major ``(C_out, ...)`` views (either may be
    strided); used by the shifted-GEMM epilogue to land the valid window of
    the wide GEMM result straight in the next layer's arena.
    """
    np.add(src, bias.reshape((-1,) + (1,) * (src.ndim - 1)), out=out)
    np.maximum(out, 0.0, out=out)
    return out


def conv2d_shifted(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int
) -> np.ndarray:
    """Reference stride-1 convolution via shifted GEMMs (allocating).

    The self-contained form of the kernel trio above, for tests and eager
    comparisons: allocates its own arena/panel/wide buffers per call.  Use
    a compiled plan with ``conv_backend="shifted-gemm"`` for the
    allocation-free serving path.
    """
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = weight.shape
    if c != c_in:
        raise ValueError(f"input has {c} channels, weight expects {c_in}")
    if kh != kw:
        raise ValueError("shifted-GEMM expects square kernels")
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = conv_out_size(h, kh, 1, padding)
    out_w = conv_out_size(w, kw, 1, padding)
    block = hp * wp
    tail = shifted_tail(kh, wp)
    xflat = np.zeros((c, n * block + tail), dtype=x.dtype)
    interior = xflat[:, : n * block].reshape(c, n, hp, wp)[
        :, :, padding : padding + h, padding : padding + w
    ]
    np.copyto(interior, x.transpose(1, 0, 2, 3))
    w_panels = np.ascontiguousarray(
        weight.transpose(3, 0, 1, 2).reshape(kw, c_out, c_in * kh)
    )
    length = n * block
    panel = np.empty((c * kh, length), dtype=x.dtype)
    wide = np.empty((c_out, length), dtype=x.dtype)
    scratch = np.empty((c_out, length), dtype=x.dtype)
    shifted_gemm_conv(xflat, w_panels, panel, wide, scratch, kh, wp)
    valid = wide.reshape(c_out, n, hp, wp)[:, :, :out_h, :out_w]
    y = valid.transpose(1, 0, 2, 3) + bias[None, :, None, None]
    return np.ascontiguousarray(y)


def gemm_bias(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fused ``x @ weight.T + bias`` written in place into ``out``.

    The linear epilogue of a compiled plan: one BLAS GEMM into an arena
    buffer followed by an in-place broadcast bias add — bitwise identical
    to the eager ``x @ w.T + b`` but with zero temporaries.
    """
    np.dot(x, weight.T, out=out)
    out += bias
    return out


def gemm_bias_relu(
    cols: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fused conv epilogue: GEMM -> bias -> ReLU, all in place into ``out``.

    Operates on the im2col/GEMM layout ``(rows, C_out)``; ReLU commutes
    with the later NHWC->NCHW transpose, so applying it here is bitwise
    identical to the eager conv -> ReLU sequence.
    """
    np.dot(cols, weight.T, out=out)
    out += bias
    np.maximum(out, 0.0, out=out)
    return out


def maxpool2d_into(x: np.ndarray, kernel: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Allocation-free inference max pooling: window max written into ``out``.

    Folds the window as ``kernel**2`` pairwise in-place ``np.maximum``
    passes over strided offset views — no flattened window copy, no index
    bookkeeping, and each pass is a simple 4-d elementwise kernel (an
    order of magnitude faster than a strided window reduction).  Max is
    exact, so the result is bitwise identical to the eager
    reshape-then-max path regardless of fold order.
    """
    n, c, h, w = x.shape
    out_h = conv_out_size(h, kernel, stride, 0)
    out_w = conv_out_size(w, kernel, stride, 0)
    np.copyto(out, x[:, :, : 1 + stride * (out_h - 1) : stride, : 1 + stride * (out_w - 1) : stride])
    for i in range(kernel):
        for j in range(kernel):
            if i == 0 and j == 0:
                continue
            shifted = x[
                :, :, i : i + 1 + stride * (out_h - 1) : stride,
                j : j + 1 + stride * (out_w - 1) : stride,
            ]
            np.maximum(out, shifted, out=out)
    return out


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image layout."""
    n, c, h, w = x_shape
    kh, kw = kernel
    out_h = conv_out_size(h, kh, stride, padding)
    out_w = conv_out_size(w, kw, stride, padding)

    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)

    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, :, :, i, j]

    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Convolution forward pass.

    Args:
        x: ``(N, C_in, H, W)`` input.
        weight: ``(C_out, C_in, kh, kw)`` kernels.
        bias: ``(C_out,)`` bias.

    Returns:
        ``(y, cols)`` where ``y`` is ``(N, C_out, out_h, out_w)`` and ``cols``
        is the im2col matrix cached for the backward pass.
    """
    n = x.shape[0]
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {c_in}")
    cols, (out_h, out_w) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_out, c_in * kh * kw)
    y = cols @ w_mat.T + bias
    y = y.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(y), cols


def conv2d_backward(
    grad_y: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convolution backward pass.

    Returns ``(grad_x, grad_weight, grad_bias)``.
    """
    n, c_out = grad_y.shape[0], grad_y.shape[1]
    c_out_w, c_in, kh, kw = weight.shape
    if c_out != c_out_w:
        raise ValueError(f"grad has {c_out} channels, weight has {c_out_w}")
    # (N, C_out, oh, ow) -> (N*oh*ow, C_out)
    grad_mat = grad_y.transpose(0, 2, 3, 1).reshape(-1, c_out)
    grad_bias = grad_mat.sum(axis=0)
    grad_weight = (grad_mat.T @ cols).reshape(c_out, c_in, kh, kw)
    w_mat = weight.reshape(c_out, c_in * kh * kw)
    grad_cols = grad_mat @ w_mat
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_bias


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, need_indices: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Max pooling forward; returns ``(y, argmax)`` with flat window indices.

    ``need_indices=False`` (inference: no backward will run) skips the
    argmax/gather entirely and reuses the plan path's pairwise
    :func:`maxpool2d_into` fold — an order of magnitude faster than the
    flattened window reduction, and bitwise identical to it (max is exact,
    so the fold order cannot matter).
    """
    n, c, h, w = x.shape
    out_h = conv_out_size(h, kernel, stride, 0)
    out_w = conv_out_size(w, kernel, stride, 0)
    if not need_indices:
        out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
        return maxpool2d_into(x, kernel, stride, out), None
    windows = sliding_windows(x, kernel, kernel, stride, out_h, out_w)
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(y), argmax


def maxpool2d_backward(
    grad_y: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Max pooling backward: route gradients to winning window positions.

    The scatter-add is a flat ``np.bincount`` over raveled destination
    indices — argmax positions can collide when ``stride < kernel``, and
    bincount is far faster than the fancy-indexed ``np.add.at`` it replaces.
    """
    n, c, h, w = x_shape
    out_h, out_w = grad_y.shape[2], grad_y.shape[3]
    # Decompose flat window index into (di, dj) offsets.
    di = argmax // kernel
    dj = argmax % kernel
    rows = np.arange(out_h)[:, None] * stride + di
    cols = np.arange(out_w)[None, :] * stride + dj
    plane = (
        np.arange(n)[:, None, None, None] * c + np.arange(c)[None, :, None, None]
    ) * (h * w)
    flat_idx = plane + rows * w + cols
    grad_x = np.bincount(
        flat_idx.ravel(), weights=grad_y.ravel(), minlength=n * c * h * w
    )
    return grad_x.reshape(x_shape).astype(grad_y.dtype, copy=False)


def relu_forward(
    x: np.ndarray, need_mask: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """ReLU forward; the mask is computed only when a backward pass needs it."""
    y = np.maximum(x, 0)
    return y, (x > 0) if need_mask else None


def relu_backward(grad_y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_y * mask
