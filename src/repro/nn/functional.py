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

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.utils.dtypes import compute_dtype


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

    The one copy of the stride arithmetic behind the im2col gather and
    window pooling — keep it that way: the compiled plans' bitwise
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
        ``(N * out_h * out_w, C * kh * kw)``.  The gather is
        :func:`im2col_into` over a zero-padded copy of ``x``, so training
        and serving share one.
    """
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_out_size(h, kh, stride, 0)
    out_w = conv_out_size(w, kw, stride, 0)
    cols = np.empty((n * out_h * out_w, c * kh * kw), dtype=x.dtype)
    stage = np.empty((c * kh * kw, out_h * out_w), dtype=x.dtype)
    im2col_into(bind_im2col(x, kernel, stride, cols, stage))
    return cols, (out_h, out_w)


class Im2col(NamedTuple):
    """One im2col gather bound to its buffers: every view :func:`im2col_into` reads."""

    #: Per image: its ``(C, kh, kw, out_h, out_w)`` K-major window view of
    #: the padded input, and its ``(out_h*out_w, C*kh*kw)`` rows of the columns.
    images: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    #: The one-image stage as ``(C, kh, kw, out_h, out_w)``, and the same
    #: bytes transposed to one image's ``(out_h*out_w, C*kh*kw)`` columns.
    stage: np.ndarray
    staged: np.ndarray


def bind_im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    out: np.ndarray,
    stage: np.ndarray,
) -> Im2col:
    """Bind the one im2col gather of a pre-padded ``x`` to ``out`` and ``stage``.

    ``x`` must already include any zero padding (compiled plans keep a
    persistent padded arena buffer whose border never changes).  ``out`` is
    a contiguous ``(N*oh*ow, C*kh*kw)`` buffer and ``stage`` a contiguous
    one-image ``(C*kh*kw, oh*ow)`` one; both must be views of memory that
    outlives the binding, since every view is built here, once.  A compiled
    plan binds each conv of each workspace once and gathers through the
    binding on every run, so a run builds no view.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_out_size(h, kh, stride, 0)
    out_w = conv_out_size(w, kw, stride, 0)
    rows = out_h * out_w
    if out.shape != (n * rows, c * kh * kw) or stage.shape != (c * kh * kw, rows):
        raise ValueError(
            f"im2col of {x.shape} with kernel {kernel}, stride {stride} needs columns "
            f"{(n * rows, c * kh * kw)} and a stage {(c * kh * kw, rows)}, "
            f"got {out.shape} and {stage.shape}"
        )
    if not (out.flags.c_contiguous and stage.flags.c_contiguous):
        raise ValueError("im2col columns and stage must be C-contiguous")
    # K-major: the copy's inner axis runs along output columns, not along a
    # kw-element kernel row.
    windows = sliding_windows(x, kh, kw, stride, out_h, out_w).transpose(0, 1, 4, 5, 2, 3)
    return Im2col(
        tuple(zip(windows, out.reshape(n, rows, c * kh * kw))),
        stage.reshape(c, kh, kw, out_h, out_w),
        stage.T,
    )


def im2col_into(gather: Im2col) -> None:
    """The one im2col gather, allocation-free, over a :func:`bind_im2col` binding.

    Each image is gathered K-major into the one-image stage, and the
    stage's transpose is then copied into the image's rows of the columns.
    Only copies, and the call builds no view and allocates nothing.
    """
    stage, staged = gather.stage, gather.staged
    for windows, rows in gather.images:
        np.copyto(stage, windows)
        np.copyto(rows, staged)


def gemm_bias(
    x: np.ndarray, weight_t: np.ndarray, bias: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fused ``x @ weight_t + bias`` written in place into ``out``.

    The linear epilogue of a compiled plan: one BLAS GEMM into an arena
    buffer followed by an in-place broadcast bias add — bitwise identical
    to the eager ``x @ w.T + b`` (``weight_t`` is that ``w.T`` view) but
    with zero temporaries.
    """
    np.dot(x, weight_t, out=out)
    out += bias
    return out


def gemm_bias_relu(
    cols: np.ndarray, weight_t: np.ndarray, bias: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fused conv epilogue: GEMM -> bias -> ReLU, all in place into ``out``.

    Operates on the im2col/GEMM layout ``(rows, C_out)``, ``weight_t``
    being the ``(C_in*kh*kw, C_out)`` transposed view of the weight matrix;
    ReLU commutes with the later NHWC->NCHW transpose, so applying it here
    is bitwise identical to the eager conv -> ReLU sequence.
    """
    np.dot(cols, weight_t, out=out)
    out += bias
    np.maximum(out, 0.0, out=out)
    return out


def pool_windows(x: np.ndarray, kernel: int, stride: int) -> Tuple[np.ndarray, ...]:
    """The ``kernel**2`` strided views of ``x``, one per window offset.

    Each is ``(N, C, out_h, out_w)``: offset ``(i, j)`` of every window.
    Their elementwise max is the max pool of ``x`` (:func:`maxpool2d_into`).
    """
    n, c, h, w = x.shape
    out_h = conv_out_size(h, kernel, stride, 0)
    out_w = conv_out_size(w, kernel, stride, 0)
    return tuple(
        x[:, :, i : i + 1 + stride * (out_h - 1) : stride, j : j + 1 + stride * (out_w - 1) : stride]
        for i in range(kernel)
        for j in range(kernel)
    )


def maxpool2d_into(windows: Tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """Allocation-free inference max pooling: window max written into ``out``.

    ``windows`` is :func:`pool_windows` of the input.  Folds them as
    ``kernel**2 - 1`` pairwise in-place ``np.maximum`` passes — no
    flattened window copy, no index bookkeeping, and each pass is a simple
    4-d elementwise kernel (an order of magnitude faster than a strided
    window reduction).  Max is exact, so the result is bitwise identical
    to the eager reshape-then-max path regardless of fold order.
    """
    np.copyto(out, windows[0])
    for shifted in windows[1:]:
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
        return maxpool2d_into(pool_windows(x, kernel, stride), out), None
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
