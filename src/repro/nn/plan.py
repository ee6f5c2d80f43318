"""Compiled inference plans: the arena-backed serving hot path.

Eager slimmable inference re-derives everything per request: each
``SlicedConv2d`` call resolves its channel slices, copies the active weight
sub-block into a contiguous compute-dtype array, allocates fresh im2col /
GEMM / activation temporaries, and pads the input — millions of times for
the same ``(width, batch-shape, dtype)``.  An :class:`InferencePlan` does
all of that exactly once:

* :meth:`InferencePlan.compile` walks the network for one sub-network spec
  and precomputes every layer's geometry (output spatial sizes, im2col
  column shapes, classifier feature slice) plus the arena
  :class:`~repro.nn.workspace.BufferSpec` set the pass needs — each
  transient with the kernel steps it ``live``\\ s through, so a workspace
  lays buffers that never meet over the same bytes (the padded ``in*``
  input arenas and ``logits`` declare none: they keep bytes of their own);
* a :class:`PackedWeightCache` holds contiguous compute-dtype copies of
  each layer's active weight sub-block, keyed by ``(layer, slices, dtype)``
  and invalidated by the :class:`~repro.nn.parameter.Parameter` version
  counter (bumped by optimizer steps / ``load_state_dict``), so weight
  slicing and casting vanish from the steady-state hot path;
* :meth:`InferencePlan.run` executes the pass through fused in-place
  kernels into a workspace checked out from the plan's
  :class:`~repro.nn.workspace.WorkspacePool`.  A warm run allocates no
  array beyond the returned logits and retains nothing; NumPy's iterator
  buffers (``gemm += bias``, ``maxpool2d_into``) are transient, ~76 KB at
  1 row and ~194 KB at 16 rows of ``lower100`` under ``tracemalloc``.

Convolution lowering is **pluggable** (``conv_backend``):

* ``"im2col"`` (default): strided window gather into a column matrix, one
  GEMM per conv.  **Bitwise identical** to the eager path at every width
  and under both dtype policies — same reduction orders, same layouts.
* ``"shifted-gemm"``: no column matrix at all — each conv is a sum of
  kernel-column offset GEMMs over a rolling row panel (whole-row memcpys,
  no per-window gather), accumulated in place into a wide output arena
  whose valid pixels are a strided view.  **Relaxed equality**: the GEMM
  reduction is re-associated across kernel columns, so outputs are
  allclose, not bitwise-equal, to the eager path (``plan.exact`` is
  False).  Stride-1 convolutions only.

Either way a plan's work follows the batch: a run of ``n`` rows computes
over the leading ``n`` rows of arenas sized for ``batch_rows``, so one
plan per width serves every batch size up to its ceiling, and the
lowering is a plan-wide choice between bitwise-exact and fastest.

Plans are immutable after compile and safe for concurrent use: all
per-request state lives in the checked-out workspace, and the packed
cache is lock-protected (many plans may share one cache — the serving
frontend compiles one plan per width over a single shared cache).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn.workspace import BufferSpec, Workspace, WorkspacePool
from repro.slimmable.sliced_conv import SlicedConv2d
from repro.slimmable.sliced_linear import SlicedLinear
from repro.slimmable.spec import ChannelSlice, SubNetSpec
from repro.utils.dtypes import compute_dtype

class PackedWeightCache:
    """Contiguous compute-dtype copies of active weight sub-blocks.

    Entries are keyed by ``(layer, slices, layout, dtype)`` and carry the
    weight / bias version counters they were packed at; a lookup that
    observes a newer parameter version re-packs in place.  The cache is
    shared by all plans over one weight store (slices at different widths
    — and different backend layouts — are distinct entries), so concurrent
    serving threads only ever *read* packed arrays.

    The steady-state lookup is lock-free: a dict get plus two int compares
    (each atomic under the GIL; entries are immutable tuples swapped in by
    a single assignment), so K serving threads never contend on the cache.
    Only a repack takes the lock, and a harmless double-pack under a
    version race just writes the same fresh block twice.

    An in-flight forward that started before an optimizer step finishes on
    the packed arrays it already fetched — the same snapshot semantics the
    eager path has for sliced sub-blocks, whose contiguous cast copies at
    call entry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[tuple, Tuple[int, int, np.ndarray, np.ndarray]] = {}
        self.packs = 0  # total (re-)pack events, for staleness tests

    def _lookup(self, key: tuple, layer, pack) -> Tuple[np.ndarray, np.ndarray]:
        entry = self._entries.get(key)
        wv, bv = layer.weight.version, layer.bias.version
        if entry is not None and entry[0] == wv and entry[1] == bv:
            return entry[2], entry[3]  # lock-free hot path
        with self._lock:
            entry = self._entries.get(key)
            wv, bv = layer.weight.version, layer.bias.version
            if entry is None or entry[0] != wv or entry[1] != bv:
                arrays = pack()
                entry = (wv, bv) + arrays
                self._entries[key] = entry
                self.packs += 1
            return entry[2], entry[3]

    def conv_block(
        self,
        layer: SlicedConv2d,
        in_slice: ChannelSlice,
        out_slice: ChannelSlice,
        dtype: np.dtype,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(w_mat, bias)`` for a conv sub-block, GEMM-ready.

        ``w_mat`` is the active ``(C_out, C_in*kh*kw)`` block, contiguous
        in ``dtype`` — exactly what the eager path builds per call via
        ``ascontiguousarray(active_weight).reshape``.
        """

        def pack() -> Tuple[np.ndarray, np.ndarray]:
            w = np.ascontiguousarray(
                layer.active_weight(in_slice, out_slice), dtype=dtype
            )
            w_mat = w.reshape(out_slice.width, -1)
            bias = np.ascontiguousarray(layer.active_bias(out_slice), dtype=dtype)
            return w_mat, bias

        key = (layer, in_slice, out_slice, "mat", dtype.str)
        return self._lookup(key, layer, pack)

    def conv_panels(
        self,
        layer: SlicedConv2d,
        in_slice: ChannelSlice,
        out_slice: ChannelSlice,
        dtype: np.dtype,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(w_panels, bias)`` for the shifted-GEMM backend.

        ``w_panels`` has shape ``(kw, C_out, C_in*kh)``: ``w_panels[j]`` is
        the contiguous GEMM operand for kernel column ``j`` (see
        :func:`~repro.nn.functional.shifted_gemm_conv`).
        """

        def pack() -> Tuple[np.ndarray, np.ndarray]:
            w = np.ascontiguousarray(
                layer.active_weight(in_slice, out_slice), dtype=dtype
            )
            kw = w.shape[-1]
            panels = np.ascontiguousarray(
                w.transpose(3, 0, 1, 2).reshape(kw, out_slice.width, -1)
            )
            bias = np.ascontiguousarray(layer.active_bias(out_slice), dtype=dtype)
            return panels, bias

        key = (layer, in_slice, out_slice, "panels", dtype.str)
        return self._lookup(key, layer, pack)

    def linear_block(
        self, layer: SlicedLinear, feature_slice: ChannelSlice, dtype: np.dtype
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(weight, bias)`` for the classifier's active feature columns."""

        def pack() -> Tuple[np.ndarray, np.ndarray]:
            w = np.ascontiguousarray(layer.active_weight(feature_slice), dtype=dtype)
            bias = np.ascontiguousarray(layer.bias.data, dtype=dtype)
            return w, bias

        key = (layer, feature_slice, "linear", dtype.str)
        return self._lookup(key, layer, pack)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class _ConvStep:
    """Precompiled geometry of one conv (+ReLU, +optional pool) block.

    Shared by the single-device plan (``out_slice`` is the whole layer) and
    by :class:`~repro.engine.dist_plan.DevicePartitionPlan` (``out_slice``
    is one device's channel block of it).
    """

    layer: SlicedConv2d
    in_slice: ChannelSlice    # the layer's full input range
    out_slice: ChannelSlice   # the output rows this plan computes
    kernel: Tuple[int, int]
    stride: int
    padding: int
    in_hw: Tuple[int, int]    # unpadded input spatial size
    out_hw: Tuple[int, int]   # conv output spatial size
    pool: Optional[Tuple[int, int, Tuple[int, int]]]  # (kernel, stride, pooled_hw)
    src: str                  # padded full-width input arena
    cols: str                 # im2col columns buffer
    gemm: str                 # GEMM/epilogue buffer, (rows, C_out) NHWC-flat
    act: Optional[str]        # unpadded NCHW pool input (only when pooled)
    dst: str                  # next step's padded input arena, or "feat"
    dst_padding: int          # that destination's padding
    dst_rows: ChannelSlice    # channel rows of ``dst`` the output lands in


@dataclass(frozen=True)
class _ShiftedStep:
    """One conv block lowered to kernel-column offset GEMMs (stride 1).

    Activations flow channel-major: every ``src``/``dst`` arena is a
    flattened ``(C, rows*Hp*Wp + tail)`` padded buffer whose per-image
    blocks are contiguous, so each offset operand is a whole-row slice.
    Arenas are sized for ``rows = batch_rows``; a run of ``n`` rows uses
    C-contiguous leading ``n*Hp*Wp``-column views of ``panel``, ``wide``
    and ``scratch``.
    """

    layer: SlicedConv2d
    in_slice: ChannelSlice
    out_slice: ChannelSlice
    kernel: int
    padding: int
    in_hw: Tuple[int, int]
    out_hw: Tuple[int, int]
    padded_hw: Tuple[int, int]
    pool: Optional[Tuple[int, int, Tuple[int, int]]]
    src: str                  # (C_in, rows*Hp*Wp + tail) flattened arena
    panel: str                # (C_in*kh, rows*Hp*Wp) rolling row panel
    wide: str                 # (C_out, rows*Hp*Wp) wide GEMM accumulator
    scratch: str              # (C_out, rows*Hp*Wp) accumulation scratch
    act: Optional[str]        # (C_out, rows, oh, ow) channel-major activation
    dst: Optional[str]        # next step's flattened arena (None on last conv)
    dst_padding: int


def _interior(buf: np.ndarray, n: int, padding: int, hw: Tuple[int, int]) -> np.ndarray:
    """First-``n``-rows view of a padded buffer's writable interior."""
    if padding == 0:
        return buf[:n]
    h, w = hw
    return buf[:n, :, padding : padding + h, padding : padding + w]


def _flat_interior(
    buf: np.ndarray, rows: int, padding: int, hw: Tuple[int, int]
) -> np.ndarray:
    """Channel-major ``(C, rows, h, w)`` interior view of a flattened arena."""
    h, w = hw
    hp, wp = h + 2 * padding, w + 2 * padding
    view = buf[:, : rows * hp * wp].reshape(buf.shape[0], rows, hp, wp)
    if padding == 0:
        return view
    return view[:, :, padding : padding + h, padding : padding + w]


def _leading(buf: np.ndarray, cols: int) -> np.ndarray:
    """C-contiguous ``(C, cols)`` view of a ``(C, L)`` buffer's first bytes."""
    c = buf.shape[0]
    return buf.reshape(-1)[: c * cols].reshape(c, cols)


def conv_block_into(
    ws: Workspace, step: _ConvStep, n: int, cache: PackedWeightCache, dtype: np.dtype
) -> np.ndarray:
    """One fused conv block over the first ``n`` arena rows.

    im2col -> GEMM+bias+ReLU -> NCHW -> optional pool, written into the
    step's own channel rows of its destination; returns that view.  The
    only im2col conv kernel sequence in the tree — both compiled plans run
    it, with the same reduction orders as the eager layers.
    """
    out_h, out_w = step.out_hw
    rows = n * out_h * out_w
    cols = ws[step.cols][:rows]
    F.im2col_into(ws[step.src][:n], step.kernel, step.stride, cols)
    w_mat, bias = cache.conv_block(step.layer, step.in_slice, step.out_slice, dtype)
    gemm = ws[step.gemm][:rows]
    F.gemm_bias_relu(cols, w_mat, bias, gemm)
    nchw = gemm.reshape(n, out_h, out_w, step.out_slice.width).transpose(0, 3, 1, 2)
    hw = step.pool[2] if step.pool is not None else step.out_hw
    own = _interior(ws[step.dst], n, step.dst_padding, hw)[
        :, step.dst_rows.start : step.dst_rows.stop
    ]
    if step.pool is not None:
        act = ws[step.act][:n]
        np.copyto(act, nchw)
        F.maxpool2d_into(act, step.pool[0], step.pool[1], own)
    else:
        np.copyto(own, nchw)
    return own


class InferencePlan:
    """One compiled ``(sub-network, batch-rows, dtype, backend)`` forward pass."""

    def __init__(
        self,
        net,
        spec: SubNetSpec,
        batch_rows: int,
        dtype: np.dtype,
        steps: List,
        feature_slice: ChannelSlice,
        buffers: List[BufferSpec],
        cache: PackedWeightCache,
        workspaces: int,
        conv_backend: str,
    ) -> None:
        self.net = net
        self.spec = spec
        self.width = spec.name
        self.batch_rows = batch_rows
        self.dtype = dtype
        self.cache = cache
        self.conv_backend = conv_backend
        self._steps = steps
        self._feature_slice = feature_slice
        self._in_shape = (net.in_channels, net.image_size, net.image_size)
        self.workspaces = WorkspacePool(buffers, prealloc=workspaces)

    @property
    def exact(self) -> bool:
        """True when outputs are bitwise-identical to the eager path."""
        return self.conv_backend != "shifted-gemm"

    # -- compilation ----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        model,
        width: Union[str, SubNetSpec, None] = None,
        *,
        batch_rows: int,
        dtype: Optional[np.dtype] = None,
        cache: Optional[PackedWeightCache] = None,
        workspaces: int = 1,
        conv_backend: str = "im2col",
    ) -> "InferencePlan":
        """Walk ``model`` once and compile its serving pass.

        ``model`` is anything :class:`~repro.engine.session.InferenceSession`
        accepts: a ``SlimmableConvNet``, a ``SubNetworkView`` (its spec wins
        when ``width`` is omitted), or a model family plus a subnet name.
        ``dtype`` defaults to the active policy's inference dtype;
        ``batch_rows`` is the widest batch the plan's arenas can hold —
        smaller requests compute over leading-row views of the same
        buffers.  ``conv_backend`` picks the convolution lowering.
        """
        F.check_conv_backend(conv_backend)
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        net, spec = cls._resolve(model, width)
        dtype = np.dtype(dtype) if dtype is not None else compute_dtype(training=False)
        if cache is None:  # note: an empty cache is falsy (len 0) — test identity
            cache = PackedWeightCache()

        walk = cls._walk(net, spec)
        if conv_backend == "shifted-gemm":
            steps, buffers = cls._compile_shifted(net, walk, batch_rows, dtype)
        else:
            steps, buffers = cls._compile_im2col(net, walk, batch_rows, dtype)

        classifier = net.classifier
        if not isinstance(classifier, SlicedLinear):
            raise TypeError(f"cannot compile classifier {type(classifier).__name__}")
        feature_slice = classifier.resolve_feature_slice(
            net.feature_slice_for(spec.last_slice)
        )
        buffers.append(BufferSpec("logits", (batch_rows, classifier.out_features), dtype.name))
        # Warm the packed cache at compile so the first request is already
        # on the steady-state path.
        for step in steps:
            if conv_backend == "shifted-gemm":
                cache.conv_panels(step.layer, step.in_slice, step.out_slice, dtype)
            else:
                cache.conv_block(step.layer, step.in_slice, step.out_slice, dtype)
        cache.linear_block(classifier, feature_slice, dtype)
        return cls(
            net, spec, batch_rows, dtype, steps, feature_slice, buffers, cache,
            workspaces, conv_backend,
        )

    @staticmethod
    def _walk(net, spec: SubNetSpec) -> List[dict]:
        """Shared geometry walk: one dict per conv block, in order."""
        size = net.image_size
        num = len(net.convs)
        if len(spec.conv_slices) != num:
            raise ValueError(
                f"spec {spec.name!r} has {len(spec.conv_slices)} conv slices, "
                f"net has {num}"
            )
        prev: Optional[ChannelSlice] = None
        walk: List[dict] = []
        for i, (conv, out_sl) in enumerate(zip(net.convs, spec.conv_slices)):
            if not isinstance(conv, SlicedConv2d):
                raise TypeError(f"cannot compile layer {type(conv).__name__}")
            in_sl, out_sl = conv.resolve_slices(prev, out_sl)
            k = conv.kernel_size
            out_h = F.conv_out_size(size, k, conv.stride, conv.padding)
            pool_layer = net.pools.get(i)
            pool = None
            after = (out_h, out_h)
            if pool_layer is not None:
                ph = F.conv_out_size(out_h, pool_layer.kernel_size, pool_layer.stride, 0)
                pool = (pool_layer.kernel_size, pool_layer.stride, (ph, ph))
                after = (ph, ph)
            walk.append(
                dict(
                    index=i,
                    conv=conv,
                    in_slice=in_sl,
                    out_slice=out_sl,
                    kernel=k,
                    stride=conv.stride,
                    padding=conv.padding,
                    in_hw=(size, size),
                    out_hw=(out_h, out_h),
                    pool=pool,
                    last=i == num - 1,
                    next_padding=net.convs[i + 1].padding if i < num - 1 else 0,
                )
            )
            size = after[0]
            prev = out_sl
        return walk

    @classmethod
    def _compile_im2col(
        cls, net, walk: List[dict], batch_rows: int, dtype: np.dtype,
        block_of: Optional[Callable[[ChannelSlice], ChannelSlice]] = None,
    ) -> Tuple[List[_ConvStep], List[BufferSpec]]:
        """Lower the geometry walk to im2col steps and the arenas they run in.

        ``block_of`` maps a layer's output slice to the channel block this plan
        computes; ``None`` is the single-device case, "block = whole layer".
        Every input arena spans the layer's *full* input width either way, so a
        partitioned plan's arena doubles as its halo-exchange buffer: peers'
        halves are copied into the channel rows this plan does not write.
        """
        steps: List[_ConvStep] = []
        buffers: List[BufferSpec] = []
        dt = dtype.name
        at = 0  # program order: the next kernel step's index (BufferSpec.live)
        for info in walk:
            i, conv = info["index"], info["conv"]
            k, pad = info["kernel"], info["padding"]
            size = info["in_hw"][0]
            out_h, out_w = info["out_hw"]
            in_c = info["in_slice"].width
            full = info["out_slice"]
            block = block_of(full) if block_of is not None else full
            pool = info["pool"]
            # One conv block is gather -> GEMM -> NCHW copy (-> pool); its
            # last step is the one that writes the block's destination.
            gather, gemm, copy = at, at + 1, at + 2
            write = copy + 1 if pool is not None else copy
            at = write + 1
            src = f"in{i}"
            buffers.append(
                BufferSpec(
                    src,
                    (batch_rows, in_c, size + 2 * pad, size + 2 * pad),
                    dt,
                    zeroed=pad > 0,
                )
            )
            rows = batch_rows * out_h * out_w
            buffers.append(
                BufferSpec(f"cols{i}", (rows, in_c * k * k), dt, live=(gather, gemm))
            )
            buffers.append(
                BufferSpec(f"gemm{i}", (rows, block.width), dt, live=(gemm, copy))
            )
            # The NHWC-flat GEMM result must land in NCHW somewhere: in a
            # staging buffer when a pool reads it, otherwise straight into the
            # destination's interior.
            act = f"act{i}" if pool is not None else None
            if act is not None:
                buffers.append(
                    BufferSpec(
                        act, (batch_rows, block.width, out_h, out_w), dt, live=(copy, write)
                    )
                )
            if info["last"]:
                # The classifier's input: this plan's own feature block only;
                # the classifier is the step after the last block.
                after = pool[2] if pool is not None else (out_h, out_w)
                dst, dst_pad = "feat", 0
                dst_rows = ChannelSlice(0, block.width)
                buffers.append(
                    BufferSpec(dst, (batch_rows, block.width) + after, dt, live=(write, at))
                )
            else:
                dst, dst_pad = f"in{i + 1}", info["next_padding"]
                dst_rows = ChannelSlice(block.start - full.start, block.stop - full.start)
            steps.append(
                _ConvStep(
                    layer=conv,
                    in_slice=info["in_slice"],
                    out_slice=block,
                    kernel=(k, k),
                    stride=info["stride"],
                    padding=pad,
                    in_hw=info["in_hw"],
                    out_hw=(out_h, out_w),
                    pool=pool,
                    src=src,
                    cols=f"cols{i}",
                    gemm=f"gemm{i}",
                    act=act,
                    dst=dst,
                    dst_padding=dst_pad,
                    dst_rows=dst_rows,
                )
            )
        return steps, buffers

    @classmethod
    def _compile_shifted(
        cls, net, walk: List[dict], batch_rows: int, dtype: np.dtype
    ) -> Tuple[List[_ShiftedStep], List[BufferSpec]]:
        steps: List[_ShiftedStep] = []
        buffers: List[BufferSpec] = []
        dt = dtype.name
        at = 0  # program order: the next kernel step's index (BufferSpec.live)
        for info in walk:
            if info["stride"] != 1:
                raise ValueError(
                    "conv_backend='shifted-gemm' supports stride-1 convolutions "
                    f"only (conv{info['index']} has stride {info['stride']}); "
                    "use an im2col backend"
                )
            i, conv = info["index"], info["conv"]
            k, pad = info["kernel"], info["padding"]
            size = info["in_hw"][0]
            hp = wp = size + 2 * pad
            block = hp * wp
            length = batch_rows * block
            tail = F.shifted_tail(k, wp)
            in_c = info["in_slice"].width
            out_c = info["out_slice"].width
            out_h, out_w = info["out_hw"]
            pool, last = info["pool"], info["last"]
            # One conv block is offset GEMMs -> bias+ReLU (-> pool); after the
            # last block come the feature transpose and the classifier.
            conv_at, epilogue = at, at + 1
            write = epilogue + 1 if pool is not None else epilogue
            at = write + 1
            src = f"in{i}"
            # Padding borders and the inter-image tail are never written, so
            # they stay zero forever.  Interior rows beyond a smaller batch
            # are NOT re-zeroed: they hold an earlier batch's activations,
            # which no valid pixel of the live rows reads.
            buffers.append(BufferSpec(src, (in_c, length + tail), dt, zeroed=True))
            buffers.append(
                BufferSpec(f"panel{i}", (in_c * k, length), dt, live=(conv_at, conv_at))
            )
            buffers.append(
                BufferSpec(f"wide{i}", (out_c, length), dt, live=(conv_at, epilogue))
            )
            buffers.append(
                BufferSpec(f"scratch{i}", (out_c, length), dt, live=(conv_at, conv_at))
            )
            act = f"act{i}" if (pool is not None or last) else None
            if act is not None:
                # Read by the pool, or (last block, no pool) by the transpose.
                reader = write if pool is not None else at
                buffers.append(
                    BufferSpec(
                        act, (out_c, batch_rows, out_h, out_w), dt, live=(epilogue, reader)
                    )
                )
            if last and pool is not None:
                after = pool[2]
                dst, dst_pad = f"pool{i}", 0
                buffers.append(
                    BufferSpec(
                        dst, (out_c, batch_rows * after[0] * after[1]), dt, live=(write, at)
                    )
                )
            elif last:
                dst, dst_pad = None, 0
            else:
                dst, dst_pad = f"in{i + 1}", info["next_padding"]
            steps.append(
                _ShiftedStep(
                    layer=info["conv"],
                    in_slice=info["in_slice"],
                    out_slice=info["out_slice"],
                    kernel=k,
                    padding=pad,
                    in_hw=info["in_hw"],
                    out_hw=(out_h, out_w),
                    padded_hw=(hp, wp),
                    pool=pool,
                    src=src,
                    panel=f"panel{i}",
                    wide=f"wide{i}",
                    scratch=f"scratch{i}",
                    act=act,
                    dst=dst,
                    dst_padding=dst_pad,
                )
            )
        # The classifier reads image-major features: one transposed copy of
        # the final channel-major activation.
        last_info = walk[-1]
        feat_c = last_info["out_slice"].width
        feat_hw = last_info["pool"][2] if last_info["pool"] else last_info["out_hw"]
        buffers.append(
            BufferSpec(
                "feat", (batch_rows, feat_c * feat_hw[0] * feat_hw[1]), dt, live=(at, at + 1)
            )
        )
        return steps, buffers

    @staticmethod
    def _resolve(model, width: Union[str, SubNetSpec, None]):
        """Normalise the accepted model forms to ``(net, spec)``."""
        spec = width if isinstance(width, SubNetSpec) else None
        net = getattr(model, "net", model)
        if spec is None and width is None and hasattr(model, "spec") and isinstance(
            getattr(model, "spec", None), SubNetSpec
        ):
            spec = model.spec  # a SubNetworkView carries its own spec
        if spec is None:
            width_spec = getattr(net, "width_spec", None)
            if width_spec is None:
                raise TypeError(f"cannot compile a plan from {type(model).__name__}")
            spec = width_spec.find(width) if isinstance(width, str) else width_spec.full()
        if not hasattr(net, "convs") or not hasattr(net, "classifier"):
            raise TypeError(f"cannot compile a plan from {type(net).__name__}")
        return net, spec

    # -- admission ------------------------------------------------------------

    def accepts(self, x: np.ndarray) -> bool:
        """True when ``x`` can run on this plan under the active dtype policy."""
        return (
            x.ndim == 4
            and tuple(x.shape[1:]) == self._in_shape
            and 0 < x.shape[0] <= self.batch_rows
            and compute_dtype(training=False) == self.dtype
        )

    def accepts_parts(self, parts: Sequence[np.ndarray]) -> bool:
        return (
            len(parts) > 0
            and all(p.ndim == 4 and tuple(p.shape[1:]) == self._in_shape for p in parts)
            and 0 < sum(p.shape[0] for p in parts) <= self.batch_rows
            and compute_dtype(training=False) == self.dtype
        )

    # -- execution ------------------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        """One request through the compiled pass (thread-safe)."""
        return self.run_parts((x,))

    def run_parts(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Run a micro-batch, scattering each part straight into the input arena.

        This is the batching fast path: the queue hands over the raw
        request arrays and the rows land in the plan's (padded) input
        buffer directly — no ``np.concatenate`` temporary.
        """
        if not parts:
            raise ValueError("run_parts needs at least one array")
        n = 0
        for p in parts:
            if p.ndim != 4 or tuple(p.shape[1:]) != self._in_shape:
                raise ValueError(
                    f"plan expects (*, {self._in_shape[0]}, {self._in_shape[1]}, "
                    f"{self._in_shape[2]}), got {p.shape}"
                )
            n += p.shape[0]
        if n > self.batch_rows:
            raise ValueError(f"{n} rows exceed the plan's {self.batch_rows}-row arena")
        with self.workspaces.checkout() as ws:
            if self.conv_backend == "shifted-gemm":
                return self._execute_shifted(ws, parts, n)
            return self._execute(ws, parts, n)

    def _execute(self, ws: Workspace, parts: Sequence[np.ndarray], n: int) -> np.ndarray:
        first = self._steps[0]
        src = ws[first.src]
        offset = 0
        for part in parts:
            k = part.shape[0]
            # Assignment casts to the compute dtype; padded borders were
            # zeroed at allocation and are never written, replacing the
            # per-call np.pad round-trip.
            np.copyto(
                _interior(src[offset : offset + k], k, first.padding, first.in_hw), part
            )
            offset += k

        for step in self._steps:
            conv_block_into(ws, step, n, self.cache, self.dtype)
        return self._classify(ws, ws["feat"][:n].reshape(n, -1), n)

    def _execute_shifted(
        self, ws: Workspace, parts: Sequence[np.ndarray], n: int
    ) -> np.ndarray:
        first = self._steps[0]
        src = ws[first.src]
        interior = _flat_interior(src, n, first.padding, first.in_hw)
        offset = 0
        for part in parts:
            k = part.shape[0]
            np.copyto(interior[:, offset : offset + k], part.transpose(1, 0, 2, 3))
            offset += k

        # Every GEMM spans the n live images' n*Hp*Wp columns.  A valid pixel
        # of image i < n reads only flattened positions below (i+1)*Hp*Wp, so
        # rows an earlier, larger batch left behind feed discarded pixels only.
        x = src
        final = None
        for step in self._steps:
            hp, wp = step.padded_hw
            out_h, out_w = step.out_hw
            length = n * hp * wp
            w_panels, bias = self.cache.conv_panels(
                step.layer, step.in_slice, step.out_slice, self.dtype
            )
            wide = F.shifted_gemm_conv(
                x, w_panels, _leading(ws[step.panel], length),
                _leading(ws[step.wide], length), _leading(ws[step.scratch], length),
                step.kernel, wp,
            )
            valid = wide.reshape(step.out_slice.width, n, hp, wp)[:, :, :out_h, :out_w]
            if step.pool is not None:
                act = ws[step.act][:, :n]
                F.bias_act_into(valid, bias, act)
                pk, ps, pooled_hw = step.pool
                dst = _flat_interior(ws[step.dst], n, step.dst_padding, pooled_hw)
                F.maxpool2d_into(act, pk, ps, dst)
                x = ws[step.dst]
                final = dst if step.dst.startswith("pool") else None
            elif step.act is not None:
                act = ws[step.act][:, :n]
                F.bias_act_into(valid, bias, act)
                x = act
                final = act
            else:
                dst = _flat_interior(ws[step.dst], n, step.dst_padding, step.out_hw)
                F.bias_act_into(valid, bias, dst)
                x = ws[step.dst]

        # Channel-major (C, n, h, w) -> image-major (n, C*h*w) features.
        feat = ws["feat"][:n]
        c = final.shape[0]
        np.copyto(
            feat.reshape(n, c, final.shape[2], final.shape[3]),
            final.transpose(1, 0, 2, 3),
        )
        return self._classify(ws, feat, n)

    def _classify(self, ws: Workspace, features: np.ndarray, n: int) -> np.ndarray:
        w, b = self.cache.linear_block(self.net.classifier, self._feature_slice, self.dtype)
        logits = ws["logits"][:n]
        F.gemm_bias(features, w, b, logits)
        # The workspace buffer goes back into the pool; the caller gets an owned
        # copy: the run's one array allocation (iterator buffers are transient).
        return logits.copy()

    # -- cost hooks -----------------------------------------------------------

    def flops_per_image(self) -> int:
        """FLOPs of one image through this plan (from the compiled geometry)."""
        total = 0
        for step in self._steps:
            h, w = step.in_hw
            total += step.layer.flops_per_image(h, w, step.in_slice, step.out_slice)
        total += self.net.classifier.flops_per_image(self._feature_slice)
        return total

    def __repr__(self) -> str:
        return (
            f"InferencePlan({self.width}, rows={self.batch_rows}, "
            f"dtype={self.dtype.name}, convs={len(self._steps)}, "
            f"backend={self.conv_backend})"
        )


def compile_width_plans(
    model,
    widths: Sequence[Union[str, SubNetSpec]],
    *,
    batch_rows: int,
    workspaces: int = 1,
    conv_backend: str = "im2col",
) -> Dict[str, InferencePlan]:
    """One plan per width, in the policy's inference dtype.

    The serving frontend's bulk entry point: all plans alias one weight
    store and one fresh :class:`PackedWeightCache`, so N widths cost N
    arena sets but zero duplicate weight packs.
    """
    cache = PackedWeightCache()
    plans: Dict[str, InferencePlan] = {}
    for width in widths:
        plan = InferencePlan.compile(
            model,
            width,
            batch_rows=batch_rows,
            cache=cache,
            workspaces=workspaces,
            conv_backend=conv_backend,
        )
        plans[plan.width] = plan
    return plans
