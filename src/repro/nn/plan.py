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
  :class:`~repro.nn.workspace.WorkspacePool` — one pool for all the widths
  :func:`compile_width_plans` compiles, each arena set sized to the widest
  and read by every width through its own named views.  A warm run allocates no
  array beyond the returned logits and retains nothing; NumPy's iterator
  buffers (``gemm += bias``, ``maxpool2d_into``) are transient, ~76 KB at
  1 row and ~194 KB at 16 rows of ``lower100`` under ``tracemalloc``.

Every convolution is lowered the one way the eager layers lower it: an
im2col gather into a column matrix, then one GEMM.  The gather runs per
image through a one-image K-major staging buffer, and only copies, so a
plan is **bitwise identical** to the eager path at every width and under
both dtype policies — same column bytes, same reduction orders.  A plan's
work follows the batch: a run of ``n`` rows computes over the leading
``n`` rows of arenas sized for ``batch_rows``, so one plan per width
serves every batch size up to its ceiling.

The same plan type compiles one device's side of a width-partitioned
High-Accuracy deployment: ``block_of`` narrows every conv to the device's
channel block, and its weights, GEMMs and feature columns with it.  Each
layer's padded input arena still spans the *combined* channel width, so
the arena is also the halo-exchange buffer: a peer's half is absorbed by
one strided copy into its channel rows, the device's own output lands
straight in its own rows of the next arena (a round ships only the
peers' halves, never a device's own back), and the last conv round ships
nothing — the classifier reads only the device's own feature block.  A
single-device plan is the case "block = whole layer", and
:meth:`InferencePlan.run_parts` runs the very round sequence an HA device
runs, with no peers.

Plans are immutable after compile and safe for concurrent use: all
per-request state lives in the checked-out workspace, and the packed
cache is lock-protected (many plans may share one cache — the serving
frontend compiles one plan per width over a single shared cache and a
single shared workspace pool, so it holds one arena set per concurrent
run, not one per width).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    are distinct entries), so concurrent serving threads only ever *read*
    packed arrays.

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

    ``out_slice`` is the whole layer in a single-device plan, and one
    device's channel block of it in a partitioned one.
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
    stage: str                # one image's K-major columns, (C_in*kh*kw, oh*ow)
    gemm: str                 # GEMM/epilogue buffer, (rows, C_out) NHWC-flat
    act: Optional[str]        # unpadded NCHW pool input (only when pooled)
    dst: str                  # next step's padded input arena, or "feat"
    dst_padding: int          # that destination's padding
    dst_rows: ChannelSlice    # channel rows of ``dst`` the output lands in


def _interior(buf: np.ndarray, n: int, padding: int, hw: Tuple[int, int]) -> np.ndarray:
    """First-``n``-rows view of a padded buffer's writable interior."""
    if padding == 0:
        return buf[:n]
    h, w = hw
    return buf[:n, :, padding : padding + h, padding : padding + w]


class _Run(NamedTuple):
    """One in-flight batch: its checked-out workspace and row count."""

    workspace: Workspace
    rows: int


class InferencePlan:
    """One compiled ``(sub-network, channel block, batch-rows, dtype)`` program.

    Over whole layers it is one device's forward pass; over one device's
    channel block of a width-partitioned (HA) deployment it is that
    device's side of every round.  Either way a batch runs the same
    sequence — :meth:`begin`, :meth:`scatter_input`, then per conv round
    (:meth:`absorb` of the peers' halves and) :meth:`run_layer`, then
    :meth:`run_fc` and :meth:`finish` — and :meth:`run_parts` is that
    sequence with no peers, the bias and one owned logits copy.
    """

    def __init__(
        self,
        net,
        spec: SubNetSpec,
        batch_rows: int,
        dtype: np.dtype,
        steps: List[_ConvStep],
        feature_slice: ChannelSlice,
        cache: PackedWeightCache,
        workspaces: WorkspacePool,
    ) -> None:
        self.net = net
        self.spec = spec
        self.width = spec.name
        self.batch_rows = batch_rows
        self.dtype = dtype
        self.cache = cache
        self._steps = steps
        self._feature_slice = feature_slice
        self._in_shape = (net.in_channels, net.image_size, net.image_size)
        self.workspaces = workspaces

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
        block_of: Optional[Callable[[int], ChannelSlice]] = None,
    ) -> "InferencePlan":
        """Walk ``model`` once and compile its serving pass.

        ``model`` is anything :class:`~repro.engine.session.InferenceSession`
        accepts: a ``SlimmableConvNet``, a ``SubNetworkView`` (its spec wins
        when ``width`` is omitted), or a model family plus a subnet name.
        ``dtype`` defaults to the active policy's inference dtype;
        ``batch_rows`` is the widest batch the plan's arenas can hold —
        smaller requests compute over leading-row views of the same
        buffers.  ``block_of`` maps a layer's output width to the channel
        block this plan computes of it (one device's block of an HA
        partition); ``None`` computes whole layers.  The plan checks out
        from a pool of its own, which holds one arena set to start with.
        """
        dtype = np.dtype(dtype) if dtype is not None else compute_dtype(training=False)
        if cache is None:  # note: an empty cache is falsy (len 0) — test identity
            cache = PackedWeightCache()
        args, buffers = cls._lower(model, width, batch_rows, dtype, cache, block_of)
        return cls(*args, WorkspacePool(buffers))

    @classmethod
    def _lower(
        cls,
        model,
        width,
        batch_rows: int,
        dtype: np.dtype,
        cache: PackedWeightCache,
        block_of: Optional[Callable[[int], ChannelSlice]] = None,
    ) -> Tuple[tuple, List[BufferSpec]]:
        """One plan's constructor arguments bar its pool, and the buffers it runs in."""
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        net, spec = cls._resolve(model, width)
        steps, buffers = cls._compile_steps(net, spec, batch_rows, dtype, block_of)

        classifier = net.classifier
        if not isinstance(classifier, SlicedLinear):
            raise TypeError(f"cannot compile classifier {type(classifier).__name__}")
        # The classifier reads this plan's own feature block only, which is
        # why a partitioned plan's last conv round ships no half.
        feature_slice = classifier.resolve_feature_slice(
            net.feature_slice_for(steps[-1].out_slice)
        )
        buffers.append(BufferSpec("logits", (batch_rows, classifier.out_features), dtype.name))
        # Warm the packed cache at compile so the first request is already
        # on the steady-state path.
        for step in steps:
            cache.conv_block(step.layer, step.in_slice, step.out_slice, dtype)
        cache.linear_block(classifier, feature_slice, dtype)
        return (net, spec, batch_rows, dtype, steps, feature_slice, cache), buffers

    @staticmethod
    def _compile_steps(
        net,
        spec: SubNetSpec,
        batch_rows: int,
        dtype: np.dtype,
        block_of: Optional[Callable[[int], ChannelSlice]],
    ) -> Tuple[List[_ConvStep], List[BufferSpec]]:
        """Walk the conv blocks once: each one's im2col step and the arenas it runs in.

        Every input arena spans the layer's *full* input width whatever
        block the plan computes, so a partitioned plan's arena doubles as
        its halo-exchange buffer: peers' halves are copied into the channel
        rows this plan does not write.
        """
        num = len(net.convs)
        if len(spec.conv_slices) != num:
            raise ValueError(
                f"spec {spec.name!r} has {len(spec.conv_slices)} conv slices, "
                f"net has {num}"
            )
        steps: List[_ConvStep] = []
        buffers: List[BufferSpec] = []
        dt = dtype.name
        size = net.image_size
        prev: Optional[ChannelSlice] = None
        at = 0  # program order: the next kernel step's index (BufferSpec.live)
        for i, (conv, out_sl) in enumerate(zip(net.convs, spec.conv_slices)):
            if not isinstance(conv, SlicedConv2d):
                raise TypeError(f"cannot compile layer {type(conv).__name__}")
            in_sl, full = conv.resolve_slices(prev, out_sl)
            prev = full
            block = block_of(full.stop) if block_of is not None else full
            k, pad = conv.kernel_size, conv.padding
            out_h = F.conv_out_size(size, k, conv.stride, pad)
            pool = None
            after = out_h
            pool_layer = net.pools.get(i)
            if pool_layer is not None:
                after = F.conv_out_size(out_h, pool_layer.kernel_size, pool_layer.stride, 0)
                pool = (pool_layer.kernel_size, pool_layer.stride, (after, after))
            # One conv block is gather -> GEMM -> NCHW copy (-> pool); its
            # last step is the one that writes the block's destination.
            gather, gemm, copy = at, at + 1, at + 2
            write = copy + 1 if pool is not None else copy
            at = write + 1
            in_c = in_sl.width
            src = f"in{i}"
            buffers.append(
                BufferSpec(
                    src,
                    (batch_rows, in_c, size + 2 * pad, size + 2 * pad),
                    dt,
                    zeroed=pad > 0,
                )
            )
            rows = batch_rows * out_h * out_h
            buffers.append(
                BufferSpec(f"cols{i}", (rows, in_c * k * k), dt, live=(gather, gemm))
            )
            buffers.append(
                BufferSpec(f"stage{i}", (in_c * k * k, out_h * out_h), dt, live=(gather, gather))
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
                        act, (batch_rows, block.width, out_h, out_h), dt, live=(copy, write)
                    )
                )
            if i == num - 1:
                # The classifier's input: this plan's own feature block only;
                # the classifier is the step after the last block.
                dst, dst_pad = "feat", 0
                dst_rows = ChannelSlice(0, block.width)
                buffers.append(
                    BufferSpec(dst, (batch_rows, block.width, after, after), dt, live=(write, at))
                )
            else:
                dst, dst_pad = f"in{i + 1}", net.convs[i + 1].padding
                dst_rows = ChannelSlice(block.start - full.start, block.stop - full.start)
            steps.append(
                _ConvStep(
                    layer=conv,
                    in_slice=in_sl,
                    out_slice=block,
                    kernel=(k, k),
                    stride=conv.stride,
                    padding=pad,
                    in_hw=(size, size),
                    out_hw=(out_h, out_h),
                    pool=pool,
                    src=src,
                    cols=f"cols{i}",
                    stage=f"stage{i}",
                    gemm=f"gemm{i}",
                    act=act,
                    dst=dst,
                    dst_padding=dst_pad,
                    dst_rows=dst_rows,
                )
            )
            size = after
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
        for p in parts:
            if p.ndim != 4 or tuple(p.shape[1:]) != self._in_shape:
                raise ValueError(
                    f"plan expects (*, {self._in_shape[0]}, {self._in_shape[1]}, "
                    f"{self._in_shape[2]}), got {p.shape}"
                )
        run = self.begin(sum(p.shape[0] for p in parts))
        try:
            self.scatter_input(run, *parts)
            for layer in range(len(self._steps)):
                self.run_layer(run, layer)
            # The workspace buffer goes back into the pool; the caller gets an
            # owned copy: the run's one array allocation (iterator buffers are
            # transient).
            return self.run_fc(run, include_bias=True).copy()
        finally:
            self.finish(run)

    def begin(self, rows: int) -> _Run:
        """Check a workspace out for one batch of ``rows`` images."""
        if not 0 < rows <= self.batch_rows:
            raise ValueError(
                f"{rows} rows outside the plan's 1..{self.batch_rows}-row arena"
            )
        return _Run(self.workspaces.acquire(), rows)

    def finish(self, run: _Run) -> None:
        self.workspaces.release(run.workspace)

    def _input(self, run: _Run, layer: int) -> np.ndarray:
        """Writable interior of ``layer``'s full-width input arena."""
        step = self._steps[layer]
        return _interior(run.workspace[step.src], run.rows, step.padding, step.in_hw)

    def scatter_input(self, run: _Run, *parts: np.ndarray) -> None:
        """Place the batch's parts, in order, into layer 0's padded arena interior.

        Assignment casts to the compute dtype; padded borders were zeroed at
        allocation and are never written, replacing a per-call ``np.pad``.
        """
        interior = self._input(run, 0)
        offset = 0
        for part in parts:
            k = part.shape[0]
            np.copyto(interior[offset : offset + k], part)
            offset += k

    def absorb(self, run: _Run, layer: int, block: ChannelSlice, half: np.ndarray) -> None:
        """Copy a peer's previous-round half into this layer's arena rows."""
        np.copyto(self._input(run, layer)[:, block.start : block.stop], half)

    def run_layer(self, run: _Run, layer: int) -> Optional[np.ndarray]:
        """One conv round: the fused conv block of this plan's channels.

        im2col -> GEMM+bias+ReLU -> NCHW -> optional pool over the first
        ``run.rows`` arena rows, written into the plan's own channel rows
        of the next layer's input arena (or of ``feat``), with the same
        reduction orders as the eager layers.  Returns the half to ship to
        peers — a zero-copy view of that arena interior — or ``None`` on
        the last conv round (the classifier needs only the locally-kept
        feature block).
        """
        ws, n, step = run.workspace, run.rows, self._steps[layer]
        out_h, out_w = step.out_hw
        rows = n * out_h * out_w
        cols = ws[step.cols][:rows]
        F.im2col_into(ws[step.src][:n], step.kernel, step.stride, cols, ws[step.stage])
        w_mat, bias = self.cache.conv_block(step.layer, step.in_slice, step.out_slice, self.dtype)
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
        return own if layer < len(self._steps) - 1 else None

    def run_fc(self, run: _Run, include_bias: bool) -> np.ndarray:
        """(Partial) logits over this plan's feature block, as an arena view."""
        n = run.rows
        features = run.workspace["feat"][:n].reshape(n, -1)
        logits = run.workspace["logits"][:n]
        w, b = self.cache.linear_block(self.net.classifier, self._feature_slice, self.dtype)
        if include_bias:
            return F.gemm_bias(features, w, b, logits)
        return np.dot(features, w.T, out=logits)

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
            f"dtype={self.dtype.name}, convs={len(self._steps)})"
        )


def compile_width_plans(
    model,
    widths: Sequence[Union[str, SubNetSpec]],
    *,
    batch_rows: int,
    workspaces: int = 1,
) -> Dict[str, InferencePlan]:
    """One plan per width, in the policy's inference dtype.

    The serving frontend's bulk entry point: all plans alias one weight
    store and one fresh :class:`PackedWeightCache`, and check out from one
    :class:`WorkspacePool` (``workspaces`` arena sets to start with) whose
    sets are sized to the widest width.  So N widths cost zero duplicate
    weight packs and one arena set per concurrent run, whatever its width.
    """
    dtype = compute_dtype(training=False)
    cache = PackedWeightCache()
    lowered = [InferencePlan._lower(model, width, batch_rows, dtype, cache) for width in widths]
    pool = WorkspacePool(*(buffers for _, buffers in lowered), prealloc=workspaces)
    plans: Dict[str, InferencePlan] = {}
    for index, (args, _) in enumerate(lowered):
        plan = InferencePlan(*args, pool.for_layout(index))
        plans[plan.width] = plan
    return plans
