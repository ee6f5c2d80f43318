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
  and read by every width through its own named views;
* each workspace keeps a *bound program* per (conv layer, row count): the
  K-major window views of the padded input and the per-image rows of the
  columns the gather copies between (:func:`~repro.nn.functional.bind_im2col`),
  the leading-row slices of the columns and GEMM tile, the tile's NCHW
  view and its pool-window views, the pooled tile and the destination's
  interior rows.  It is built the first time that row count runs in the
  workspace (at most layers x ``batch_rows`` of them, and a smaller batch
  gathers through the full batch's per-image views), so a warm run builds
  no view: no ``as_strided``, ``reshape`` or ``transpose``.  A warm run
  allocates no array beyond the returned logits and retains nothing;
  NumPy's iterator buffers (the bias adds, the pool's ``np.maximum``
  passes) are transient, ~26 KB at 1 row and ~67 KB at 16 rows of
  ``lower100`` under ``tracemalloc``.

Every convolution is lowered the one way the eager layers lower it: an
im2col gather into a column matrix, then one GEMM.  The gather runs per
image through a one-image K-major staging buffer, and only copies, so a
plan is **bitwise identical** to the eager path at every width and under
both dtype policies — same column bytes, same reduction orders.  A pooled
block reorders only its epilogue: it pools the raw GEMM tile into a
channel-last tile a quarter its size, then adds the bias and applies ReLU
there, where eager adds bias, applies ReLU and pools.  The two agree bit
for bit: rounding is monotone, so ``max(a + b, c + b) == max(a, c) + b``
(a tie that rounding creates is a tie of equal values), ReLU commutes
with max, and ReLU maps both signed zeros to ``+0.0``.  A plan's
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
        self._entries: Dict[tuple, Tuple[int, int, Tuple[np.ndarray, np.ndarray]]] = {}
        self.packs = 0  # total (re-)pack events, for staleness tests

    def packed(self, key: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(weight_t, bias)`` pair of a :meth:`conv_key` / :meth:`linear_key`.

        ``weight_t`` is GEMM-ready: the transposed view of the contiguous
        active block, which ``np.dot(x, weight_t)`` reads exactly as the
        eager ``x @ w.T`` does.  Keys hold only the layer and ints, so a
        lookup hashes in C.
        """
        entry = self._entries.get(key)
        layer = key[1]
        wv, bv = layer.weight.version, layer.bias.version
        if entry is not None and entry[0] == wv and entry[1] == bv:
            return entry[2]  # lock-free hot path
        with self._lock:
            entry = self._entries.get(key)
            wv, bv = layer.weight.version, layer.bias.version
            if entry is None or entry[0] != wv or entry[1] != bv:
                entry = (wv, bv, self._pack(key))
                self._entries[key] = entry
                self.packs += 1
            return entry[2]

    @staticmethod
    def conv_key(
        layer: SlicedConv2d, in_slice: ChannelSlice, out_slice: ChannelSlice, dtype: np.dtype
    ) -> tuple:
        """Key of a conv sub-block, packed as the active ``(C_out, C_in*kh*kw)``
        block, contiguous in ``dtype`` — exactly what the eager path builds per
        call via ``ascontiguousarray(active_weight).reshape``."""
        return ("conv", layer, in_slice.start, in_slice.stop, out_slice.start, out_slice.stop, dtype.str)

    @staticmethod
    def linear_key(layer: SlicedLinear, feature_slice: ChannelSlice, dtype: np.dtype) -> tuple:
        """Key of the classifier's active feature columns."""
        return ("linear", layer, feature_slice.start, feature_slice.stop, dtype.str)

    @staticmethod
    def _pack(key: tuple) -> Tuple[np.ndarray, np.ndarray]:
        kind, layer, *bounds, dtype = key
        if kind == "conv":
            in_slice, out_slice = ChannelSlice(*bounds[:2]), ChannelSlice(*bounds[2:])
            w = np.ascontiguousarray(layer.active_weight(in_slice, out_slice), dtype=dtype)
            w_mat = w.reshape(out_slice.width, -1)
            bias = layer.active_bias(out_slice)
        else:
            w_mat = np.ascontiguousarray(layer.active_weight(ChannelSlice(*bounds)), dtype=dtype)
            bias = layer.bias.data
        return w_mat.T, np.ascontiguousarray(bias, dtype=dtype)

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
    pooled: Optional[str]     # channel-last pooled tile, (rows, ph, pw, C_out) (only when pooled)
    dst: str                  # next step's padded input arena, or "feat"
    dst_padding: int          # that destination's padding
    dst_rows: ChannelSlice    # channel rows of ``dst`` the output lands in
    weights: tuple            # the packed cache's key of this block's weights


def _interior(buf: np.ndarray, n: int, padding: int, hw: Tuple[int, int]) -> np.ndarray:
    """First-``n``-rows view of a padded buffer's writable interior."""
    if padding == 0:
        return buf[:n]
    h, w = hw
    return buf[:n, :, padding : padding + h, padding : padding + w]


class _Program(NamedTuple):
    """One conv block bound to one workspace at one row count.

    Every view a run of the block reads, built the first time that row
    count runs in the workspace and kept, so a warm run builds none.
    """

    input: np.ndarray    # first-n-rows interior of the full-width input arena
    gather: F.Im2col     # the im2col gather into ``cols``
    cols: np.ndarray     # leading rows of the columns
    gemm: np.ndarray     # leading rows of the GEMM tile, (rows, C_out) NHWC-flat
    tile: np.ndarray     # the same bytes as NCHW
    windows: Optional[Tuple[np.ndarray, ...]]  # the pool's offset views of ``tile``
    pooled: Optional[np.ndarray]       # channel-last pooled tile, (n, ph, pw, C_out)
    pooled_nchw: Optional[np.ndarray]  # the same bytes as NCHW
    out: np.ndarray      # this plan's channel rows of the destination's interior
    ship: Optional[np.ndarray]  # ``out``, or None on the last conv round


class _Bound(NamedTuple):
    """A workspace's programs at one row count: one per conv, then the classifier's views."""

    layers: Tuple[_Program, ...]
    features: np.ndarray  # (n, features) view of ``feat``
    logits: np.ndarray    # first n rows of ``logits``


class _Run(NamedTuple):
    """One in-flight batch: its checked-out workspace, row count and programs."""

    workspace: Workspace
    rows: int
    bound: _Bound


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
        self._fc_weights = cache.linear_key(net.classifier, feature_slice, dtype)
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
            cache.packed(step.weights)
        cache.packed(cache.linear_key(classifier, feature_slice, dtype))
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
            # One conv block is gather -> GEMM (-> pool) -> copy; its last
            # step is the copy that writes the block's destination.
            gather, gemm = at, at + 1
            write = gemm + 2 if pool is not None else gemm + 1
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
                BufferSpec(f"gemm{i}", (rows, block.width), dt, live=(gemm, gemm + 1))
            )
            # A pool reads the GEMM tile and writes a channel-last tile, a
            # quarter its size, which takes the bias and ReLU; otherwise the
            # tile is copied straight into the destination's interior.
            pooled = f"pool{i}" if pool is not None else None
            if pooled is not None:
                buffers.append(
                    BufferSpec(
                        pooled, (batch_rows, after, after, block.width), dt, live=(gemm + 1, write)
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
                    pooled=pooled,
                    dst=dst,
                    dst_padding=dst_pad,
                    dst_rows=dst_rows,
                    weights=PackedWeightCache.conv_key(conv, in_sl, block, dtype),
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
        rows = 0
        for p in parts:
            if p.ndim != 4 or p.shape[1:] != self._in_shape:
                raise ValueError(
                    f"plan expects (*, {self._in_shape[0]}, {self._in_shape[1]}, "
                    f"{self._in_shape[2]}), got {p.shape}"
                )
            rows += p.shape[0]
        run = self.begin(rows)
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
        workspace = self.workspaces.acquire()
        bound = workspace.programs.get(rows)
        if bound is None:
            try:
                bound = self._bind(workspace, rows)
            except BaseException:
                self.workspaces.release(workspace)
                raise
        return _Run(workspace, rows, bound)

    def finish(self, run: _Run) -> None:
        self.workspaces.release(run.workspace)

    def _bind(self, workspace: Workspace, n: int) -> _Bound:
        """Build and keep ``workspace``'s programs for ``n`` rows.

        A gather's per-image views do not depend on the row count, so a
        smaller batch gathers through the leading ones of the widest batch
        bound so far, and a wider one binds only the images past them: a
        workspace holds two views per image and conv, not two per image,
        conv and row count.
        """
        have = max(workspace.programs, default=0)
        widest = workspace.programs.get(have)
        layers = []
        for i, step in enumerate(self._steps):
            src = workspace[step.src]
            out_h, out_w = step.out_hw
            per_image = out_h * out_w
            cols = workspace[step.cols][: n * per_image]
            if n <= have:
                gather = widest.layers[i].gather
                gather = gather._replace(images=gather.images[:n])
            else:
                gather = F.bind_im2col(
                    src[have:n], step.kernel, step.stride,
                    cols[have * per_image :], workspace[step.stage],
                )
                if widest is not None:
                    gather = gather._replace(images=widest.layers[i].gather.images + gather.images)
            gemm = workspace[step.gemm][: n * per_image]
            tile = gemm.reshape(n, out_h, out_w, step.out_slice.width).transpose(0, 3, 1, 2)
            windows = pooled = pooled_nchw = None
            hw = step.out_hw
            if step.pool is not None:
                kernel, stride, hw = step.pool
                windows = F.pool_windows(tile, kernel, stride)
                pooled = workspace[step.pooled][:n]
                pooled_nchw = pooled.transpose(0, 3, 1, 2)
            out = _interior(workspace[step.dst], n, step.dst_padding, hw)[
                :, step.dst_rows.start : step.dst_rows.stop
            ]
            layers.append(
                _Program(
                    input=_interior(src, n, step.padding, step.in_hw),
                    gather=gather,
                    cols=cols,
                    gemm=gemm,
                    tile=tile,
                    windows=windows,
                    pooled=pooled,
                    pooled_nchw=pooled_nchw,
                    out=out,
                    ship=out if i < len(self._steps) - 1 else None,
                )
            )
        bound = workspace.programs[n] = _Bound(
            tuple(layers), workspace["feat"][:n].reshape(n, -1), workspace["logits"][:n]
        )
        return bound

    def scatter_input(self, run: _Run, *parts: np.ndarray) -> None:
        """Place the batch's parts, in order, into layer 0's padded arena interior.

        Assignment casts to the compute dtype; padded borders were zeroed at
        allocation and are never written, replacing a per-call ``np.pad``.
        """
        interior = run.bound.layers[0].input
        offset = 0
        for part in parts:
            k = part.shape[0]
            np.copyto(interior[offset : offset + k], part)
            offset += k

    def absorb(self, run: _Run, layer: int, block: ChannelSlice, half: np.ndarray) -> None:
        """Copy a peer's previous-round half into this layer's arena rows."""
        np.copyto(run.bound.layers[layer].input[:, block.start : block.stop], half)

    def run_layer(self, run: _Run, layer: int) -> Optional[np.ndarray]:
        """One conv round: the fused conv block of this plan's channels.

        im2col -> GEMM -> (pool ->) bias -> ReLU over the first ``run.rows``
        arena rows, written into the plan's own channel rows of the next
        layer's input arena (or of ``feat``), bitwise what the eager layers'
        conv -> bias -> ReLU (-> pool) computes.  A pooled block takes the
        window max of the raw GEMM tile and adds bias and ReLU to the
        4x smaller pooled tile: rounding is monotone, so
        ``max(a + b, c + b) == max(a, c) + b``, and ReLU commutes with max.
        Returns the half to ship to peers — a zero-copy view of that arena
        interior — or ``None`` on the last conv round (the classifier needs
        only the locally-kept feature block).
        """
        program = run.bound.layers[layer]
        F.im2col_into(program.gather)
        weight_t, bias = self.cache.packed(self._steps[layer].weights)
        pooled = program.pooled
        if pooled is None:
            F.gemm_bias_relu(program.cols, weight_t, bias, program.gemm)
            np.copyto(program.out, program.tile)
        else:
            np.dot(program.cols, weight_t, out=program.gemm)
            F.maxpool2d_into(program.windows, program.pooled_nchw)
            np.add(pooled, bias, out=pooled)
            np.maximum(pooled, 0.0, out=pooled)
            np.copyto(program.out, program.pooled_nchw)
        return program.ship

    def run_fc(self, run: _Run, include_bias: bool) -> np.ndarray:
        """(Partial) logits over this plan's feature block, as an arena view."""
        bound = run.bound
        weight_t, bias = self.cache.packed(self._fc_weights)
        if include_bias:
            return F.gemm_bias(bound.features, weight_t, bias, bound.logits)
        return np.dot(bound.features, weight_t, out=bound.logits)

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
