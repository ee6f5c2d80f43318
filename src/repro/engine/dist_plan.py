"""Compiled per-device plans for the width-partitioned (HA) path.

The eager HA round loop re-derives everything per round on every device:
``conv_block_half`` pads the full activation, allocates fresh im2col /
GEMM / activation temporaries, slices and casts its weight block — and the
engine re-broadcasts the *full* reassembled activation each round.  A
:class:`DevicePartitionPlan` compiles all of that once per
``(spec, partition, device index, batch rows, dtype)``:

* **packed weights** for exactly this device's channel block of every conv
  (and its feature columns of the classifier), via the shared
  :class:`~repro.nn.plan.PackedWeightCache` — keyed by the sliced block, so
  N devices over one weight store never pack the same block twice;
* **workspace arenas** that pre-size the layer activations *and* the
  boundary-exchange buffers: each layer's padded input arena spans the
  *combined* channel width, so a peer's half is absorbed by one strided
  copy into its channel rows — the arena *is* the halo-exchange buffer.
  These arenas and the logits are whole-run buffers (no ``live`` on their
  :class:`~repro.nn.workspace.BufferSpec`), so an absorbed half and a reply
  that is an arena view survive from round to round; only the transients
  (columns, GEMM result, pool input, and the feature block from the last
  conv round to the classifier round) share bytes;
* **the fused conv block** of :mod:`repro.nn.plan`
  (:func:`~repro.nn.plan.conv_block_into` over the steps
  :class:`~repro.nn.plan.InferencePlan`'s own im2col lowering produces)
  replacing the eager per-call path — the single-device plan is the same
  code with "block = whole layer" — with the same reduction orders, so
  outputs are **bitwise identical** to ``conv_block_half`` /
  ``fc_partial`` at every width and dtype policy.

Delta halo exchange falls out of the layout: this device's own conv output
is pooled straight into the *next* layer's arena interior at its own
channel rows, so a round only needs the peers' halves (never its own back),
and the last conv round ships nothing at all — the classifier reads only
the device's own feature block.

One plan is private to one device loop (its run state is a checked-out
workspace), but many plans share one :class:`PackedWeightCache`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.graph import BlockPartition
from repro.nn.plan import (
    InferencePlan,
    PackedWeightCache,
    _ConvStep,
    _interior,
    conv_block_into,
)
from repro.nn.workspace import BufferSpec, Workspace, WorkspacePool
from repro.slimmable.sliced_linear import SlicedLinear
from repro.slimmable.spec import ChannelSlice, SubNetSpec
from repro.utils.dtypes import compute_dtype


class _PartitionRun:
    """One in-flight partitioned batch: a checked-out workspace + row count."""

    def __init__(self, workspace: Workspace, rows: int) -> None:
        self.workspace = workspace
        self.rows = rows


class DevicePartitionPlan:
    """One device's compiled program for a width-partitioned deployment."""

    def __init__(
        self,
        net,
        spec: SubNetSpec,
        boundaries: Tuple[int, ...],
        index: int,
        batch_rows: int,
        dtype: np.dtype,
        steps: List[_ConvStep],
        feature_slice: ChannelSlice,
        buffers: List[BufferSpec],
        cache: PackedWeightCache,
    ) -> None:
        self.net = net
        self.spec = spec
        self.boundaries = boundaries
        self.index = index
        self.batch_rows = batch_rows
        self.dtype = dtype
        self.cache = cache
        self._steps = steps
        self._feature_slice = feature_slice
        self.workspaces = WorkspacePool(buffers, prealloc=1)

    # -- compilation ----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        net,
        spec: SubNetSpec,
        boundaries: Sequence[int],
        index: int,
        *,
        batch_rows: int,
        dtype: Optional[np.dtype] = None,
        cache: Optional[PackedWeightCache] = None,
    ) -> "DevicePartitionPlan":
        """Compile device ``index``'s per-round program for ``spec``.

        ``boundaries`` is the :class:`~repro.engine.graph.BlockPartition`
        channel geometry; every layer's block is clipped to the layer width
        exactly as :func:`~repro.engine.graph.compile_plan` does.
        """
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        partition = BlockPartition(tuple(int(b) for b in boundaries))
        if not 0 <= index < partition.num_blocks:
            raise ValueError(
                f"device index {index} out of range for {partition.boundaries}"
            )
        if not spec.is_lower():
            raise ValueError("partition plans apply to combined (lower-anchored) specs")
        dtype = np.dtype(dtype) if dtype is not None else compute_dtype(training=False)
        if cache is None:
            cache = PackedWeightCache()

        # Own-block steps over full-combined-width input arenas: each arena
        # is this layer's activation AND its halo-exchange buffer, and the
        # last step keeps only the own feature block (the classifier never
        # needs the peers' channels, which is why the last round ships no half).
        steps, buffers = InferencePlan._compile_im2col(
            net, InferencePlan._walk(net, spec), batch_rows, dtype,
            block_of=lambda out: partition.clipped_block(index, out.stop),
        )
        classifier = net.classifier
        if not isinstance(classifier, SlicedLinear):
            raise TypeError(f"cannot compile classifier {type(classifier).__name__}")
        feature_slice = classifier.resolve_feature_slice(
            net.feature_slice_for(steps[-1].out_slice)
        )
        buffers.append(
            BufferSpec("logits", (batch_rows, classifier.out_features), dtype.name)
        )

        # Warm the packed cache at compile time so the first round already
        # runs the steady-state lock-free lookup.
        for step in steps:
            cache.conv_block(step.layer, step.in_slice, step.out_slice, dtype)
        cache.linear_block(classifier, feature_slice, dtype)
        return cls(
            net, spec, partition.boundaries, index, batch_rows, dtype, steps,
            feature_slice, buffers, cache,
        )

    # -- execution ------------------------------------------------------------

    def begin(self, rows: int) -> _PartitionRun:
        """Check a workspace out for one batch of ``rows`` images."""
        if not 0 < rows <= self.batch_rows:
            raise ValueError(
                f"{rows} rows outside this plan's 1..{self.batch_rows} arena"
            )
        return _PartitionRun(self.workspaces.acquire(), rows)

    def finish(self, run: _PartitionRun) -> None:
        self.workspaces.release(run.workspace)

    def _input(self, run: _PartitionRun, layer: int) -> np.ndarray:
        """Writable interior of ``layer``'s full-width input arena."""
        step = self._steps[layer]
        return _interior(run.workspace[step.src], run.rows, step.padding, step.in_hw)

    def scatter_input(self, run: _PartitionRun, x: np.ndarray) -> None:
        """Place the input batch into layer 0's padded arena interior."""
        np.copyto(self._input(run, 0), x)  # casts to the plan dtype; borders stay zero

    def absorb(
        self, run: _PartitionRun, layer: int, block: ChannelSlice, half: np.ndarray
    ) -> None:
        """Copy a peer's previous-round half into this layer's arena rows."""
        np.copyto(self._input(run, layer)[:, block.start : block.stop], half)

    def run_layer(self, run: _PartitionRun, layer: int) -> Optional[np.ndarray]:
        """One conv round: fused conv+ReLU(+pool) of this device's block.

        Returns the half to ship to peers — a zero-copy view of the next
        layer's arena interior — or ``None`` on the last conv round (the
        classifier needs only the locally-kept feature block).
        """
        own = conv_block_into(
            run.workspace, self._steps[layer], run.rows, self.cache, self.dtype
        )
        return own if layer < len(self._steps) - 1 else None

    def run_fc(self, run: _PartitionRun, include_bias: bool) -> np.ndarray:
        """Partial logits over this device's own feature block."""
        ws = run.workspace
        n = run.rows
        features = ws["feat"][:n].reshape(n, -1)
        w, b = self.cache.linear_block(self.net.classifier, self._feature_slice, self.dtype)
        logits = ws["logits"][:n]
        np.dot(features, w.T, out=logits)
        if include_bias:
            logits += b
        return logits

    def __repr__(self) -> str:
        return (
            f"DevicePartitionPlan({self.spec.name}, blocks={self.boundaries}, "
            f"index={self.index}, rows={self.batch_rows}, dtype={self.dtype.name})"
        )


class PartitionPlanCompiler:
    """Compiles and memoises :class:`DevicePartitionPlan`\\ s for one net.

    One compiler lives behind each endpoint that serves partitioned rounds;
    plans are keyed by ``(spec, boundaries, index, rows, dtype)`` so a
    steady benchmark loop compiles exactly once.  All plans share one
    :class:`PackedWeightCache` (pass one in to share further, e.g. with the
    single-device plans over the same weight store).
    """

    def __init__(self, net, cache: Optional[PackedWeightCache] = None) -> None:
        self.net = net
        self.cache = cache if cache is not None else PackedWeightCache()
        self._plans: Dict[tuple, DevicePartitionPlan] = {}

    def plan_for(
        self,
        spec: SubNetSpec,
        boundaries: Sequence[int],
        index: int,
        rows: int,
    ) -> DevicePartitionPlan:
        """The cached plan for this block, in the policy's inference dtype."""
        dtype = compute_dtype(training=False)
        key = (spec.name, tuple(boundaries), index, rows, dtype.str)
        plan = self._plans.get(key)
        if plan is None:
            plan = DevicePartitionPlan.compile(
                self.net, spec, boundaries, index,
                batch_rows=rows, dtype=dtype, cache=self.cache,
            )
            self._plans[key] = plan
        return plan

    def __len__(self) -> int:
        return len(self._plans)
