"""Compile a :class:`DeploymentPlan` into a mode-agnostic execution graph.

Every plan — HA, HT, or solo, over any number of devices — lowers to the
same two-part shape:

* ``streams``: standalone sub-networks running in parallel on independent
  input streams (solo is the one-stream case, HT the N-stream case);
* ``rounds``: a lock-step width-partitioned program (HA), one round per
  conv layer plus a final partial-logit gather.

The engine (:mod:`repro.engine.engine`) interprets the graph without ever
branching on the plan's mode; all mode-specific knowledge lives here, in
one place, instead of being duplicated across per-mode runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.modes import ExecutionMode
from repro.engine.plan import DeploymentPlan
from repro.slimmable.spec import ChannelSlice, SubNetSpec, WidthSpec, uniform_spec


@dataclass(frozen=True)
class BlockPartition:
    """Channel blocks ``[boundaries[k], boundaries[k+1])`` per device.

    Device ``k`` holds output-channel rows ``boundaries[k]`` to
    ``boundaries[k+1]`` of every layer, over all input columns.  The
    paper's two devices are the two-block case (:meth:`two_way`): the
    master holds block 0, the worker block 1.  The residency decides which
    sub-networks a device can still run alone once its peers die
    (:meth:`resident_specs`).
    """

    boundaries: Tuple[int, ...]  # strictly increasing, starts at 0

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 3:
            raise ValueError("need at least two blocks (three boundaries)")
        if b[0] != 0:
            raise ValueError("boundaries must start at 0")
        if list(b) != sorted(set(b)):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def num_blocks(self) -> int:
        return len(self.boundaries) - 1

    @property
    def max_width(self) -> int:
        return self.boundaries[-1]

    def block_slice(self, index: int) -> ChannelSlice:
        if not 0 <= index < self.num_blocks:
            raise ValueError(f"block index {index} out of range")
        return ChannelSlice(self.boundaries[index], self.boundaries[index + 1])

    def block_spec(self, index: int, num_convs: int) -> SubNetSpec:
        s = self.block_slice(index)
        return uniform_spec(f"block{index}", s.start, s.stop, num_convs)

    def combined_spec(self, num_convs: int) -> SubNetSpec:
        return uniform_spec("combined", 0, self.max_width, num_convs)

    def resident_specs(self, index: int, width_spec: WidthSpec) -> List[SubNetSpec]:
        """Sub-networks of ``width_spec`` whose weights block ``index`` holds.

        A standalone sub-network with uniform slice ``[a, b)`` needs weight
        rows ``[a, b)`` of every layer over input columns ``[a, b)``; the
        device holds its rows over *all* input columns, so containment of
        the row range is sufficient.
        """
        block = self.block_slice(index)
        return [
            spec
            for spec in width_spec.all_specs()
            if all(block.contains(s) for s in spec.conv_slices)
        ]

    def clipped_block(self, index: int, width: int) -> ChannelSlice:
        """Block ``index`` restricted to a layer of ``width`` output channels."""
        start = min(self.boundaries[index], width)
        stop = min(self.boundaries[index + 1], width)
        if stop <= start:
            raise ValueError(
                f"block {index} [{self.boundaries[index]}, "
                f"{self.boundaries[index + 1]}) is empty at width {width}"
            )
        return ChannelSlice(start, stop)

    @classmethod
    def even(cls, num_blocks: int, max_width: int) -> "BlockPartition":
        if num_blocks <= 1:
            raise ValueError("need at least two blocks")
        if max_width % num_blocks:
            raise ValueError(f"{max_width} channels do not split into {num_blocks} blocks")
        step = max_width // num_blocks
        return cls(tuple(range(0, max_width + 1, step)))

    @classmethod
    def two_way(cls, split: int, max_width: int) -> "BlockPartition":
        """The paper's master/worker partition at ``split``."""
        return cls((0, split, max_width))


@dataclass(frozen=True)
class StreamOp:
    """One standalone sub-network on one device's input stream."""

    device: str
    subnet: str


@dataclass(frozen=True)
class PartitionLayerOp:
    """One lock-step round: each device computes its block of conv ``layer``."""

    layer: int
    in_slice: Optional[ChannelSlice]  # previous layer's combined slice (None at layer 0)
    blocks: Tuple[Tuple[str, ChannelSlice], ...]  # (device, out-channel block)


@dataclass(frozen=True)
class PartitionFcOp:
    """Final round: per-device partial logits, summed by the engine.

    Only the device owning the block that starts at channel 0 includes the
    classifier bias (so the sum counts it exactly once).
    """

    blocks: Tuple[Tuple[str, ChannelSlice], ...]  # last conv layer's blocks


@dataclass(frozen=True)
class ExecutionGraph:
    """A compiled plan: parallel streams followed by partitioned rounds."""

    mode: ExecutionMode
    subnet: Optional[str]  # combined subnet for partitioned programs
    streams: Tuple[StreamOp, ...] = ()
    rounds: Tuple[object, ...] = ()

    @property
    def devices(self) -> Tuple[str, ...]:
        if self.streams:
            return tuple(op.device for op in self.streams)
        if self.rounds:
            return tuple(device for device, _ in self.rounds[0].blocks)
        return ()

    @property
    def num_layer_rounds(self) -> int:
        """Conv rounds in the partitioned program (0 for stream graphs).

        The engine's delta halo exchange needs to know the final conv
        round: its halves are never shipped (the classifier reads only each
        device's own feature block).
        """
        return sum(1 for op in self.rounds if isinstance(op, PartitionLayerOp))

    @property
    def has_fc_round(self) -> bool:
        return any(isinstance(op, PartitionFcOp) for op in self.rounds)


def compile_plan(
    plan: DeploymentPlan, spec: Optional[SubNetSpec], partition: Optional[BlockPartition]
) -> ExecutionGraph:
    """Lower a deployment plan onto the stream/round graph.

    Args:
        plan: the deployment to execute.
        spec: the resolved combined sub-network (required for HA plans).
        partition: the channel-block partition (required for HA plans); its
            block count must equal the plan's device count.
    """
    if plan.mode is ExecutionMode.FAILED:
        return ExecutionGraph(mode=plan.mode, subnet=None)

    if plan.mode is not ExecutionMode.HIGH_ACCURACY:
        streams = tuple(StreamOp(a.device, a.subnet) for a in plan.assignments)
        if not streams:
            raise ValueError(f"plan {plan.describe()} has no assignments")
        return ExecutionGraph(mode=plan.mode, subnet=None, streams=streams)

    # High-Accuracy: width-partitioned lock-step program.
    if spec is None or partition is None:
        raise ValueError("HA compilation needs the combined spec and a partition")
    if not spec.is_lower():
        raise ValueError("HA mode requires a combined (lower-anchored) sub-network")
    devices = plan.devices()
    if len(devices) != partition.num_blocks:
        raise ValueError(
            f"plan assigns {len(devices)} devices but the partition has "
            f"{partition.num_blocks} blocks"
        )
    rounds = []
    in_slice: Optional[ChannelSlice] = None
    for layer, out_slice in enumerate(spec.conv_slices):
        blocks = tuple(
            (device, partition.clipped_block(k, out_slice.stop))
            for k, device in enumerate(devices)
        )
        rounds.append(PartitionLayerOp(layer=layer, in_slice=in_slice, blocks=blocks))
        in_slice = out_slice
    last = spec.last_slice
    rounds.append(
        PartitionFcOp(
            blocks=tuple(
                (device, partition.clipped_block(k, last.stop))
                for k, device in enumerate(devices)
            )
        )
    )
    return ExecutionGraph(mode=plan.mode, subnet=plan.combined_subnet, rounds=tuple(rounds))
