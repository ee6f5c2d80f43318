"""Analytical system throughput model.

Replicates the paper's methodology: "To simplify the runtime scenario and
avoid network variance, we measured the communication latency offline.  The
total throughput of the system can be calculated with the sum of
computation and communication latency."

The deployment is a width partition into channel blocks
(:class:`~repro.engine.graph.BlockPartition`), one per device.  The
paper's two devices are the two-block case: the master holds block 0 and
the worker block 1.  A partition into more blocks (the paper's training
"is applicable to any number" of sub-networks) runs every further block on
the worker's profile.

* Solo / standalone: ``T = 1 / t_compute(device, subnet)``.
* High-Accuracy (width-partitioned): the devices work in lock-step on the
  same image, so ``T = 1 / (max_k t_k + t_comm)`` where ``t_comm`` is the
  per-layer all-gather of the blocks plus the partial-logit gather.
* High-Throughput: independent streams, one per block, whose rates add.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.comm.latency_model import CommLatencyModel
from repro.device.cost import block_partitioned_costs, subnet_flops, subnet_num_layers
from repro.device.profiles import DeviceProfile
from repro.engine.graph import BlockPartition
from repro.engine.modes import MASTER, WORKER, ExecutionMode
from repro.engine.plan import DeploymentPlan
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec


def ha_step_times(
    net: SlimmableConvNet,
    spec: SubNetSpec,
    boundaries: Sequence[int],
    profiles: Sequence[DeviceProfile],
    comm: CommLatencyModel,
) -> Tuple[List[float], float]:
    """Per-image seconds of width-partitioned (High-Accuracy) execution.

    Device ``k`` (``profiles[k]``) computes block ``[boundaries[k],
    boundaries[k+1])`` of every layer of the combined ``spec``.  Returns
    ``(compute_s, exchange_s)``: each device's compute time, and the time of
    the per-layer all-gathers plus the partial-logit gather.  The devices
    work in lock-step, so one image takes ``max(compute_s) + exchange_s``.
    """
    per_device, exchanges = block_partitioned_costs(net, spec, tuple(boundaries))
    layers = subnet_num_layers(net)
    compute = [
        profile.compute_time(sum(c.flops for c in costs), layers)
        for profile, costs in zip(profiles, per_device)
    ]
    return compute, comm.total_time(exchanges)


@dataclass(frozen=True)
class ThroughputBreakdown:
    """Per-image latency components and resulting system throughput."""

    mode: str
    compute_s: Tuple[float, ...]  # each device's compute seconds, in block order
    comm_s: float
    throughput_ips: float

    @property
    def latency_s(self) -> float:
        if self.throughput_ips == 0:
            return float("inf")
        return 1.0 / self.throughput_ips


class SystemThroughputModel:
    """Computes Fig. 2-style throughput numbers for any deployment."""

    def __init__(
        self,
        net: SlimmableConvNet,
        master: DeviceProfile,
        worker: DeviceProfile,
        comm: CommLatencyModel,
        partition: Optional[BlockPartition] = None,
    ) -> None:
        ws = net.width_spec
        self.net = net
        self.comm = comm
        self.partition = partition or BlockPartition.two_way(ws.split, ws.max_width)
        # Block 0 is the master; every further block runs on the worker profile.
        self.profiles: Tuple[DeviceProfile, ...] = (master,) + (worker,) * (
            self.partition.num_blocks - 1
        )

    # -- primitives ----------------------------------------------------------

    def standalone_latency(self, device: str, spec: SubNetSpec) -> float:
        """Per-image compute latency of a standalone sub-network on a device."""
        return self._compute_time((MASTER, WORKER).index(device), spec)

    def _compute_time(self, block: int, spec: SubNetSpec) -> float:
        return self.profiles[block].compute_time(
            subnet_flops(self.net, spec), subnet_num_layers(self.net)
        )

    def _streams(self, mode: str, specs: Mapping[int, SubNetSpec]) -> ThroughputBreakdown:
        """Independent streams, ``specs[k]`` on block ``k``: rates add."""
        compute = [0.0] * self.partition.num_blocks
        for block, spec in specs.items():
            compute[block] = self._compute_time(block, spec)
        return ThroughputBreakdown(
            mode=mode,
            compute_s=tuple(compute),
            comm_s=0.0,
            throughput_ips=sum(1.0 / t for t in compute if t),
        )

    def ha_throughput(self, spec: SubNetSpec) -> ThroughputBreakdown:
        """Width-partitioned joint inference of a combined sub-network over
        every block, the last one clipped to the spec's width."""
        compute, t_comm = ha_step_times(
            self.net,
            spec,
            self.partition.boundaries[:-1] + (spec.last_slice.stop,),
            self.profiles,
            self.comm,
        )
        return ThroughputBreakdown(
            mode="HA",
            compute_s=tuple(compute),
            comm_s=t_comm,
            throughput_ips=1.0 / (max(compute) + t_comm),
        )

    def ht_throughput(self, *specs: SubNetSpec) -> ThroughputBreakdown:
        """Independent parallel streams (Fluid DyDNN High-Throughput mode),
        one spec per block."""
        return self._streams("HT", dict(enumerate(specs)))

    def reliability_profile(self) -> Dict[int, float]:
        """Worst-case throughput after ``k`` device failures, for each k.

        With every device up the system runs the faster of HA and HT over
        the blocks' own sub-networks; after failures the survivors run HT
        (each block is its own standalone model), and the worst case loses
        the fastest devices first.
        """
        num_convs = len(self.net.convs)
        n = self.partition.num_blocks
        ht = self.ht_throughput(*(self.partition.block_spec(k, num_convs) for k in range(n)))
        ha = self.ha_throughput(self.partition.combined_spec(num_convs))
        rates = sorted((1.0 / t for t in ht.compute_s), reverse=True)
        profile = {0: max(ha.throughput_ips, ht.throughput_ips)}
        for k in range(1, n + 1):
            profile[k] = sum(rates[k:])
        return profile

    # -- plan evaluation -----------------------------------------------------------

    def evaluate_plan(self, plan: DeploymentPlan) -> ThroughputBreakdown:
        """Throughput of an arbitrary deployment plan."""
        ws = self.net.width_spec
        if plan.mode == ExecutionMode.FAILED:
            return ThroughputBreakdown("failed", (0.0,) * self.partition.num_blocks, 0.0, 0.0)
        if plan.mode == ExecutionMode.HIGH_ACCURACY:
            return self.ha_throughput(ws.find(plan.combined_subnet))
        # HT, or SOLO as its one-stream case.
        return self._streams(
            plan.mode.value,
            {(MASTER, WORKER).index(a.device): ws.find(a.subnet) for a in plan.assignments},
        )
