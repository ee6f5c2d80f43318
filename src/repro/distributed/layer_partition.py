"""Layer-wise (pipeline) partitioning — the alternative the paper rejects.

Distributed-inference systems split a DNN either by *width* (the paper's
choice, following MoDNN-style output-channel partitioning) or by *depth*:
device A runs the first ``k`` layers, device B the rest, with one
activation transfer at the cut.  Depth splitting ships less data but
serialises the devices (they pipeline, so per-image latency includes both
stages), and it is even less failure-tolerant: neither prefix nor suffix
weights compute logits alone, for *any* training procedure.

This module provides the analytical model for that baseline so the benches
can show where each strategy wins and why layer splitting cannot deliver
the paper's reliability property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.comm.latency_model import CommLatencyModel
from repro.device.cost import LayerCost, subnet_layer_costs
from repro.device.profiles import DeviceProfile
from repro.distributed.throughput import ThroughputBreakdown
from repro.slimmable.slim_net import SlimmableConvNet
from repro.slimmable.spec import SubNetSpec


@dataclass(frozen=True)
class LayerCut:
    """A depth split: layers ``[0, cut)`` on the Master, the rest on the Worker."""

    cut: int
    num_layers: int

    def __post_init__(self) -> None:
        if not 0 < self.cut < self.num_layers:
            raise ValueError(f"cut must be inside (0, {self.num_layers})")


class LayerPartitionModel:
    """Analytical latency/throughput of a depth-partitioned deployment."""

    def __init__(
        self,
        net: SlimmableConvNet,
        master: DeviceProfile,
        worker: DeviceProfile,
        comm: CommLatencyModel,
    ) -> None:
        self.net = net
        self.master = master
        self.worker = worker
        self.comm = comm

    def stage_costs(
        self, spec: SubNetSpec, cut: LayerCut
    ) -> Tuple[List[LayerCost], List[LayerCost], int]:
        """``(master_layers, worker_layers, transfer_bytes_at_cut)``."""
        costs = subnet_layer_costs(self.net, spec)
        if cut.num_layers != len(costs):
            raise ValueError(
                f"cut over {cut.num_layers} layers but model has {len(costs)}"
            )
        master_side = costs[: cut.cut]
        worker_side = costs[cut.cut :]
        transfer = master_side[-1].activation_bytes
        return master_side, worker_side, transfer

    def latency(self, spec: SubNetSpec, cut: LayerCut) -> ThroughputBreakdown:
        """Per-image latency of the sequential (non-overlapped) pipeline.

        The paper's methodology sums compute and comm per image; a
        depth-split image traverses both stages and the cut transfer.
        """
        master_side, worker_side, transfer = self.stage_costs(spec, cut)
        t_m = self.master.compute_time(
            sum(c.flops for c in master_side), len(master_side)
        )
        t_w = self.worker.compute_time(
            sum(c.flops for c in worker_side), len(worker_side)
        )
        t_comm = self.comm.transfer_time(transfer)
        total = t_m + t_w + t_comm
        return ThroughputBreakdown(
            mode="layer-split",
            compute_s=(t_m, t_w),
            comm_s=t_comm,
            throughput_ips=1.0 / total,
        )

    def pipelined_throughput(self, spec: SubNetSpec, cut: LayerCut) -> float:
        """Steady-state throughput with stage overlap (bounded by the
        slowest stage including its transfer)."""
        master_side, worker_side, transfer = self.stage_costs(spec, cut)
        t_m = self.master.compute_time(
            sum(c.flops for c in master_side), len(master_side)
        )
        t_w = self.worker.compute_time(
            sum(c.flops for c in worker_side), len(worker_side)
        )
        t_comm = self.comm.transfer_time(transfer)
        bottleneck = max(t_m + t_comm, t_w)
        return 1.0 / bottleneck

    def best_cut(self, spec: SubNetSpec, pipelined: bool = False) -> Tuple[LayerCut, float]:
        """The depth split with the highest throughput."""
        num_layers = len(subnet_layer_costs(self.net, spec))
        best: Tuple[LayerCut, float] = (LayerCut(1, num_layers), 0.0)
        for cut_point in range(1, num_layers):
            cut = LayerCut(cut_point, num_layers)
            if pipelined:
                ips = self.pipelined_throughput(spec, cut)
            else:
                ips = self.latency(spec, cut).throughput_ips
            if ips > best[1]:
                best = (cut, ips)
        return best

    @staticmethod
    def survives_single_failure() -> bool:
        """Depth splitting never survives a device failure: a weight prefix
        has no classifier head and a suffix has no input stem, regardless of
        how the model was trained.  (Compare a width partition, where a lone
        device keeps the certified sub-networks
        ``BlockPartition.resident_specs`` finds on it.)"""
        return False
