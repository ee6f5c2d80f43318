"""Analytical system throughput model.

Replicates the paper's methodology: "To simplify the runtime scenario and
avoid network variance, we measured the communication latency offline.  The
total throughput of the system can be calculated with the sum of
computation and communication latency."

* Solo / standalone: ``T = 1 / t_compute(device, subnet)``.
* High-Accuracy (width-partitioned): the devices work in lock-step on the
  same image, so ``T = 1 / (max(t_master, t_worker) + t_comm)`` where
  ``t_comm`` is the per-layer half-activation exchange plus the partial
  logit gather.
* High-Throughput: independent streams, ``T = T_master + T_worker``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.latency_model import CommLatencyModel
from repro.device.cost import block_partitioned_costs, subnet_flops, subnet_num_layers
from repro.device.profiles import DeviceProfile
from repro.distributed.partition import MASTER, WORKER, WidthPartition
from repro.distributed.plan import DeploymentPlan
from repro.distributed.modes import ExecutionMode
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
    compute_master_s: float
    compute_worker_s: float
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
        partition: Optional[WidthPartition] = None,
    ) -> None:
        self.net = net
        self.profiles: Dict[str, DeviceProfile] = {MASTER: master, WORKER: worker}
        self.comm = comm
        self.partition = partition or WidthPartition.at_spec_split(net.width_spec)

    # -- primitives ----------------------------------------------------------

    def standalone_latency(self, role: str, spec: SubNetSpec) -> float:
        """Per-image compute latency of a standalone sub-network on a device."""
        profile = self.profiles[role]
        return profile.compute_time(
            subnet_flops(self.net, spec), subnet_num_layers(self.net)
        )

    def standalone_throughput(self, role: str, spec: SubNetSpec) -> ThroughputBreakdown:
        t = self.standalone_latency(role, spec)
        return ThroughputBreakdown(
            mode="solo",
            compute_master_s=t if role == MASTER else 0.0,
            compute_worker_s=t if role == WORKER else 0.0,
            comm_s=0.0,
            throughput_ips=1.0 / t,
        )

    def ha_throughput(self, spec: SubNetSpec) -> ThroughputBreakdown:
        """Width-partitioned joint inference of a combined sub-network."""
        (t_m, t_w), t_comm = ha_step_times(
            self.net,
            spec,
            (0, self.partition.split, spec.last_slice.stop),
            (self.profiles[MASTER], self.profiles[WORKER]),
            self.comm,
        )
        total = max(t_m, t_w) + t_comm
        return ThroughputBreakdown(
            mode="HA",
            compute_master_s=t_m,
            compute_worker_s=t_w,
            comm_s=t_comm,
            throughput_ips=1.0 / total,
        )

    def ht_throughput(
        self, master_spec: SubNetSpec, worker_spec: SubNetSpec
    ) -> ThroughputBreakdown:
        """Independent parallel streams (Fluid DyDNN High-Throughput mode)."""
        t_m = self.standalone_latency(MASTER, master_spec)
        t_w = self.standalone_latency(WORKER, worker_spec)
        return ThroughputBreakdown(
            mode="HT",
            compute_master_s=t_m,
            compute_worker_s=t_w,
            comm_s=0.0,
            throughput_ips=1.0 / t_m + 1.0 / t_w,
        )

    # -- plan evaluation -----------------------------------------------------------

    def evaluate_plan(self, plan: DeploymentPlan) -> ThroughputBreakdown:
        """Throughput of an arbitrary deployment plan."""
        if plan.mode == ExecutionMode.FAILED:
            return ThroughputBreakdown("failed", 0.0, 0.0, 0.0, 0.0)
        if plan.mode == ExecutionMode.HIGH_ACCURACY:
            return self.ha_throughput(self.net.width_spec.find(plan.combined_subnet))
        if plan.mode == ExecutionMode.HIGH_THROUGHPUT:
            by_device = {a.device: a.subnet for a in plan.assignments}
            return self.ht_throughput(
                self.net.width_spec.find(by_device[MASTER]),
                self.net.width_spec.find(by_device[WORKER]),
            )
        # SOLO
        (assignment,) = plan.assignments
        return self.standalone_throughput(
            assignment.device, self.net.width_spec.find(assignment.subnet)
        )
