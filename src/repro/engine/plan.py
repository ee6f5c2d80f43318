"""Deployment plans: what each device runs right now."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.modes import MASTER, WORKER, ExecutionMode


@dataclass(frozen=True)
class Assignment:
    """One device's job under a plan."""

    device: str
    subnet: str


@dataclass(frozen=True)
class DeploymentPlan:
    """The runtime's current answer to "who runs what, and how"."""

    mode: ExecutionMode
    assignments: Tuple[Assignment, ...] = ()
    combined_subnet: Optional[str] = None  # the jointly-produced model in HA mode
    reason: str = ""

    def __post_init__(self) -> None:
        devices = [a.device for a in self.assignments]
        if len(devices) != len(set(devices)):
            raise ValueError("a device may hold only one assignment per plan")
        if self.mode == ExecutionMode.HIGH_ACCURACY and self.combined_subnet is None:
            raise ValueError("HA plans must name the combined sub-network")
        if self.mode == ExecutionMode.FAILED and self.assignments:
            raise ValueError("failed plans cannot carry assignments")

    def devices(self) -> List[str]:
        return [a.device for a in self.assignments]

    def describe(self) -> str:
        """One line: each device's sub-network and its share.

        In HA the first device holds the lowest channel block
        (``partition_lower``) and the rest the upper ones; in every other
        mode each device runs its sub-network ``standalone``.
        """
        if self.mode == ExecutionMode.FAILED:
            return f"FAILED ({self.reason})" if self.reason else "FAILED"
        if self.mode == ExecutionMode.HIGH_ACCURACY:
            roles = ["partition_lower"] + ["partition_upper"] * (len(self.assignments) - 1)
        else:
            roles = ["standalone"] * len(self.assignments)
        parts = [f"{a.device}:{a.subnet}[{role}]" for a, role in zip(self.assignments, roles)]
        combined = f" -> {self.combined_subnet}" if self.combined_subnet else ""
        return f"{self.mode.value} {' + '.join(parts)}{combined}"


def failed_plan(reason: str) -> DeploymentPlan:
    return DeploymentPlan(mode=ExecutionMode.FAILED, reason=reason)


def solo_plan(device: str, subnet: str) -> DeploymentPlan:
    return DeploymentPlan(
        mode=ExecutionMode.SOLO,
        assignments=(Assignment(device, subnet),),
        reason=f"only {device} alive",
    )


def streams_plan(streams: Sequence[Tuple[str, str]]) -> DeploymentPlan:
    """HT over any number of devices: ``streams`` is ``[(device, subnet), ...]``."""
    if not streams:
        raise ValueError("streams_plan needs at least one (device, subnet) pair")
    return DeploymentPlan(
        mode=ExecutionMode.HIGH_THROUGHPUT,
        assignments=tuple(Assignment(device, subnet) for device, subnet in streams),
        reason="independent sub-networks on parallel input streams",
    )


def partitioned_plan(devices: Sequence[str], combined_subnet: str) -> DeploymentPlan:
    """HA over any number of devices, in channel-block order.

    The first device owns the lowest channel block (and the classifier
    bias); the rest own successive upper blocks.
    """
    if len(devices) < 2:
        raise ValueError("partitioned execution needs at least two devices")
    return DeploymentPlan(
        mode=ExecutionMode.HIGH_ACCURACY,
        assignments=tuple(Assignment(device, combined_subnet) for device in devices),
        combined_subnet=combined_subnet,
        reason="width-partitioned joint inference",
    )


def ht_plan(master_subnet: str, worker_subnet: str) -> DeploymentPlan:
    return streams_plan(((MASTER, master_subnet), (WORKER, worker_subnet)))


def ha_plan(combined_subnet: str) -> DeploymentPlan:
    return partitioned_plan((MASTER, WORKER), combined_subnet)
