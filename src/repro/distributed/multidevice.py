"""N-device generalisation of the Fluid scheme.

The paper evaluates two devices but states its training algorithm "is
applicable to any number" of sub-networks.  This module generalises the
width partition to ``N`` channel *blocks*, one per device:

* block ``k`` holds output-channel rows ``[b_k, b_{k+1})`` of every layer;
* a Fluid-N model certifies each block's slice standalone, so any single
  surviving device keeps serving;
* HT mode runs all alive blocks as independent streams (rates add);
* HA mode width-partitions the combined model over the alive devices with
  an all-gather per layer (the exchange grows with the block count).

:class:`MultiDeviceModel` is the analytical throughput mirror of
:class:`~repro.distributed.throughput.SystemThroughputModel`;
:class:`MultiDeviceRuntime` actually *executes* the N-device deployment on
the unified :class:`~repro.engine.engine.ExecutionEngine` (the block
partition itself lives in :mod:`repro.engine.graph`, shared with the
two-device master runtime).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm.latency_model import CommLatencyModel
from repro.device.cost import subnet_layer_costs, subnet_num_layers
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import DeviceProfile
from repro.distributed.plan import DeploymentPlan, failed_plan, partitioned_plan, streams_plan
from repro.distributed.throughput import ha_step_times
from repro.engine.endpoints import LocalEndpoint
from repro.engine.engine import EngineResult, ExecutionEngine
from repro.engine.graph import BlockPartition
from repro.slimmable.slim_net import SlimmableConvNet

__all__ = ["BlockPartition", "MultiDeviceModel", "MultiDeviceRuntime"]


class MultiDeviceModel:
    """Analytical throughput of an N-device Fluid deployment."""

    def __init__(
        self,
        net: SlimmableConvNet,
        profiles: Sequence[DeviceProfile],
        comm: CommLatencyModel,
        partition: BlockPartition,
    ) -> None:
        if len(profiles) != partition.num_blocks:
            raise ValueError(
                f"{len(profiles)} devices for {partition.num_blocks} blocks"
            )
        if partition.max_width != net.width_spec.max_width:
            raise ValueError("partition width does not match the network")
        self.net = net
        self.profiles = list(profiles)
        self.comm = comm
        self.partition = partition

    # -- standalone / HT -------------------------------------------------------

    def block_latency(self, device_index: int) -> float:
        """Per-image latency of device ``i`` running its own block."""
        spec = self.partition.block_spec(device_index, len(self.net.convs))
        flops = sum(c.flops for c in subnet_layer_costs(self.net, spec))
        return self.profiles[device_index].compute_time(
            flops, subnet_num_layers(self.net)
        )

    def ht_throughput(self, alive: Sequence[int]) -> float:
        """Independent streams on every alive device (rates add)."""
        alive = self._check_alive(alive)
        return sum(1.0 / self.block_latency(i) for i in alive)

    # -- HA over all alive devices -----------------------------------------------

    def ha_throughput(self, alive: Sequence[int]) -> float:
        """Joint combined-model inference over the alive devices.

        Only defined when *all* devices are alive (the combined model needs
        every block's rows); each device computes its rows from the full
        activation, then the blocks are all-gathered.  The arithmetic is
        :func:`~repro.distributed.throughput.ha_step_times`, the same as the
        two-device :class:`~repro.distributed.throughput.SystemThroughputModel`.
        """
        alive = self._check_alive(alive)
        if len(alive) != self.partition.num_blocks:
            return 0.0
        compute, exchange = ha_step_times(
            self.net,
            self.partition.combined_spec(len(self.net.convs)),
            self.partition.boundaries,
            self.profiles,
            self.comm,
        )
        return 1.0 / (max(compute) + exchange)

    # -- survivability ---------------------------------------------------------------

    def survivor_throughput(self, alive: Sequence[int]) -> float:
        """Best available throughput for an arbitrary alive set: HA when all
        devices are up, otherwise HT over the survivors (every block is
        standalone-certified in a Fluid-N model)."""
        alive = self._check_alive(alive)
        if not alive:
            return 0.0
        if len(alive) == self.partition.num_blocks:
            return max(self.ha_throughput(alive), self.ht_throughput(alive))
        return self.ht_throughput(alive)

    def reliability_profile(self) -> Dict[int, float]:
        """Worst-case throughput after ``k`` device failures, for each k.

        The worst case loses the fastest devices first.
        """
        n = self.partition.num_blocks
        rates = sorted(
            (1.0 / self.block_latency(i) for i in range(n)), reverse=True
        )
        profile: Dict[int, float] = {0: self.survivor_throughput(range(n))}
        for k in range(1, n + 1):
            profile[k] = sum(rates[k:])
        return profile

    def _check_alive(self, alive: Sequence[int]) -> List[int]:
        alive = sorted(set(alive))
        for i in alive:
            if not 0 <= i < self.partition.num_blocks:
                raise ValueError(f"device index {i} out of range")
        return alive


class MultiDeviceRuntime:
    """Executes the N-device Fluid deployment on the unified engine.

    One in-process :class:`LocalEndpoint` per block, all aliasing the same
    weight container (the paper's weight sharing).  Plans mirror the
    survivor logic of :class:`MultiDeviceModel`: HA when everyone is alive,
    HT over the survivors otherwise.
    """

    def __init__(
        self,
        net: SlimmableConvNet,
        profiles: Sequence[DeviceProfile],
        partition: BlockPartition,
        *,
        compiled: bool = False,
    ) -> None:
        if len(profiles) != partition.num_blocks:
            raise ValueError(
                f"{len(profiles)} devices for {partition.num_blocks} blocks"
            )
        if partition.max_width != net.width_spec.max_width:
            raise ValueError("partition width does not match the network")
        self.net = net
        self.partition = partition
        self.devices: List[EmulatedDevice] = [
            EmulatedDevice(profile, net) for profile in profiles
        ]
        self.device_names = [f"dev{i}" for i in range(partition.num_blocks)]
        num_convs = len(net.convs)
        specs = {
            spec.name: spec
            for spec in (
                partition.block_spec(i, num_convs)
                for i in range(partition.num_blocks)
            )
        }
        combined = partition.combined_spec(num_convs)
        specs[combined.name] = combined
        self._combined = combined
        self.engine = ExecutionEngine(
            {
                name: LocalEndpoint(name, device)
                for name, device in zip(self.device_names, self.devices)
            },
            net.width_spec,
            partition=partition,
            extra_specs=specs,
            compiled=compiled,
        )

    # -- planning --------------------------------------------------------------

    def alive_indices(self) -> List[int]:
        return [i for i, d in enumerate(self.devices) if d.alive]

    def plan(self, alive: Optional[Sequence[int]] = None) -> DeploymentPlan:
        """HA when every block is up, HT over the survivors otherwise."""
        alive = sorted(set(self.alive_indices() if alive is None else alive))
        for i in alive:
            if not 0 <= i < self.partition.num_blocks:
                raise ValueError(f"device index {i} out of range")
        if not alive:
            return failed_plan("no devices alive")
        if len(alive) == self.partition.num_blocks:
            return partitioned_plan(self.device_names, self._combined.name)
        return streams_plan(
            [(self.device_names[i], f"block{i}") for i in alive]
        )

    # -- execution -------------------------------------------------------------

    def run_ha(self, x: np.ndarray) -> np.ndarray:
        """Jointly compute the combined model over all blocks."""
        result = self.engine.execute(
            partitioned_plan(self.device_names, self._combined.name), x
        )
        return result.logits

    def run_ht(
        self,
        x: np.ndarray,
        *,
        alive: Optional[Sequence[int]] = None,
    ) -> EngineResult:
        """Independent per-block streams over the alive devices."""
        alive = sorted(set(self.alive_indices() if alive is None else alive))
        plan = streams_plan([(self.device_names[i], f"block{i}") for i in alive])
        return self.engine.execute(plan, x)

    def serve(self, x: np.ndarray) -> EngineResult:
        """Serve one batch under the current best plan."""
        return self.engine.execute(self.plan(), x)

    @property
    def ledger(self):
        return self.engine.ledger
