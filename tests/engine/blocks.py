"""An N-device engine over in-process endpoints, one per partition block.

What the tests build wherever they need the paper's scheme on more than one
in-process device: endpoint ``dev{i}`` serves block ``i``, and the plans
name the partition's own specs (``block{i}``, ``combined``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.device.emulated import EmulatedDevice
from repro.device.profiles import DeviceProfile
from repro.engine.endpoints import LocalEndpoint
from repro.engine.engine import ExecutionEngine
from repro.engine.graph import BlockPartition
from repro.engine.plan import DeploymentPlan, partitioned_plan
from repro.slimmable.slim_net import SlimmableConvNet


def block_engine(
    net: SlimmableConvNet,
    profiles: Sequence[DeviceProfile],
    partition: BlockPartition,
    *,
    compiled: bool = False,
) -> Tuple[ExecutionEngine, List[EmulatedDevice]]:
    """The engine, and its devices in block order."""
    devices = [EmulatedDevice(profile, net) for profile in profiles]
    engine = ExecutionEngine(
        {f"dev{i}": LocalEndpoint(f"dev{i}", device) for i, device in enumerate(devices)},
        net.width_spec,
        partition=partition,
        compiled=compiled,
    )
    return engine, devices


def ha_over_all_blocks(engine: ExecutionEngine) -> DeploymentPlan:
    """HA over every device of ``engine``: the partition's combined model."""
    return partitioned_plan(list(engine.endpoints), "combined")
