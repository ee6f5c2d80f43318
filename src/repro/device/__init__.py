"""Edge-device emulation: profiles, cost model, the crash-on-Nth-request trigger.

Scripted failure timelines are :class:`repro.faults.plan.FaultPlan`.
"""

from repro.device.cost import (
    LayerCost,
    WIRE_BYTES_PER_VALUE,
    block_partitioned_costs,
    subnet_flops,
    subnet_layer_costs,
    subnet_num_layers,
    subnet_param_count,
    wire_bytes_per_value,
)
from repro.device.emulated import CrashCounter, DeviceFailed, EmulatedDevice
from repro.device.profiles import DeviceProfile, jetson_nx_master, jetson_nx_worker

__all__ = [
    "DeviceProfile",
    "jetson_nx_master",
    "jetson_nx_worker",
    "LayerCost",
    "WIRE_BYTES_PER_VALUE",
    "wire_bytes_per_value",
    "subnet_layer_costs",
    "subnet_flops",
    "subnet_num_layers",
    "subnet_param_count",
    "block_partitioned_costs",
    "EmulatedDevice",
    "DeviceFailed",
    "CrashCounter",
]
