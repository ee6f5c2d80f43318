"""Edge-device emulation: profiles, cost model, the crash-on-Nth-request trigger.

Scripted failure timelines are :class:`repro.faults.plan.FaultPlan`.
"""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import jetson_nx_master, jetson_nx_worker
