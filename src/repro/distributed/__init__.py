"""Distributed inference: the master runtime, the worker, the TCP cluster, the throughput model.

The deployment vocabulary they run in (modes, plans, the partitioned
kernels) is the engine's: :mod:`repro.engine.modes`, :mod:`repro.engine.plan`
and :mod:`repro.engine.partitioned`.
"""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.distributed.master import MasterRuntime
from repro.distributed.throughput import SystemThroughputModel
from repro.distributed.worker import WorkerServer
from repro.engine.modes import MASTER, WORKER, ExecutionMode
