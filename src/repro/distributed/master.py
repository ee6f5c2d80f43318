"""Master-side runtime: the paper's two devices, named for the engine.

The Master is the paper's decision-maker: it holds the local (master)
device plus one worker transport and builds the corresponding two-endpoint
:class:`~repro.engine.engine.ExecutionEngine`.  Every deployment runs
through that engine, ``master.engine.execute(plan, x)`` with a
:class:`~repro.engine.plan.DeploymentPlan` (``solo_plan``,
``ht_plan``, ``ha_plan``), and ends with ``master.engine.shutdown()``,
which also tells the worker to stop.  This module only names the two
devices and keeps the worker's liveness probes.
"""

from __future__ import annotations

from typing import Optional

from repro.comm.transport import Transport
from repro.device.emulated import EmulatedDevice
from repro.engine.endpoints import LocalEndpoint, TransportEndpoint
from repro.engine.engine import ExecutionEngine
from repro.engine.graph import BlockPartition
from repro.engine.modes import MASTER, WORKER


class MasterRuntime:
    """The two-device engine over one worker transport."""

    def __init__(
        self,
        device: EmulatedDevice,
        transport: Optional[Transport],
        *,
        partition_split: int,
        compiled: bool = False,
    ) -> None:
        self.device = device
        self._worker = TransportEndpoint(WORKER, transport)
        self.engine = ExecutionEngine(
            {MASTER: LocalEndpoint(MASTER, device), WORKER: self._worker},
            device.net.width_spec,
            partition=BlockPartition.two_way(
                partition_split, device.net.width_spec.max_width
            ),
            compiled=compiled,
        )

    def worker_attached(self) -> bool:
        return self._worker.available

    def ping_worker(self) -> bool:
        """Heartbeat (one second); False means the worker is to be treated as dead."""
        return self._worker.ping(timeout=1.0)

    def crash_worker(self) -> None:
        """Test hook: order the worker to simulate a power failure."""
        self._worker.crash()
