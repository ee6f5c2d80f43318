"""Master-side runtime: the two-device facade over the execution engine.

The Master is the paper's decision-maker: it holds the local (master)
device plus one worker transport, builds the corresponding two-endpoint
:class:`~repro.engine.engine.ExecutionEngine`, and exposes the historical
``run_local`` / ``run_remote`` / ``run_ht`` / ``run_ha`` entry points as
thin plan dispatches.  All mode logic — partitioned rounds, parallel
streams, failure signalling, emulated-time accounting — lives in
:mod:`repro.engine`; this module only names the two devices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm.latency_model import CommLatencyModel
from repro.comm.transport import Transport
from repro.device.emulated import EmulatedDevice
from repro.distributed.partition import MASTER, WORKER
from repro.distributed.plan import DeploymentPlan, ha_plan, ht_plan, solo_plan
from repro.engine.endpoints import LocalEndpoint, TransportEndpoint
from repro.engine.engine import EngineResult, ExecutionEngine
from repro.engine.graph import BlockPartition
from repro.engine.ledger import EmulatedTimeLedger
from repro.slimmable.spec import SubNetSpec
from repro.utils.logging import get_logger


class MasterRuntime:
    """Runs distributed inference against one worker transport."""

    def __init__(
        self,
        device: EmulatedDevice,
        transport: Optional[Transport],
        *,
        partition_split: int,
        comm_model: Optional[CommLatencyModel] = None,
        request_timeout: float = 10.0,
        compiled: bool = False,
    ) -> None:
        self.device = device
        self.split = partition_split
        self.comm_model = comm_model or CommLatencyModel()
        self.request_timeout = request_timeout
        self.logger = get_logger("master")
        self._worker = TransportEndpoint(
            WORKER, transport, request_timeout=request_timeout
        )
        self.engine = ExecutionEngine(
            {MASTER: LocalEndpoint(MASTER, device), WORKER: self._worker},
            device.net.width_spec,
            partition=BlockPartition.two_way(
                partition_split, device.net.width_spec.max_width
            ),
            comm_model=self.comm_model,
            compiled=compiled,
        )

    @property
    def ledger(self) -> EmulatedTimeLedger:
        return self.engine.ledger

    # -- worker plumbing -----------------------------------------------------

    def worker_attached(self) -> bool:
        return self._worker.available

    def ping_worker(self, timeout: float = 1.0) -> bool:
        """Heartbeat; False means the worker is to be treated as dead."""
        return self._worker.ping(timeout=timeout)

    # -- plan execution --------------------------------------------------------

    def execute_plan(self, plan: DeploymentPlan, x: np.ndarray) -> EngineResult:
        """Run an arbitrary deployment plan on one batch."""
        return self.engine.execute(plan, x)

    def _register(self, *specs: SubNetSpec) -> None:
        # Callers may hand in spec objects outside the width family; make
        # sure the engine resolves their names back to the exact objects.
        for spec in specs:
            self.engine.extra_specs[spec.name] = spec

    def run_local(self, spec: SubNetSpec, x: np.ndarray) -> np.ndarray:
        """Standalone inference on the master device."""
        self._register(spec)
        return self.engine.execute(solo_plan(MASTER, spec.name), x).logits

    def run_remote(self, spec: SubNetSpec, x: np.ndarray) -> np.ndarray:
        """Standalone inference on the worker device."""
        self._register(spec)
        return self.engine.execute(solo_plan(WORKER, spec.name), x).logits

    def run_ht(
        self,
        master_spec: SubNetSpec,
        worker_spec: SubNetSpec,
        x_master: np.ndarray,
        x_worker: np.ndarray,
    ) -> tuple:
        """High-Throughput mode: both devices on independent input streams."""
        self._register(master_spec, worker_spec)
        result = self.engine.execute(
            ht_plan(master_spec.name, worker_spec.name),
            streams={MASTER: x_master, WORKER: x_worker},
        )
        return result.streams[MASTER], result.streams[WORKER]

    def run_ha(self, spec: SubNetSpec, x: np.ndarray) -> np.ndarray:
        """High-Accuracy mode: jointly compute the combined model on ``x``.

        Numerically identical to single-device execution of ``spec`` up to
        the wire-dtype casts.
        """
        self._register(spec)
        return self.engine.execute(ha_plan(spec.name), x).logits

    # -- teardown -------------------------------------------------------------------

    def shutdown_worker(self) -> None:
        self._worker.shutdown()

    def crash_worker(self) -> None:
        """Test hook: order the worker to simulate a power failure."""
        self._worker.crash()
