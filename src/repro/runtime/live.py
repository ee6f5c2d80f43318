"""Live serving loop: adaptation policy driving the real protocol.

:class:`LiveSystem` is the piece that closes the loop the paper describes:
a Master serving an inference stream in HA or HT mode over a real
transport, detecting Worker death through failed requests/heartbeats, and
re-planning onto its certified standalone sub-network without dropping the
stream.  The analytical controller (:mod:`repro.runtime.controller`)
replays scripted timelines; this one reacts to actual transport failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.distributed.master import MasterRuntime
from repro.distributed.modes import ExecutionMode
from repro.distributed.plan import DeploymentPlan
from repro.engine.endpoints import EndpointUnavailable
from repro.runtime.monitor import HeartbeatMonitor
from repro.runtime.policy import AdaptationPolicy
from repro.utils.logging import get_logger


@dataclass
class ServedBatch:
    """Outcome of one batch served by the live system."""

    batch_index: int
    mode: ExecutionMode
    logits: Optional[np.ndarray]
    failed_over: bool = False


@dataclass
class LiveLog:
    """Per-batch record of a live serving session."""

    batches: List[ServedBatch] = field(default_factory=list)

    def modes(self) -> List[ExecutionMode]:
        return [b.mode for b in self.batches]

    def failover_points(self) -> List[int]:
        return [b.batch_index for b in self.batches if b.failed_over]

    def served_count(self) -> int:
        return sum(1 for b in self.batches if b.logits is not None)


class LiveSystem:
    """Serves batches under the current plan; re-plans on worker failure."""

    def __init__(
        self,
        master: MasterRuntime,
        policy: AdaptationPolicy,
    ) -> None:
        self.master = master
        self.policy = policy
        self.logger = get_logger("runtime.live")
        self._worker_alive = master.worker_attached()
        # The same detector the scheduler's replica pool uses; the live
        # master/worker path declares death after a single failed ping.
        self.monitor = HeartbeatMonitor(master.ping_worker, threshold=1)
        self.plan: DeploymentPlan = self._replan()

    def _alive_set(self) -> frozenset:
        devices = {"master"}
        if self._worker_alive:
            devices.add("worker")
        return frozenset(devices)

    def _replan(self) -> DeploymentPlan:
        plan = self.policy.plan(self._alive_set())
        self.logger.info("plan: %s", plan.describe())
        return plan

    def declare_worker_dead(self) -> None:
        if self._worker_alive:
            self._worker_alive = False
            self.plan = self._replan()

    def heartbeat(self) -> bool:
        """Run one heartbeat; re-plan once the monitor declares death.

        Returns worker liveness.
        """
        if self._worker_alive and not self.monitor.check():
            self.declare_worker_dead()
        return self._worker_alive

    def serve_batch(self, index: int, x: np.ndarray) -> ServedBatch:
        """Serve one batch under the current plan; fail over transparently.

        On a worker failure mid-batch the batch is retried once under the
        new (solo or failed) plan, so the caller never sees the exception —
        only the mode change.
        """
        for attempt in range(2):
            plan = self.plan
            try:
                logits = self._execute(plan, x)
                return ServedBatch(
                    batch_index=index,
                    mode=plan.mode,
                    logits=logits,
                    failed_over=(attempt > 0),
                )
            except EndpointUnavailable:
                self.logger.warning("worker lost while serving batch %d", index)
                self.declare_worker_dead()
        # Second attempt also failed (no worker involved => plan is FAILED).
        return ServedBatch(index, self.plan.mode, None, failed_over=True)

    def _execute(self, plan: DeploymentPlan, x: np.ndarray) -> Optional[np.ndarray]:
        if plan.mode is ExecutionMode.FAILED:
            return None
        if plan.mode is ExecutionMode.SOLO:
            (assignment,) = plan.assignments
            if assignment.device != "master":
                # The master process cannot execute on a dead worker's behalf.
                return None
        # The engine handles the mode dispatch (and splits HT streams).
        return self.master.execute_plan(plan, x).logits

    def serve_stream(self, batches) -> LiveLog:
        """Serve an iterable of input batches end to end."""
        log = LiveLog()
        for index, x in enumerate(batches):
            log.batches.append(self.serve_batch(index, x))
        return log
