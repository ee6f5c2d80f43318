"""Execution modes and availability scenarios (paper §II-B / Fig. 2)."""

from __future__ import annotations

from enum import Enum

#: The paper's two devices, named for the blocks they hold: the master holds
#: block 0 of the width partition (the lower channels), the worker block 1.
MASTER = "master"
WORKER = "worker"


class ExecutionMode(Enum):
    """How the system is currently running inference."""

    HIGH_ACCURACY = "HA"    # devices jointly run the combined model on the same input
    HIGH_THROUGHPUT = "HT"  # devices run independent sub-networks on different inputs
    SOLO = "solo"           # one device runs a standalone sub-network
    FAILED = "failed"       # no certified deployment exists

    def __str__(self) -> str:
        return self.value


class Scenario(Enum):
    """Device availability scenarios evaluated in Fig. 2."""

    BOTH = "master_and_worker"
    ONLY_MASTER = "only_master"
    ONLY_WORKER = "only_worker"

    @property
    def alive(self) -> frozenset:
        return {
            Scenario.BOTH: frozenset({MASTER, WORKER}),
            Scenario.ONLY_MASTER: frozenset({MASTER}),
            Scenario.ONLY_WORKER: frozenset({WORKER}),
        }[self]

    def __str__(self) -> str:
        return self.value


ALL_SCENARIOS = (Scenario.BOTH, Scenario.ONLY_MASTER, Scenario.ONLY_WORKER)
