"""Distributed inference: partitioning, protocol, modes, throughput model."""

from repro.distributed.cluster import LocalCluster, WorkerProcess
from repro.distributed.layer_partition import LayerCut, LayerPartitionModel
from repro.distributed.master import MasterRuntime
from repro.distributed.modes import ALL_SCENARIOS, MASTER, WORKER, ExecutionMode, Scenario
from repro.distributed.partitioned import (
    conv_block_half,
    fc_partial,
    partitioned_forward_reference,
)
from repro.distributed.plan import (
    Assignment,
    DeploymentPlan,
    failed_plan,
    ha_plan,
    ht_plan,
    partitioned_plan,
    solo_plan,
    streams_plan,
)
from repro.distributed.throughput import SystemThroughputModel, ThroughputBreakdown
from repro.distributed.worker import WorkerServer

__all__ = [
    "ExecutionMode",
    "Scenario",
    "ALL_SCENARIOS",
    "MASTER",
    "WORKER",
    "conv_block_half",
    "fc_partial",
    "partitioned_forward_reference",
    "Assignment",
    "DeploymentPlan",
    "failed_plan",
    "solo_plan",
    "ht_plan",
    "ha_plan",
    "streams_plan",
    "partitioned_plan",
    "SystemThroughputModel",
    "LayerCut",
    "LayerPartitionModel",
    "ThroughputBreakdown",
    "MasterRuntime",
    "WorkerServer",
    "LocalCluster",
    "WorkerProcess",
]
