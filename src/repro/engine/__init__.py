"""Unified N-device execution engine.

One engine runs every deployment plan — High-Accuracy, High-Throughput, or
solo — over any number of devices, with pluggable endpoints (in-process
emulated devices or remote workers behind a transport).  The two-device
master runtime (:mod:`repro.distributed.master`), the multi-process cluster
(:mod:`repro.distributed.cluster`), and the N-device runtime
(:mod:`repro.distributed.multidevice`) are all thin facades over this
package.
"""

# The distributed facades (master/multidevice/cluster) import this package;
# loading them first keeps the import order well-defined no matter which
# package a caller touches first.
import repro.distributed  # noqa: F401  (import-cycle anchor)

from repro.engine.endpoints import (
    Endpoint,
    EndpointReply,
    EndpointUnavailable,
    LocalEndpoint,
    TransportEndpoint,
)
from repro.engine.dist_plan import DevicePartitionPlan, PartitionPlanCompiler
from repro.engine.engine import EngineResult, ExecutionEngine
from repro.engine.session import InferenceSession
from repro.engine.graph import (
    BlockPartition,
    ExecutionGraph,
    PartitionFcOp,
    PartitionLayerOp,
    StreamOp,
    compile_plan,
)
from repro.engine.ledger import EmulatedTimeLedger

__all__ = [
    "ExecutionEngine",
    "EngineResult",
    "InferenceSession",
    "Endpoint",
    "EndpointReply",
    "EndpointUnavailable",
    "LocalEndpoint",
    "TransportEndpoint",
    "BlockPartition",
    "ExecutionGraph",
    "StreamOp",
    "PartitionLayerOp",
    "PartitionFcOp",
    "compile_plan",
    "EmulatedTimeLedger",
    "DevicePartitionPlan",
    "PartitionPlanCompiler",
]
