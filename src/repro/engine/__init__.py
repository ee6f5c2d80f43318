"""Unified N-device execution engine.

One engine runs every deployment plan — High-Accuracy, High-Throughput, or
solo — over any number of devices, with pluggable endpoints (in-process
emulated devices or remote workers behind a transport).
``ExecutionEngine.execute(plan, x)`` is the one way to run a deployment,
in the :class:`~repro.distributed.plan.DeploymentPlan` vocabulary the
adaptation policy emits, and ``ExecutionEngine.shutdown()`` the one way to
end it (it stops the dispatch lanes and tells remote workers to stop).
The two-device master runtime (:mod:`repro.distributed.master`) and the
multi-process cluster (:mod:`repro.distributed.cluster`) only build an
engine: they name its devices and hold the worker's liveness probes.  An
N-device deployment is an engine over one
:class:`~repro.engine.endpoints.LocalEndpoint` per
:class:`~repro.engine.graph.BlockPartition` block.
"""

# The distributed modules (master/cluster) import this package;
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
from repro.engine.dist_plan import DevicePartitionPlan
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
    "DevicePartitionPlan",
]
