"""Unified N-device execution engine.

One engine runs every deployment plan — High-Accuracy, High-Throughput, or
solo — over any number of devices, with pluggable endpoints (in-process
emulated devices or remote workers behind a transport).
``ExecutionEngine.execute(plan, x)`` is the one way to run a deployment,
in the :class:`~repro.engine.plan.DeploymentPlan` vocabulary the
adaptation policy emits, and ``ExecutionEngine.shutdown()`` the one way to
end it (it stops the dispatch lanes and tells remote workers to stop).
The two-device master runtime (:mod:`repro.distributed.master`) and the
multi-process cluster (:mod:`repro.distributed.cluster`) only build an
engine: they name its devices and hold the worker's liveness probes.  An
N-device deployment is an engine over one
:class:`~repro.engine.endpoints.LocalEndpoint` per
:class:`~repro.engine.graph.BlockPartition` block.
"""
