"""Runtime adaptation: failure monitoring, policy, micro-batched serving."""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.runtime.live import LiveSystem
from repro.runtime.policy import AdaptationPolicy
