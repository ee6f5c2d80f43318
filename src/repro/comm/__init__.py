"""Communication substrate: wire codec, protocol messages, transports."""

# benchmarks/e2e/workloads.py imports these names from the package root.
from repro.comm.latency_model import CommLatencyModel
from repro.comm.transport import InProcChannel
from repro.comm.wire import cast_for_wire
