"""The one worker-side loop and its one error policy, on both of its workers.

``WorkerLoop.serve_forever`` is the loop a ``WorkerServer`` (a device
behind the master/worker protocol) and a forked process-pool worker both
serve on.  Whichever handler table sits on it, a request it cannot serve
— a kind without a handler, a frame that arrived whole but does not
decode — is answered with ERROR and the loop keeps serving, bitwise
right; the peer closing its end ends it.
"""

from __future__ import annotations

import json
import struct
import threading

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind
from repro.comm.tcp import TcpTransport
from repro.comm.transport import InProcChannel
from repro.comm.wire import cast_for_wire, encode_frame
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import jetson_nx_worker
from repro.distributed.worker import WorkerServer
from repro.engine.endpoints import LocalEndpoint, TransportEndpoint
from repro.engine.session import InferenceSession
from repro.models.zoo import build_model
from repro.nn.plan import compile_width_plans
from repro.nn.shm import ensure_shared_parameters
from repro.scheduler.procpool import make_process_replicas
from repro.utils.dtypes import compute_dtype
from repro.utils.rng import make_rng


def _raw_frame(header) -> bytes:
    """A frame carrying ``header`` as its JSON, whatever its shape."""
    encoded = json.dumps(header).encode()
    return b"FDN1" + struct.pack(">I", len(encoded)) + encoded


_PING_META = {"kind": "ping", "fields": {}}
UNDECODABLE = [
    b"not a frame at all",
    encode_frame({}, {"kind": "teleport", "fields": {}}),  # no such message kind
    _raw_frame({"meta": _PING_META, "arrays": 5}),  # arrays is no list
    _raw_frame({"meta": _PING_META, "arrays": None}),
    _raw_frame(  # an unhashable dtype
        {"meta": _PING_META, "arrays": [{"name": "x", "dtype": ["float32"], "shape": [1]}]}
    ),
]


def _batch(seed: int = 7) -> np.ndarray:
    return make_rng(seed).standard_normal((3, 1, 28, 28))


def _send_raw(transport, frame: bytes) -> None:
    """Put ``frame`` on the wire whole, bypassing the codec."""
    if isinstance(transport, TcpTransport):
        transport._sock.sendall(struct.pack(">Q", len(frame)) + frame)
    else:
        transport._outbox.put(frame)


class _Served:
    """A worker on the loop: the peer's transport and three probes."""

    def __init__(self, peer, serve_good, ended, close=lambda: None) -> None:
        self.peer, self.serve_good, self.ended, self.close = peer, serve_good, ended, close


def _worker_server(paper_net) -> _Served:
    chan = InProcChannel()
    server = WorkerServer(EmulatedDevice(jetson_nx_worker(), paper_net), chan.b, partition_split=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    spec = paper_net.width_spec.find("upper50")

    def serve_good() -> bool:
        x = _batch()
        got = TransportEndpoint("worker", chan.a).run_subnet(spec, x).arrays["logits"]
        # The same request on an in-process endpoint, through the wire dtype.
        local = LocalEndpoint("local", EmulatedDevice(jetson_nx_worker(), paper_net))
        want = local.run_subnet(spec, cast_for_wire(x)).arrays["logits"]
        return np.array_equal(got, cast_for_wire(want).astype(compute_dtype()))

    def ended() -> bool:
        thread.join(timeout=5.0)
        return not thread.is_alive()

    return _Served(chan.a, serve_good, ended)


def _process_worker() -> _Served:
    model = build_model("fluid", rng=make_rng(0))
    plans = compile_width_plans(model, ["lower50"], batch_rows=8, workspaces=0)
    replica = make_process_replicas(model, 1, plans=plans)[0]

    def serve_good() -> bool:
        x = _batch()
        return np.array_equal(replica.run(x, "lower50"), InferenceSession(model, "lower50").run(x))

    def ended() -> bool:
        replica._proc.join(timeout=5.0)
        return replica._proc.exitcode == 0

    def close() -> None:
        replica.close()
        ensure_shared_parameters(model).unlink()  # the weights outlive the replica

    return _Served(replica._endpoint.transport, serve_good, ended, close)


@pytest.fixture(params=["worker_server", "process_worker"])
def served(request, paper_net):
    worker = _worker_server(paper_net) if request.param == "worker_server" else _process_worker()
    yield worker
    worker.close()


def test_unservable_requests_get_error_and_the_loop_serves_on_until_the_peer_leaves(served):
    peer = served.peer
    assert served.serve_good()

    peer.send(Message(MessageKind.RESULT))  # a kind no worker handles
    reply = peer.recv(timeout=5.0)  # a dead loop times out here
    assert reply.kind == MessageKind.ERROR
    assert "unsupported message kind" in reply.fields["reason"]

    for frame in UNDECODABLE:
        _send_raw(peer, frame)
        reply = peer.recv(timeout=5.0)
        assert reply.kind == MessageKind.ERROR
        assert "WireError" in reply.fields["reason"]

    assert served.serve_good()
    peer.close()
    assert served.ended()

