"""Communication substrate: wire codec, protocol messages, transports."""

from repro.comm.latency_model import CommLatencyModel
from repro.comm.message import Message, MessageKind, error_message, result_message
from repro.comm.tcp import TcpListener, TcpTransport, connect
from repro.comm.transport import (
    InProcChannel,
    Transport,
    TransportClosed,
    TransportError,
)
from repro.comm.wire import (
    WireError,
    cast_for_wire,
    decode_frame,
    encode_frame,
    wire_dtype,
)

__all__ = [
    "encode_frame",
    "decode_frame",
    "cast_for_wire",
    "wire_dtype",
    "WireError",
    "Message",
    "MessageKind",
    "error_message",
    "result_message",
    "Transport",
    "TransportError",
    "TransportClosed",
    "InProcChannel",
    "TcpTransport",
    "TcpListener",
    "connect",
    "CommLatencyModel",
]
