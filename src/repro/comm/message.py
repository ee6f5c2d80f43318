"""Typed messages of the master/worker protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.comm.wire import WireError, decode_frame, encode_frame


class MessageKind:
    """Protocol message kinds (string constants on the wire)."""

    PING = "ping"
    PONG = "pong"
    RUN_SUBNET = "run_subnet"          # standalone inference on a named sub-network
    RUN_PARTS = "run_parts"            # one micro-batch flush (rows via shm ring)
    PARTIAL_FORWARD = "partial_forward"  # one partitioned layer step (HA mode)
    PARTITION_ROUND = "partition_round"  # one compiled-plan round (delta halo HA)
    RESULT = "result"
    ERROR = "error"
    SHUTDOWN = "shutdown"
    CRASH = "crash"                     # test hook: simulate a power failure

    ALL = (
        PING,
        PONG,
        RUN_SUBNET,
        RUN_PARTS,
        PARTIAL_FORWARD,
        PARTITION_ROUND,
        RESULT,
        ERROR,
        SHUTDOWN,
        CRASH,
    )


@dataclass
class Message:
    """One protocol message: a kind, JSON-safe fields, and named arrays."""

    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in MessageKind.ALL:
            raise ValueError(f"unknown message kind {self.kind!r}")

    def encode(self) -> bytes:
        return encode_frame(self.arrays, {"kind": self.kind, "fields": self.fields})

    @classmethod
    def decode(cls, frame: bytes) -> "Message":
        arrays, meta = decode_frame(frame)
        if not isinstance(meta, dict) or meta.get("kind") not in MessageKind.ALL:
            raise WireError("frame metadata carries no known message kind")
        return cls(kind=meta["kind"], fields=meta.get("fields", {}), arrays=arrays)


def error_message(reason: str) -> Message:
    return Message(MessageKind.ERROR, fields={"reason": reason})


def exception_message(exc: Exception) -> Message:
    """The ERROR reply to a request that raised ``exc``: ``reason`` reads
    ``"Type: message"``, and ``error`` and ``detail`` carry the type's name
    and the message apart, for a peer that raises the same exception."""
    name = type(exc).__name__
    detail = exc.args[0] if len(exc.args) == 1 else exc
    return Message(
        MessageKind.ERROR,
        fields={"reason": f"{name}: {exc}", "error": name, "detail": str(detail)},
    )


def result_message(arrays: Dict[str, np.ndarray], **fields: Any) -> Message:
    return Message(MessageKind.RESULT, fields=fields, arrays=arrays)
