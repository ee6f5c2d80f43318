"""Transport interface and the in-process implementation.

A transport moves whole frames between two endpoints.  The TCP transport
(:mod:`repro.comm.tcp`) is the real thing used by the multi-process demo;
:class:`InProcChannel` pairs two endpoints through queues for fast,
deterministic integration tests.
"""

from __future__ import annotations

import queue
from typing import Optional

from repro.comm.message import Message


class TransportError(RuntimeError):
    """Raised when the peer is gone or the frame cannot be delivered."""


class TransportClosed(TransportError):
    """Raised on send/recv after close (the 'device is dead' signal)."""


class Transport:
    """Bidirectional, message-oriented channel."""

    def send(self, message: Message) -> None:
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class _InProcEndpoint(Transport):
    """One side of an in-process channel."""

    def __init__(self, outbox: "queue.Queue", inbox: "queue.Queue", peer_state: dict) -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._state = peer_state
        self._closed = False

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosed("endpoint closed")
        if self._state["peer_closed"]:
            raise TransportError("peer endpoint closed")
        # Round-trip through the codec so in-process tests exercise the
        # exact bytes the TCP transport would carry.
        self._outbox.put(message.encode())

    def recv(self, timeout: Optional[float] = None) -> Message:
        if self._closed:
            raise TransportClosed("endpoint closed")
        try:
            frame = self._inbox.get(timeout=timeout if timeout is not None else 5.0)
        except queue.Empty as exc:
            if not self._state["peer_closed"]:
                raise TransportError("recv timeout") from exc
            frame = None
        if frame is None:
            self.close()  # a lost peer is a lost transport, as over TCP
            raise TransportError("peer endpoint closed")
        return Message.decode(frame)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._state["peer_closed"] = True
            self._outbox.put(None)

    @property
    def closed(self) -> bool:
        return self._closed


class InProcChannel:
    """A connected pair of in-process transports.

    ``a`` and ``b`` are symmetric endpoints; frames written on one side are
    read on the other, passing through the real wire codec.
    """

    def __init__(self) -> None:
        q_ab: "queue.Queue" = queue.Queue()
        q_ba: "queue.Queue" = queue.Queue()
        state = {"peer_closed": False}
        self.a = _InProcEndpoint(q_ab, q_ba, state)
        self.b = _InProcEndpoint(q_ba, q_ab, state)

    def close(self) -> None:
        self.a.close()
        self.b.close()
