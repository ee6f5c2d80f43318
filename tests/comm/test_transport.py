"""Tests for the in-process transport pair."""

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind
from repro.comm.transport import InProcChannel, TransportClosed, TransportError


class TestInProcChannel:
    def test_bidirectional(self, rng):
        chan = InProcChannel()
        chan.a.send(Message(MessageKind.PING))
        assert chan.b.recv(timeout=1.0).kind == MessageKind.PING
        chan.b.send(Message(MessageKind.PONG))
        assert chan.a.recv(timeout=1.0).kind == MessageKind.PONG

    def test_arrays_survive_the_codec(self, rng):
        chan = InProcChannel()
        x = rng.standard_normal((2, 3)).astype(np.float32)
        chan.a.send(Message(MessageKind.RESULT, arrays={"x": x}))
        got = chan.b.recv(timeout=1.0)
        np.testing.assert_array_equal(got.arrays["x"], x)

    def test_fifo_order(self):
        chan = InProcChannel()
        chan.a.send(Message(MessageKind.PING, fields={"n": 1}))
        chan.a.send(Message(MessageKind.PING, fields={"n": 2}))
        assert chan.b.recv(timeout=1.0).fields["n"] == 1
        assert chan.b.recv(timeout=1.0).fields["n"] == 2

    def test_send_after_close_raises(self):
        chan = InProcChannel()
        chan.a.close()
        with pytest.raises(TransportClosed):
            chan.a.send(Message(MessageKind.PING))

    def test_send_to_closed_peer_raises(self):
        chan = InProcChannel()
        chan.b.close()
        with pytest.raises(TransportError):
            chan.a.send(Message(MessageKind.PING))

    def test_recv_after_peer_close_raises(self):
        chan = InProcChannel()
        chan.a.close()
        with pytest.raises(TransportError):
            chan.b.recv(timeout=0.2)

    def test_recv_timeout(self):
        chan = InProcChannel()
        with pytest.raises(TransportError, match="timeout"):
            chan.a.recv(timeout=0.05)

    def test_closed_property(self):
        chan = InProcChannel()
        assert not chan.a.closed
        chan.a.close()
        assert chan.a.closed
