"""Tests for the TCP transport over localhost."""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.comm.message import Message, MessageKind
from repro.comm.tcp import TcpListener, TcpTransport, connect
from repro.comm.transport import TransportError


@pytest.fixture
def tcp_pair():
    listener = TcpListener()
    port = listener.address[1]
    server_side = {}

    def accept():
        server_side["t"] = listener.accept(timeout=5.0)

    thread = threading.Thread(target=accept)
    thread.start()
    client = connect("127.0.0.1", port)
    thread.join(timeout=5.0)
    server = server_side["t"]
    yield client, server
    client.close()
    server.close()
    listener.close()


class TestTcpTransport:
    def test_roundtrip(self, tcp_pair, rng):
        client, server = tcp_pair
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        client.send(Message(MessageKind.RUN_SUBNET, fields={"spec": "s"}, arrays={"x": x}))
        got = server.recv(timeout=2.0)
        assert got.fields["spec"] == "s"
        np.testing.assert_array_equal(got.arrays["x"], x)

    def test_large_frame(self, tcp_pair, rng):
        client, server = tcp_pair
        x = rng.standard_normal((64, 1, 28, 28)).astype(np.float32)
        client.send(Message(MessageKind.RESULT, arrays={"x": x}))
        got = server.recv(timeout=5.0)
        assert got.arrays["x"].shape == (64, 1, 28, 28)

    def test_many_messages_in_order(self, tcp_pair):
        client, server = tcp_pair
        for i in range(20):
            client.send(Message(MessageKind.PING, fields={"i": i}))
        for i in range(20):
            assert server.recv(timeout=2.0).fields["i"] == i

    def test_recv_timeout(self, tcp_pair):
        client, _ = tcp_pair
        with pytest.raises(TransportError, match="timeout"):
            client.recv(timeout=0.1)

    def test_peer_close_detected(self, tcp_pair):
        client, server = tcp_pair
        server.close()
        with pytest.raises(TransportError):
            client.recv(timeout=2.0)

    def test_connect_to_dead_port_fails(self):
        listener = TcpListener()
        port = listener.address[1]
        listener.close()
        with pytest.raises(TransportError):
            connect("127.0.0.1", port, timeout=0.5)


@pytest.mark.parametrize("cut", ["header", "frame"])
def test_recv_resumes_a_frame_a_timeout_cut_short(rng, cut):
    """A timeout mid-frame keeps what was read: the next recv completes that
    frame instead of parsing frame bytes as a length header."""
    a, b = socket.socketpair()
    sender, receiver = TcpTransport(a), TcpTransport(b)
    try:
        message = Message(MessageKind.RESULT, fields={"n": 1}, arrays={"x": rng.standard_normal(4096)})
        frame = message.encode()
        wire = struct.pack(">Q", len(frame)) + frame
        split = 3 if cut == "header" else 8 + len(frame) // 2
        a.sendall(wire[:split])
        with pytest.raises(TransportError, match="timeout"):
            receiver.recv(timeout=0.05)
        a.sendall(wire[split:])
        got = receiver.recv(timeout=2.0)
        assert got.fields == {"n": 1}
        np.testing.assert_array_equal(got.arrays["x"], message.arrays["x"])
    finally:
        sender.close()
        receiver.close()
