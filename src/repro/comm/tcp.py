"""TCP transport — the real sockets used between device processes.

The paper "used TCP to achieve data exchange" between its two Jetson
boards; our multi-process cluster does the same between OS processes.
Frames are length-prefixed (8-byte big-endian) on top of the wire codec.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Optional, Tuple

from repro.comm.message import Message
from repro.comm.transport import Transport, TransportClosed, TransportError

_LEN_STRUCT = struct.Struct(">Q")
MAX_FRAME_BYTES = 1 << 30


class TcpTransport(Transport):
    """Message framing over a connected TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX socketpairs (process-pool workers) have no Nagle
        self._closed = False
        # What a timed-out recv had read of the next frame: its length once
        # the header is in, and the chunks so far.  The next recv resumes.
        self._length: Optional[int] = None
        self._chunks: List[bytes] = []
        self._have = 0

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosed("transport closed")
        frame = message.encode()
        try:
            self._sock.sendall(_LEN_STRUCT.pack(len(frame)) + frame)
        except OSError as exc:
            self.close()
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> Message:
        if self._closed:
            raise TransportClosed("transport closed")
        self._sock.settimeout(timeout)
        try:
            if self._length is None:
                (length,) = _LEN_STRUCT.unpack(self._recv_exact(_LEN_STRUCT.size))
                if length > MAX_FRAME_BYTES:
                    self.close()  # the stream cannot be resynchronised
                    raise TransportError(f"peer declared oversized frame ({length} bytes)")
                self._length = length
            frame = self._recv_exact(self._length)
            self._length = None
        except socket.timeout as exc:
            raise TransportError("recv timeout") from exc
        except OSError as exc:
            self.close()
            raise TransportError(f"recv failed: {exc}") from exc
        return Message.decode(frame)

    def _recv_exact(self, n: int) -> bytes:
        while self._have < n:
            chunk = self._sock.recv(min(n - self._have, 1 << 20))
            if not chunk:
                self.close()
                raise TransportError("connection closed by peer")
            self._chunks.append(chunk)
            self._have += len(chunk)
        data = b"".join(self._chunks)
        self._chunks, self._have = [], 0
        return data

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


class TcpListener:
    """Server-side acceptor bound to ``127.0.0.1``."""

    def __init__(self, port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", port))
        self._sock.listen(4)

    @property
    def address(self) -> Tuple[str, int]:
        return self._sock.getsockname()

    def accept(self, timeout: Optional[float] = None) -> TcpTransport:
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except socket.timeout as exc:
            raise TransportError("accept timeout") from exc
        return TcpTransport(conn)

    def close(self) -> None:
        self._sock.close()


def connect(host: str, port: int, timeout: float = 5.0) -> TcpTransport:
    """Client-side connect with timeout."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
    sock.settimeout(None)
    return TcpTransport(sock)
