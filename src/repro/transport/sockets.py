"""Real TCP socket channels (loopback or LAN).

The examples run the full stack over these; the benchmark harness prefers
:mod:`~repro.transport.memory` pipes to keep kernel noise out of timings.
"""

from __future__ import annotations

import socket

from repro.transport.base import TransportClosed, TransportError, drop_sent, prime_allocator

#: Buffers handed to one ``sendmsg`` (the kernel refuses more than
#: ``IOV_MAX``, 1024 on Linux; a message is rarely more than a few).
MAX_SEND_PIECES = 64


class SocketChannel:
    """Channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._closed = False

    def send_all(self, data: bytes) -> None:
        if self._closed:
            raise TransportClosed("socket channel is closed")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc

    def send_pieces(self, pieces) -> None:
        if self._closed:
            raise TransportClosed("socket channel is closed")
        try:
            sent = self._sock.sendmsg(pieces[:MAX_SEND_PIECES])
            if sent < sum(map(len, pieces)):
                # a partial send, or more buffers than one call takes
                out = [piece for piece in pieces if len(piece)]
                drop_sent(out, sent)
                while out:
                    drop_sent(out, self._sock.sendmsg(out[:MAX_SEND_PIECES]))
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._closed:
            return b""
        try:
            return self._sock.recv(max_bytes)
        except OSError as exc:
            raise TransportClosed(f"recv failed: {exc}") from exc

    def recv_into(self, view: memoryview) -> int:
        if self._closed:
            return 0
        try:
            return self._sock.recv_into(view)
        except OSError as exc:
            raise TransportClosed(f"recv failed: {exc}") from exc

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    @property
    def peer(self) -> tuple[str, int]:
        return self._sock.getpeername()


class TcpListener:
    """Listening socket yielding :class:`SocketChannel` per connection.

    Bind to port 0 to let the OS pick a free port (see :attr:`port`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(backlog)
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def raw_socket(self) -> socket.socket:
        """The listening socket itself.

        The event-driven server (:mod:`repro.transport.aio`) registers
        this with its selector and accepts non-blockingly, instead of
        parking a thread in :meth:`accept`.
        """
        return self._sock

    def accept(self) -> SocketChannel:
        try:
            conn, _peer = self._sock.accept()
        except OSError as exc:
            raise TransportClosed(f"listener closed: {exc}") from exc
        return SocketChannel(conn)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # close() alone leaves a thread parked in accept() asleep (on
            # Linux the fd stays referenced by the blocked call); shutting
            # the listening socket down first wakes it at once
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not listening any more (or never connected): fine
            self._sock.close()


def connect_tcp(host: str, port: int, timeout: float | None = 10.0) -> SocketChannel:
    """Connect to a TCP endpoint and wrap it as a channel."""
    # a process that only ever connects never starts a server: this is
    # where it gets the allocator policy (one flag check after the first)
    prime_allocator()
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return SocketChannel(sock)
