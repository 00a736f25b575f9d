"""In-process transport: thread-safe byte pipes and a named network.

``memory_pipe()`` hands back two connected channel endpoints backed by
bounded-latency queues; :class:`MemoryNetwork` adds listen/connect semantics
by name so a client thread and a server thread can rendezvous exactly like
they would over sockets — but with zero OS involvement, which keeps the
experiment harness' CPU measurements clean of kernel noise.
"""

from __future__ import annotations

import queue
import threading

from repro.transport.base import TransportClosed, TransportError, drain_into, take

_EOF = None  # sentinel on the chunk queue


class _PipeEnd:
    """One endpoint of a duplex in-memory pipe."""

    def __init__(self, send_q: queue.SimpleQueue, recv_q: queue.SimpleQueue) -> None:
        self._send_q = send_q
        self._recv_q = recv_q
        self._recv_buf = bytearray()
        self._send_closed = False
        self._recv_eof = False
        self._lock = threading.Lock()

    def send_all(self, data: bytes) -> None:
        with self._lock:
            if self._send_closed:
                raise TransportClosed("channel is closed")
        if data:
            self._send_q.put(bytes(data))

    def send_pieces(self, pieces) -> None:
        for piece in pieces:
            self.send_all(piece)

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._recv_buf:
            return take(self._recv_buf, max_bytes)
        if self._recv_eof:
            return b""
        chunk = self._recv_q.get()
        if chunk is _EOF:
            self._recv_eof = True
            return b""
        if len(chunk) <= max_bytes:
            return chunk
        self._recv_buf.extend(chunk[max_bytes:])
        return chunk[:max_bytes]

    def recv_into(self, view: memoryview) -> int:
        if not self._recv_buf:
            if self._recv_eof:
                return 0
            chunk = self._recv_q.get()
            if chunk is _EOF:
                self._recv_eof = True
                return 0
            if len(chunk) <= len(view):
                view[: len(chunk)] = chunk
                return len(chunk)
            self._recv_buf += chunk
        return drain_into(self._recv_buf, view)

    def close(self) -> None:
        with self._lock:
            if self._send_closed:
                return
            self._send_closed = True
        self._send_q.put(_EOF)
        # also wake a reader blocked on *this* end (socket shutdown
        # semantics): without it, closing an idle connection leaves its
        # reader thread asleep forever and a draining server waits on it
        self._recv_q.put(_EOF)


def memory_pipe() -> tuple[_PipeEnd, _PipeEnd]:
    """Create a connected duplex pipe; returns (end_a, end_b)."""
    q_ab: queue.SimpleQueue = queue.SimpleQueue()
    q_ba: queue.SimpleQueue = queue.SimpleQueue()
    return _PipeEnd(q_ab, q_ba), _PipeEnd(q_ba, q_ab)


class _MemoryListener:
    def __init__(self, network: "MemoryNetwork", name: str) -> None:
        self._network = network
        self._name = name
        self._pending: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False

    def accept(self):
        end = self._pending.get()
        if end is None:
            raise TransportClosed(f"listener {self._name!r} closed")
        return end

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._network._unregister(self._name)
            # fail connections still waiting in the backlog: their peers
            # would otherwise block forever on a response from a server
            # that will never accept them
            while True:
                try:
                    end = self._pending.get_nowait()
                except queue.Empty:
                    break
                if end is not None:
                    end.close()
            self._pending.put(None)

    def _enqueue(self, end) -> None:
        if self._closed:
            raise TransportError(f"listener {self._name!r} is closed")
        self._pending.put(end)


class MemoryNetwork:
    """A named in-process "network": listen/connect rendezvous by string key.

    One instance per test or experiment keeps endpoints isolated; there is
    deliberately no global default network.
    """

    def __init__(self) -> None:
        self._listeners: dict[str, _MemoryListener] = {}
        self._lock = threading.Lock()

    def listen(self, name: str) -> _MemoryListener:
        with self._lock:
            if name in self._listeners:
                raise TransportError(f"address {name!r} already in use")
            listener = _MemoryListener(self, name)
            self._listeners[name] = listener
            return listener

    def connect(self, name: str) -> _PipeEnd:
        with self._lock:
            listener = self._listeners.get(name)
        if listener is None:
            raise TransportError(f"connection refused: no listener at {name!r}")
        client_end, server_end = memory_pipe()
        listener._enqueue(server_end)
        return client_end

    def _unregister(self, name: str) -> None:
        with self._lock:
            self._listeners.pop(name, None)
