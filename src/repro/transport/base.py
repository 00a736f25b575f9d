"""Channel and listener abstractions.

A :class:`Channel` is a reliable, ordered duplex byte stream — the least
common denominator of TCP sockets and in-memory pipes.  Everything above
(HTTP, the TCP SOAP binding, GridFTP data streams) is written against this
protocol, which is what lets the whole stack run identically over real
sockets, in-process pipes, or instrumented/simulated links.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


class TransportError(Exception):
    """Base class for transport-layer failures."""


class TransportClosed(TransportError):
    """The peer closed the channel (or it was closed locally)."""


@runtime_checkable
class Channel(Protocol):
    """A reliable duplex byte stream."""

    def send_all(self, data: bytes) -> None:
        """Send every byte of ``data`` (blocking)."""
        ...

    def recv(self, max_bytes: int = 65536) -> bytes:
        """Receive up to ``max_bytes``; empty bytes means orderly EOF."""
        ...

    def close(self) -> None:
        """Close both directions; idempotent."""
        ...


@runtime_checkable
class Listener(Protocol):
    """Accepts inbound channel connections."""

    def accept(self) -> Channel:
        """Block until a peer connects; returns the server-side channel."""
        ...

    def close(self) -> None: ...


#: Ceiling on one read sized by a length the peer declared.  A declared
#: length must never size an allocation: ``recv(10**15)`` raises
#: ``MemoryError`` in whichever thread called it.  The ceiling is *large*
#: on purpose — a body read in few pieces near its final size reuses the
#: allocator's chunks, where a 256 KiB cap fragmented the arenas (ISSUE 18
#: measured 60-75 MiB peak RSS on a 1.2 MB echo against 56 uncapped).
MAX_READ_BYTES = 16 << 20


def read_size(owed: int) -> int:
    """How much to ask a socket for while ``owed`` bytes of a declared
    body are outstanding: all of it (so never into the next message),
    under :data:`MAX_READ_BYTES`."""
    return min(owed, MAX_READ_BYTES)


_allocator_primed = False


def prime_allocator() -> None:
    """Tell the allocator, once per process, how large read buffers get.

    A serving driver calls this as it starts.  glibc derives its mmap and
    heap-trim thresholds from the largest mmapped block it has seen freed.
    Once that is a 1.2 MB body, a heap whose top holds two of them free is
    trimmed — the end of every 1.2 MB exchange that lets go of its
    buffers — and the next exchange faults the pages back in (measured:
    570-590 minor faults and +1 ms per echo, 0 after).  One untouched
    block of the read ceiling's size, allocated and freed, moves both
    thresholds past anything a read allocates: an mmap/munmap pair, no
    page committed, and meaningless to an allocator without the
    heuristic.  Once only: a second block this size would come from the
    heap, be zeroed, and stay.

    The price is process-wide and the embedder's to know: from here on
    glibc serves allocations under 16 MiB from the heap and returns freed
    heap top to the kernel only past 32 MiB, so an idle server can sit on
    that much.  Verified for the ledger's traffic (1.2 MB bodies, two
    connections); other sizes and connection counts are not measured.
    """
    global _allocator_primed
    if not _allocator_primed:
        _allocator_primed = True
        bytes(MAX_READ_BYTES)


def take(buf: bytearray, end: int, start: int = 0) -> bytes:
    """Cut ``buf[start:end]`` out as ``bytes`` and drop ``buf[:end]``.

    One copy of the payload: ``bytes(buf[start:end])`` makes two, the
    slice being a fresh ``bytearray`` first.
    """
    with memoryview(buf) as view:
        out = bytes(view[start:end])
    del buf[:end]
    return out


def recv_exactly(channel: Channel, nbytes: int) -> bytes:
    """Receive exactly ``nbytes`` from a channel or raise TransportClosed.

    The workhorse of every framed protocol in this project.  ``nbytes``
    is usually the peer's claim, so memory held tracks bytes *received*:
    pieces as they arrive (each read sized by :func:`read_size`), one join
    at the end.
    """
    if nbytes == 0:
        return b""
    chunks: list[bytes] = []
    remaining = nbytes
    while remaining > 0:
        chunk = channel.recv(read_size(remaining))
        if not chunk:
            raise TransportClosed(
                f"peer closed mid-message ({nbytes - remaining}/{nbytes} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class BufferedChannel:
    """A channel wrapper with an internal read buffer.

    Lets protocols that mix delimiter-framed sections with length-framed
    bodies (HTTP) read in large chunks without losing bytes read past a
    delimiter.  Writing passes straight through.
    """

    def __init__(self, channel: Channel) -> None:
        self._channel = channel
        self._buf = bytearray()

    # -- write side --------------------------------------------------

    def send_all(self, data: bytes) -> None:
        self._channel.send_all(data)

    def close(self) -> None:
        self._channel.close()

    # -- read side ---------------------------------------------------

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._buf:
            return take(self._buf, max_bytes)
        return self._channel.recv(max_bytes)

    def recv_exactly(self, nbytes: int) -> bytes:
        return recv_exactly(self, nbytes)

    def unrecv(self, data: bytes) -> None:
        """Push bytes back to the *front* of the read buffer.

        For parsers that must over-read to find a message boundary (the
        chunked-body decoder): whatever followed the boundary is returned
        here and comes back first on the next read.
        """
        if data:
            self._buf[:0] = data

    def recv_until(self, delimiter: bytes, max_bytes: int = 1 << 20) -> bytes:
        """Read until ``delimiter``; returns data *including* it.

        Bytes received past the delimiter stay buffered for later reads.
        """
        search_from = 0
        while True:
            idx = self._buf.find(delimiter, max(0, search_from - len(delimiter) + 1))
            if idx >= 0:
                return take(self._buf, idx + len(delimiter))
            if len(self._buf) > max_bytes:
                raise TransportError(f"delimiter not found within {max_bytes} bytes")
            search_from = len(self._buf)
            chunk = self._channel.recv(65536)
            if not chunk:
                raise TransportClosed("peer closed before delimiter")
            self._buf.extend(chunk)

    def at_eof_probe(self) -> bool:
        """Non-destructive-ish EOF probe: true when a read returns EOF now.

        Only safe between messages (any buffered bytes mean not-EOF; a
        successful read is kept in the buffer).
        """
        if self._buf:
            return False
        chunk = self._channel.recv(65536)
        if not chunk:
            return True
        self._buf.extend(chunk)
        return False
