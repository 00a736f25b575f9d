"""Channel and listener abstractions.

A :class:`Channel` is a reliable, ordered duplex byte stream — the least
common denominator of TCP sockets and in-memory pipes.  Everything above
(HTTP, the TCP SOAP binding, GridFTP data streams) is written against this
protocol, which is what lets the whole stack run identically over real
sockets, in-process pipes, or instrumented/simulated links.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


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

    def send_pieces(self, pieces) -> None:
        """Send every byte of every buffer in ``pieces`` (a list or tuple),
        in order, without joining them: what fits leaves in one gathered
        write, so a small message written as head + body is still one
        segment."""
        ...

    def recv(self, max_bytes: int = 65536) -> bytes:
        """Receive up to ``max_bytes``; empty bytes means orderly EOF."""
        ...

    def recv_into(self, view: memoryview) -> int:
        """Receive up to ``len(view)`` bytes into ``view``; returns how many
        (0 means orderly EOF).  Called by :class:`Landing` and by the
        wrappers forwarding to it, nowhere else."""
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


#: Ceiling on what a length the peer declared may size: one ``recv`` of a
#: protocol field (``recv(10**15)`` raises ``MemoryError`` in whichever
#: thread called it) and the buffer a body lands in (:class:`Landing` —
#: allocated, never touched ahead of the bytes).  The ceiling is *large* on
#: purpose: a body under it lands in the one buffer allocated for it, where
#: one over it is copied at every regrowth and its outgrown buffers,
#: interleaved across connections, fragment the heap.  Measured with the
#: ceiling at 256 KiB on a 1.2 MB echo under :func:`prime_allocator`: +10 %
#: time per exchange, and at eight connections +3.6 MiB peak RSS on the
#: selector driver, +1.7 MiB on the threaded one
#: (``tools/copy_budget.py --cell aio:100000:8:262144``); ISSUE 18 measured
#: the pieces of such a cap at +4 to +19 MiB before any policy was set.
MAX_READ_BYTES = 16 << 20


#: What one read takes while no body is owed (a head and what follows it,
#: on either driver): sized for a head, not for what follows it.  What it
#: takes past the head is copied into the body's landing, and a 64 KiB read
#: put two 64 KiB buffers beside every landing that split the hole the last
#: one left, so one landing in a while went to fresh heap (+1 payload of
#: resident memory).
HEAD_READ_BYTES = 4096


def read_size(owed: int) -> int:
    """How much a peer that declared ``owed`` bytes may have read or
    allocated for it at once: all of it (so never into the next message),
    under :data:`MAX_READ_BYTES`."""
    return min(owed, MAX_READ_BYTES)


#: The allocator policy as ``mallopt(parameter, value)`` settings (glibc's
#: parameter numbers, ``malloc.h``).  Both thresholds sit past anything a
#: sized read allocates; the pad is what a trim leaves behind.
_ALLOCATOR_POLICY = (
    (-8, 1),  # M_ARENA_MAX
    (-3, MAX_READ_BYTES + 4096),  # M_MMAP_THRESHOLD
    (-1, 2 * MAX_READ_BYTES),  # M_TRIM_THRESHOLD
    (-2, 2 * MAX_READ_BYTES),  # M_TOP_PAD
)

_allocator_primed = False


def _libc_function(name: str, *argtypes: str):
    """The C library's ``int name(*argtypes)`` (``ctypes`` type names), or
    ``None`` where there is none to call (no ``ctypes``, no handle on the
    running process, no such symbol)."""
    try:
        import ctypes  # numpy has already paid for this import

        function = getattr(ctypes.CDLL(None), name)
    except (ImportError, OSError, TypeError, AttributeError):
        return None
    function.argtypes = tuple(getattr(ctypes, argtype) for argtype in argtypes)
    function.restype = ctypes.c_int
    return function


def _find_mallopt():
    """``mallopt(parameter, value)``, or ``None``."""
    return _libc_function("mallopt", "c_int", "c_int")


def _find_malloc_trim():
    """``malloc_trim(pad)`` (glibc's), or ``None``."""
    return _libc_function("malloc_trim", "c_size_t")


def prime_allocator() -> None:
    """Set the process's one allocator policy, once, before its threads.

    Called by whatever is about to give a payload a thread: a server as it
    starts (``OneShot.start``, ``WorkerPool.start`` — before the first
    thread either spawns) and a client as it connects (``connect_tcp``).
    Four ``mallopt`` settings, silently skipped where the C library has no
    ``mallopt`` or does not know a parameter (every one is a hint to glibc
    and means nothing to another allocator), and with them numpy's
    huge-page advice:

    * **One arena.**  glibc hands every thread an arena of its own, and
      every arena keeps its own high-water mark: memory a pool worker freed
      is memory the loop thread cannot reuse.  These threads allocate only
      while holding the GIL, so separate arenas buy them no parallelism and
      cost one peak each (measured on a 1.2 MB echo, two connections, two
      workers: 4.9 MB resident in the loop thread's arena and 2.35 MB in
      each worker's, against 4.8 MB ever live).  ``M_ARENA_MAX = 1`` keeps
      every later thread in the main arena.
    * **No mmap, no trim, for anything a read allocates.**  Left to itself
      glibc derives both thresholds from the largest mmapped block it has
      seen freed.  Once that is a 1.2 MB body, a heap whose top holds two
      of them free is trimmed — the end of every 1.2 MB exchange that lets
      go of its buffers — and the next exchange faults the pages back in
      (measured: 570-590 minor faults and +1 ms per echo in a server, ~1100
      in a client; 0 after).  ``M_MMAP_THRESHOLD`` just above the read
      ceiling and ``M_TRIM_THRESHOLD`` at twice it are where that heuristic
      would arrive on its own after one block of the ceiling's size.
    * **A trim gives back the excess, not everything.**  With one arena the
      trim threshold is met by what all threads free *together*, and glibc
      then returns the whole free top, down to ``M_TOP_PAD`` (128 KiB by
      default) — for the next exchange to fault back in (measured on 8.4 MB
      bodies, two connections, threaded driver: 2300 faults and +83 % server
      CPU per exchange against per-thread arenas).  A pad equal to the
      threshold keeps the 32 MiB the threshold promises and releases only
      what is beyond it (~45 faults, CPU level with the per-thread reading).
    * **No huge pages for what a claim sizes.**  numpy advises
      ``MADV_HUGEPAGE`` on every array of 4 MiB and up, so a landing sized
      by a peer's claim faults in 2 MiB for the first byte it receives in
      a 2 MiB block nothing has touched yet (measured: one byte written at
      a block boundary of a fresh 16 MiB landing, 2048 KiB resident against
      4) — and once the trim below has returned the heap top, the first
      landing is in such blocks.  The advice is switched off for the
      process, silently skipped where numpy has no switch for it.

    Its last step is one ``malloc_trim(0)`` (skipped with the settings, and
    where the C library has none): the heap start-up has already freed goes
    back to the kernel instead of staying resident for the life of the
    process — ~0.9 MiB in a process that compiled ``repro`` from source,
    nothing with a bytecode cache (DESIGN.md §10 "The process floor").  It
    runs here, once, before any serving thread, and nowhere else: nothing
    is trimmed between exchanges.

    What it cannot do: ``M_ARENA_MAX`` stops *new* arenas, so a thread an
    embedder started (and that allocated) earlier keeps the arena it has,
    and an arena a finished thread left behind is handed to the next one;
    pymalloc serves objects under 512 B from its own pools and never asks
    ``malloc`` at all, so small-object churn is untouched either way.

    The price is process-wide and the embedder's to know, in servers and
    clients alike: native code that releases the GIL to ``malloc`` in
    parallel now contends for one arena lock, glibc serves allocations
    under 16 MiB from the heap, grows the heap 32 MiB of address space
    (not of memory) ahead of need, and returns freed heap top to the
    kernel only past 32 MiB, so an idle process can sit on that much;
    and no numpy array is backed by huge pages.  DESIGN.md §10 has the
    body-size × connection-count table (``tools/copy_budget.py --matrix``).
    """
    global _allocator_primed
    if _allocator_primed:
        return
    _allocator_primed = True
    mallopt = _find_mallopt()
    if mallopt is None:
        return
    for parameter, value in _ALLOCATOR_POLICY:
        mallopt(parameter, value)
    try:
        np._core.multiarray._set_madvise_hugepage(False)
    except AttributeError:  # a numpy without the advice (or before 2.0)
        pass
    trim = _find_malloc_trim()
    if trim is not None:
        trim(0)


def take(buf: bytearray, end: int, start: int = 0) -> bytes:
    """Cut ``buf[start:end]`` out as ``bytes`` and drop ``buf[:end]``.

    One copy of the payload: ``bytes(buf[start:end])`` makes two, the
    slice being a fresh ``bytearray`` first.
    """
    with memoryview(buf) as view:
        out = bytes(view[start:end])
    del buf[:end]
    return out


def drain_into(buf: bytearray, view: memoryview) -> int:
    """Move the front of ``buf`` into ``view``; returns how many bytes."""
    n = min(len(buf), len(view))
    with memoryview(buf) as front:
        view[:n] = front[:n]
    del buf[:n]
    return n


def recv_exactly(channel: Channel, nbytes: int) -> bytes:
    """Receive exactly ``nbytes`` from a channel or raise TransportClosed.

    For a protocol's *fields* — a magic, a length word, a nonce, a block
    header — which a caller unpacks or compares as ``bytes``.  A message
    body is received by :func:`land`.
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


def recv_into(channel, view: memoryview) -> int:
    """``channel.recv_into(view)`` for any channel.

    One written against the three-method protocol (``send_all`` / ``recv``
    / ``close``: the ledger's traced channel, a test double) has no
    ``recv_into`` and is read with ``recv`` and one copy.
    """
    try:
        into = channel.recv_into
    except AttributeError:
        data = channel.recv(len(view))
        view[: len(data)] = data
        return len(data)
    return into(view)


def send_pieces(channel, pieces) -> None:
    """``channel.send_pieces(pieces)`` for any channel; one without a
    gather-send is sent the join, so the message still leaves in one
    write."""
    try:
        gather = channel.send_pieces
    except AttributeError:
        channel.send_all(b"".join(pieces))
        return
    gather(pieces)


def drop_sent(pieces: list, sent: int) -> None:
    """Advance a queue of wire pieces past ``sent`` written bytes, in
    place: whole pieces leave it, a piece the write stopped inside
    continues as a view of its remainder."""
    while sent:
        size = len(pieces[0])
        if sent < size:
            pieces[0] = memoryview(pieces[0])[sent:]
            return
        sent -= size
        del pieces[0]


class Landing:
    """A length-declared body on its way in: received once, in place.

    The one receive path for a body whose length the peer declared — both
    HTTP drivers, the TCP binding and both clients (the blocking callers
    through :func:`land`, the selector loop by calling :meth:`fill` when
    its socket is readable).  The buffer is allocated for what is declared,
    under :data:`MAX_READ_BYTES`, and *not zero-filled*: its pages become
    resident as ``recv_into`` writes them, so memory held tracks bytes
    received, never bytes claimed.  A body past the ceiling outgrows the
    buffer in steps of four times what has arrived.  :meth:`body` is a
    read-only view of the same memory — no join, no freeze — and the
    buffer lives as long as any view of it (an array decoded
    ``copy=False`` is one): it is never recycled.

    A body that arrived whole with its head owes no read, so it is not
    given a buffer to land in: it is one ``bytes`` copy of what arrived
    (``Landing(200, first).body()``: ~1.0 µs that way, ~1.8 µs with an
    array behind it).
    """

    __slots__ = ("declared", "filled", "_view")

    def __init__(self, declared: int, first=b"") -> None:
        """``first`` is what arrived with the head: the body's first bytes."""
        self.declared = declared
        self.filled = len(first)
        if self.filled == declared:
            self._view = memoryview(bytes(first))
            return
        self._view = _uninitialised(read_size(declared))
        if first:
            self._view[: self.filled] = first

    @property
    def missing(self) -> int:
        """Bytes still owed."""
        return self.declared - self.filled

    def fill(self, source) -> int:
        """One ``recv_into`` at the write offset, for at most what is owed;
        returns the bytes landed (0 at end of stream).  ``source`` is a
        channel or a socket."""
        view = self._view
        if self.filled == len(view):
            # sized by what arrived, never by the claim alone: a 64 MiB
            # body over the 16 MiB ceiling is copied once (16 MiB), where
            # doubling copied 16 + 32 MiB and held 32 + 64 at its last step
            view = _uninitialised(min(4 * self.filled, self.declared))
            view[: self.filled] = self._view
            self._view = view
        got = recv_into(source, view[self.filled :])
        self.filled += got
        return got

    def body(self) -> memoryview:
        """The received body, read-only (call once nothing is missing)."""
        return self._view.toreadonly()


_BYTE = np.dtype("u1")


def _uninitialised(nbytes: int) -> memoryview:
    """``nbytes`` of writable memory nobody has touched (``bytearray(n)``
    would write a zero to every page of it)."""
    return memoryview(np.empty(nbytes, _BYTE))


def land(channel: Channel, nbytes: int) -> memoryview:
    """Receive a body of exactly ``nbytes`` or raise TransportClosed.

    What a :class:`BufferedChannel` holds of it already (read with the
    head) is the body's first bytes, as the selector driver's are."""
    if isinstance(channel, BufferedChannel):
        landing = channel.landing(nbytes)
    else:
        landing = Landing(nbytes)
    while landing.filled < nbytes:
        if not landing.fill(channel):
            raise TransportClosed(
                f"peer closed mid-message ({landing.filled}/{nbytes} bytes received)"
            )
    return landing.body()


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

    def send_pieces(self, pieces) -> None:
        send_pieces(self._channel, pieces)

    def close(self) -> None:
        self._channel.close()

    # -- read side ---------------------------------------------------

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._buf:
            return take(self._buf, max_bytes)
        return self._channel.recv(max_bytes)

    def recv_into(self, view: memoryview) -> int:
        if self._buf:  # what was read past a delimiter comes first
            return drain_into(self._buf, view)
        return recv_into(self._channel, view)

    def recv_exactly(self, nbytes: int) -> bytes:
        return recv_exactly(self, nbytes)

    def landing(self, nbytes: int) -> Landing:
        """A :class:`Landing` for the next ``nbytes``, holding what of them
        is buffered already."""
        with memoryview(self._buf) as buffered:
            landing = Landing(nbytes, buffered[:nbytes])
        del self._buf[:nbytes]
        return landing

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
            chunk = self._channel.recv(HEAD_READ_BYTES)
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
