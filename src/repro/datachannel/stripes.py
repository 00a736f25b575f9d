"""One object received as ranges by several worker threads: the striped
receive under GridFTP retrieval (:mod:`repro.gridftp.client`, blocks pushed
down each data stream) and the federation's fetch
(:mod:`repro.fed.striping`, stripes pulled from each source).  DESIGN.md
§10 "One striped receive" has the rule.

The landing is not zero-filled: resident memory tracks bytes received,
never the size a peer announced, so :meth:`Stripes.body` is given only when
the landed ranges tile the object exactly — a missing or duplicated range
is an error and never shows stale memory.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.gridftp.errors import GridFTPError, StripeTimeout
from repro.transport.base import _uninitialised
from repro.transport.resilience import Deadline


class Stripes:
    """The receive of one ``size``-byte object, shared by its workers."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._view = _uninitialised(size)
        self._lock = threading.Lock()
        self._cursor = 0
        self._channels: dict[threading.Thread, object] = {}
        self._idle: set[threading.Thread] = set()  # workers waiting for work, not stalled
        self.ranges: list[tuple[int, int]] = []  #: ``(offset, length)`` landed
        self.landed_bytes = 0
        self.seeks = 0  #: ranges that did not start where the last one ended
        self.over = False  #: the transfer has ended: no worker takes more work

    def region(self, offset: int, length: int) -> memoryview:
        """Where ``[offset, offset + length)`` lands; refused past the object."""
        if offset + length > self.size:
            raise GridFTPError(f"block [{offset}, {offset + length}) beyond file of {self.size}")
        return self._view[offset : offset + length]

    def landed(self, offset: int, length: int) -> int:
        """Record a range as landed; returns the bytes landed so far."""
        with self._lock:
            if offset != self._cursor:
                self.seeks += 1
            self._cursor = offset + length
            self.ranges.append((offset, length))
            self.landed_bytes += length
            return self.landed_bytes

    def register(self, channel):
        """Return the channel the calling worker reads; the end closes it and joins the worker."""
        with self._lock:
            self._channels[threading.current_thread()] = channel
            over = self.over
        if over:
            channel.close()
        return channel

    def idle(self, wait: Callable):
        """``wait()``, the calling worker counted as idle — not stalled —
        while it blocks (a puller parked on an empty work queue)."""
        me = threading.current_thread()
        with self._lock:
            self._idle.add(me)
        try:
            return wait()
        finally:
            with self._lock:
                self._idle.discard(me)

    def end(self) -> list[threading.Thread]:
        """End the transfer: close every registered channel; returns their workers."""
        with self._lock:
            self.over = True
            held = dict(self._channels)
        for channel in held.values():
            channel.close()
        return list(held)

    def run(self, target: Callable, prefix: str, workers: Iterable[tuple], timeout, stats) -> None:
        """``target(*args)`` per ``args`` in ``workers``, on a thread named
        ``prefix`` + ``args[0]``; past ``timeout`` seconds, the end, then
        :class:`StripeTimeout` carrying ``stats`` if a worker was running
        and not :meth:`idle`."""
        threads = [
            threading.Thread(target=target, args=args, name=f"{prefix}{args[0]}", daemon=True)
            for args in workers
        ]
        for thread in threads:
            thread.start()
        wait = Deadline.after(timeout)
        for thread in threads:
            thread.join(timeout=max(0.0, wait.remaining()))
        with self._lock:
            stalled = [t.name for t in threads if t.is_alive() and t not in self._idle]
        for thread in self.end():
            thread.join()
        if stalled:
            raise StripeTimeout(
                f"{len(stalled)}/{len(threads)} stripe workers stalled after "
                f"{timeout:.1f}s; {self.landed_bytes}/{self.size} bytes landed",
                stats=stats,
            )

    def body(self) -> memoryview:
        """The object, read-only, once the landed ranges tile it exactly."""
        end = 0
        for offset, length in sorted(self.ranges):
            if offset != end:
                break
            end += length
        if end != self.size or self.landed_bytes != self.size:
            raise GridFTPError(
                f"landed ranges do not tile the file: {self.landed_bytes} of "
                f"{self.size} bytes landed, the first gap or overlap at byte {end}"
            )
        return self._view.toreadonly()
