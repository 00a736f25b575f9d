"""Byte-accounting channel wrapper for the experiment harness.

The harness separates *measured CPU time* from *modelled wire time*: code
runs for real over in-memory pipes, while the network cost of every byte is
computed afterwards from the traffic profile this wrapper records.  A
:class:`ChannelStats` therefore captures exactly what the netsim TCP model
needs — how many bytes went each way and in how many application-level
bursts (each burst ≥ one round of packets ⇒ at least one RTT of pipelining
structure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.base import recv_into, send_pieces


@dataclass
class ChannelStats:
    """Traffic totals recorded by :class:`InstrumentedChannel`."""

    bytes_sent: int = 0
    bytes_received: int = 0
    sends: int = 0  #: number of send_all calls (application message bursts)
    #: Number of contiguous runs of data-returning recv calls.  One logical
    #: response read in many 64 KiB chunks is one application-level burst,
    #: not one per chunk — the per-burst RTT structure in the TCP model
    #: depends on this (a run ends when the application sends again).
    receives: int = 0

    def merge(self, other: "ChannelStats") -> None:
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.sends += other.sends
        self.receives += other.receives

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


class InstrumentedChannel:
    """Wrap any channel, counting bytes in both directions."""

    def __init__(self, channel, stats: ChannelStats | None = None) -> None:
        self._channel = channel
        self.stats = stats if stats is not None else ChannelStats()
        self._in_recv_run = False

    def send_all(self, data: bytes) -> None:
        self._channel.send_all(data)
        self._in_recv_run = False
        self.stats.bytes_sent += len(data)
        self.stats.sends += 1

    def send_pieces(self, pieces) -> None:
        """One application burst, however many buffers it is gathered from."""
        send_pieces(self._channel, pieces)
        self._in_recv_run = False
        self.stats.bytes_sent += sum(map(len, pieces))
        self.stats.sends += 1

    def recv(self, max_bytes: int = 65536) -> bytes:
        chunk = self._channel.recv(max_bytes)
        self._received(len(chunk))
        return chunk

    def recv_into(self, view: memoryview) -> int:
        got = recv_into(self._channel, view)
        self._received(got)
        return got

    def _received(self, nbytes: int) -> None:
        if nbytes:
            self.stats.bytes_received += nbytes
            if not self._in_recv_run:
                self.stats.receives += 1
                self._in_recv_run = True

    def close(self) -> None:
        self._channel.close()
