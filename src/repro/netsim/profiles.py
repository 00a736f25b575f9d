"""Link and disk parameter sets.

Every constant is either taken from the paper (RTTs), derived from a curve
it reports (single-stream plateaus), or a documented period-plausible value
(2006-era commodity disk and Fast Ethernet).  DESIGN.md records the
derivations; the ablation benchmarks vary them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkProfile:
    """First-order parameters of one network path."""

    name: str
    #: Round-trip time in seconds.
    rtt: float
    #: Shared bottleneck capacity in bytes/second (all streams together).
    capacity: float
    #: Untuned per-stream TCP window in bytes; a single stream can never
    #: exceed ``window / rtt``.
    per_stream_window: int
    #: Maximum segment size in bytes (Ethernet-framed TCP payload).
    mss: int = 1460
    #: Initial congestion window in segments (pre-RFC6928 stacks used 2-4).
    initial_cwnd_segments: int = 3
    #: Fraction of aggregate capacity n parallel streams achieve, as
    #: ``parallel_efficiency ** (n - 1)`` — contention and duplicate
    #: control overhead make n streams slightly worse than one when a
    #: single stream can already fill the path.
    parallel_efficiency: float = 0.985
    #: Receiver-side cost of an out-of-order striped block (the "seek"
    #: operations [Allcock et al. 2005] blame for LAN degradation).
    reorder_seek_time: float = 0.0008
    #: Striped-transfer block size in bytes (GridFTP MODE E default-ish).
    stripe_block_size: int = 262144

    def __post_init__(self) -> None:
        if self.rtt <= 0 or self.capacity <= 0 or self.per_stream_window <= 0:
            raise ValueError("link parameters must be positive")

    @property
    def window_limited_bandwidth(self) -> float:
        """Single-stream ceiling imposed by the untuned window (bytes/s)."""
        return self.per_stream_window / self.rtt


@dataclass(frozen=True)
class DiskModel:
    """Receiver/sender disk for the file-based (separated) schemes.

    The effective rate is *page-cache-backed* sequential I/O on the paper's
    1 GB-RAM boxes (the 64 MB evaluation files fit in cache), not raw
    platter speed: calibrated so the four file touches of the separated
    scheme cost it the ≈15-20 % Figure 5 shows it losing to BXSA/TCP at
    the large end.
    """

    #: Effective sequential rate in bytes/second through the filesystem.
    rate: float = 150e6
    #: Fixed per-file cost (create/open/close/metadata), seconds.
    per_file_overhead: float = 0.0008

    def write_time(self, nbytes: int) -> float:
        """Full, non-overlapped file write (or read)."""
        return self.per_file_overhead + nbytes / self.rate

    read_time = write_time

    def overlapped_excess(self, nbytes: int, concurrent_rate: float) -> float:
        """Extra time a disk touch adds when it overlaps a network leg.

        While a download streams at ``concurrent_rate``, writing it to disk
        only costs extra time if the disk is the slower device; either way
        the per-file overhead is paid.
        """
        excess = max(0.0, nbytes / self.rate - nbytes / concurrent_rate)
        return self.per_file_overhead + excess


#: The paper's local-area testbed: 0.2 ms RTT, Fast-Ethernet-class path
#: (Figure 5's single stream saturates just above 10 MB/s).
LAN = LinkProfile(
    name="LAN",
    rtt=0.0002,
    capacity=11.8e6,
    per_stream_window=65536,
)

#: The paper's wide-area testbed (IU ↔ U. Chicago): 5.75 ms RTT.  The
#: untuned ~24 KiB window caps a single stream at ≈4.2 MB/s — the plateau
#: Figure 6 shows for BXSA/TCP and SOAP+HTTP — while the path itself (the
#: same Fast-Ethernet-class campus links feeding the Abilene backbone) is
#: wide enough that only parallel streams can fill it, which is precisely
#: why GridFTP's 16 streams win there.
WAN = LinkProfile(
    name="WAN",
    rtt=0.00575,
    capacity=11.8e6,
    per_stream_window=24576,
    parallel_efficiency=0.995,
    reorder_seek_time=0.0008,
)
