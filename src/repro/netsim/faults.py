"""Deterministic fault injection for channel-level chaos testing.

The paper's evaluation assumes flawless links; a production deployment sees
connection resets, stalls and half-written requests as the steady state.
This module makes those conditions reproducible: a :class:`FaultSchedule`
is a seeded decision stream drawn from a :class:`FaultProfile`, and a
:class:`FaultingChannel` consults it on every channel operation, injecting

* **reset** — the connection dies abruptly (surfaces as
  :class:`InjectedReset`, a :class:`~repro.transport.base.TransportClosed`);
* **truncate** — a send delivers only a prefix of the data, then resets
  (the half-written request case);
* **stall** — a read blocks for ``stall_seconds`` before proceeding (long
  enough to trip a per-call deadline, finite so nothing hangs forever);
* **slow_read** — a read dribbles back a single byte (exercises every
  ``recv_exactly`` and landing loop above).

Schedules are deliberately *shared* across reconnections: wrapping a
channel factory with :func:`faulty_connect` gives every new connection the
same decision stream, so "the first two attempts reset, the third is
clean" is expressible as ``FaultProfile(reset_rate=1.0, max_faults=2)``
with any seed.  The wrapper composes with
:class:`~repro.transport.instrument.InstrumentedChannel` in either order
(both are plain channels).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.transport.base import (
    Channel,
    TransportClosed,
    TransportError,
    recv_into,
    send_pieces,
)


class InjectedFault(TransportError):
    """A failure injected by a :class:`FaultSchedule` (not organic)."""


class InjectedReset(InjectedFault, TransportClosed):
    """An injected connection reset; upper layers see a closed channel."""


@dataclass(frozen=True)
class FaultProfile:
    """Per-operation fault probabilities for one lossy link."""

    name: str = "custom"
    #: Probability a send or receive kills the connection outright.
    reset_rate: float = 0.0
    #: Probability a send delivers a random prefix, then resets.
    truncate_rate: float = 0.0
    #: Probability a receive blocks for :attr:`stall_seconds` first.
    stall_rate: float = 0.0
    #: Probability a receive returns a single byte (dribble).
    slow_read_rate: float = 0.0
    #: How long an injected stall blocks (real seconds, finite).
    stall_seconds: float = 0.02
    #: Stop injecting after this many faults (None = unbounded).  A finite
    #: budget guarantees any retry loop with more attempts than faults
    #: eventually sees a clean operation.
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for rate in (self.reset_rate, self.truncate_rate, self.stall_rate, self.slow_read_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rates must be in [0, 1], got {rate}")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0 or None")


#: No faults at all — the identity schedule (profile of the paper's testbed).
LOSSLESS = FaultProfile("lossless")

#: Occasional resets and dribbled reads: a congested but usable LAN.
FLAKY_LAN = FaultProfile("flaky-lan", reset_rate=0.05, slow_read_rate=0.10)

#: Long-haul link under duress: resets, half-written requests and dribble.
LOSSY_WAN = FaultProfile(
    "lossy-wan",
    reset_rate=0.10,
    truncate_rate=0.05,
    slow_read_rate=0.15,
    stall_rate=0.02,
    stall_seconds=0.01,
)


class FaultSchedule:
    """A seeded, replayable stream of fault decisions.

    One schedule is typically shared by every channel of one endpoint (see
    :func:`faulty_connect`); the injected-fault log doubles as the test
    oracle for "every fault either recovered or surfaced".
    """

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = random.Random(seed)
        #: Chronological log of injected fault kinds ("reset", ...).
        self.injected: list[str] = []

    @property
    def faults_injected(self) -> int:
        return len(self.injected)

    def _budget_left(self) -> bool:
        limit = self.profile.max_faults
        return limit is None or len(self.injected) < limit

    def _draw(self, kinds: tuple[tuple[str, float], ...]) -> str | None:
        """One decision: at most one fault kind per operation.

        A single uniform draw is compared against stacked rate bands, so
        the decision stream is a pure function of (profile, seed, #draws).
        """
        roll = self._rng.random()
        if not self._budget_left():
            return None
        acc = 0.0
        for kind, rate in kinds:
            acc += rate
            if roll < acc:
                self.injected.append(kind)
                return kind
        return None

    def next_send_fault(self) -> str | None:
        p = self.profile
        return self._draw((("reset", p.reset_rate), ("truncate", p.truncate_rate)))

    def next_recv_fault(self) -> str | None:
        p = self.profile
        return self._draw(
            (("reset", p.reset_rate), ("stall", p.stall_rate), ("slow_read", p.slow_read_rate))
        )

    def truncate_point(self, nbytes: int) -> int:
        """How many bytes of a truncated send actually leave (``< nbytes``)."""
        return self._rng.randrange(nbytes) if nbytes else 0


class FaultingChannel:
    """Wrap any channel, injecting faults per a :class:`FaultSchedule`.

    Composable with any other channel wrapper; wrapping an
    :class:`~repro.transport.instrument.InstrumentedChannel` (or being
    wrapped by one) determines whether faulted bytes are counted.
    """

    def __init__(self, channel: Channel, schedule: FaultSchedule, *, sleep=time.sleep) -> None:
        self._channel = channel
        self._schedule = schedule
        self._sleep = sleep

    def send_all(self, data: bytes) -> None:
        fault = self._schedule.next_send_fault()
        if fault is not None:
            self._fail_send(fault, data)
        self._channel.send_all(data)

    def send_pieces(self, pieces) -> None:
        """One decision per gathered message, as for the ``send_all`` of
        its join."""
        fault = self._schedule.next_send_fault()
        if fault is not None:
            self._fail_send(fault, b"".join(pieces))
        send_pieces(self._channel, pieces)

    def _fail_send(self, fault: str, data: bytes) -> None:
        if fault == "truncate":
            cut = self._schedule.truncate_point(len(data))
            if cut:
                self._channel.send_all(data[:cut])
            self._channel.close()
            raise InjectedReset(
                f"injected truncation: {cut}/{len(data)} bytes delivered before reset"
            )
        self._channel.close()
        raise InjectedReset("injected connection reset during send")

    def recv(self, max_bytes: int = 65536) -> bytes:
        return self._channel.recv(1 if self._recv_fault() == "slow_read" else max_bytes)

    def recv_into(self, view: memoryview) -> int:
        return recv_into(self._channel, view[:1] if self._recv_fault() == "slow_read" else view)

    def _recv_fault(self) -> str | None:
        fault = self._schedule.next_recv_fault()
        if fault == "reset":
            self._channel.close()
            raise InjectedReset("injected connection reset during receive")
        if fault == "stall":
            self._sleep(self._schedule.profile.stall_seconds)
        return fault

    def close(self) -> None:
        self._channel.close()


def faulty_connect(
    connect: Callable[..., Channel], schedule: FaultSchedule
) -> Callable[..., Channel]:
    """Wrap a channel factory so every connection shares one schedule.

    Works for zero-argument factories (``() -> Channel``) and the
    one-argument data-channel connectors of the GridFTP client.
    """

    def connect_faulty(*args):
        return FaultingChannel(connect(*args), schedule)

    return connect_faulty
