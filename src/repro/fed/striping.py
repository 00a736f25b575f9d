"""Multi-source striped transfers across federation replicas.

One large fetch is split into byte-range stripes and pulled
concurrently from several replicas at once — the xDFS/xDotGrid idea
layered over this framework's serve replicas instead of raw GridFTP
data channels.  Each source runs one puller thread claiming stripes
from a shared work queue, so a fast replica naturally takes more of
the transfer; a source that fails mid-transfer is abandoned and its
stripe re-queued for the survivors.

The landing, the pullers and their timeout are shared with
:mod:`repro.gridftp.client` (:mod:`repro.datachannel.stripes`): a
transfer whose pullers stall past the budget raises the same
:class:`~repro.gridftp.errors.StripeTimeout`.  Every stripe is
length-checked and (optionally) digest-verified on arrival; each pull
runs under a ``fed.stripe`` span parented to the transfer's
``fed.fetch`` span, so a joined trace shows one tree per fetch spanning
every replica that contributed bytes.
"""

from __future__ import annotations

import hashlib
import queue
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.datachannel.stripes import Stripes
from repro.gridftp.errors import GridFTPError, StripeTimeout

#: A stripe source: (name, fetch) where ``fetch(offset, length)``
#: returns exactly ``length`` bytes of the object.
StripeSource = tuple[str, Callable[[int, int], bytes]]


class StripeVerificationError(GridFTPError):
    """A stripe arrived with the wrong length or digest."""


@dataclass
class StripeStats:
    """What a striped fetch actually did, per source."""

    total_bytes: int = 0
    stripes_total: int = 0
    stripes_by_source: dict[str, int] = field(default_factory=dict)
    requeued_stripes: int = 0
    failed_sources: list[str] = field(default_factory=list)
    duration_seconds: float = 0.0


def plan_stripes(size: int, stripe_size: int) -> list[tuple[int, int, int]]:
    """Split ``size`` bytes into ``(index, offset, length)`` stripes."""
    if size < 0:
        raise ValueError("size must be non-negative")
    if stripe_size <= 0:
        raise ValueError("stripe_size must be positive")
    return [
        (index, offset, min(stripe_size, size - offset))
        for index, offset in enumerate(range(0, size, stripe_size))
    ]


def stripe_digests(blob: bytes, stripe_size: int) -> list[str]:
    """Per-stripe sha256 hexdigests for verifying a striped fetch."""
    return [
        hashlib.sha256(blob[offset : offset + length]).hexdigest()
        for _index, offset, length in plan_stripes(len(blob), stripe_size)
    ]


def striped_fetch(
    sources: Sequence[StripeSource],
    size: int,
    *,
    stripe_size: int = 64 * 1024,
    stripe_timeout: float = 30.0,
    digests: Sequence[str] | None = None,
) -> tuple[memoryview, StripeStats]:
    """Pull ``size`` bytes as stripes from several sources concurrently.

    Every stripe is length-checked; when ``digests`` (one sha256 hex per
    stripe, e.g. from :func:`stripe_digests`) is given each stripe is
    verified before it lands in the buffer — a source serving bad bytes
    is treated like a failed source and its stripe re-pulled elsewhere.

    Raises :class:`StripeTimeout` when pullers stall past
    ``stripe_timeout`` (same semantics as ``repro.gridftp.client``), or
    :class:`GridFTPError` when every source has failed with stripes
    still missing.
    """
    if not sources:
        raise ValueError("striped_fetch needs at least one source")
    stripes = plan_stripes(size, stripe_size)
    if digests is not None and len(digests) != len(stripes):
        raise ValueError(f"expected {len(stripes)} digests, got {len(digests)}")
    stats = StripeStats(stripes_total=len(stripes))
    started = time.perf_counter()

    recorder = obs.get_recorder()
    with recorder.span(
        "fed.fetch",
        kind="logical",
        size=size,
        sources=len(sources),
        stripes=len(stripes),
    ) as fetch_span:
        receive = Stripes(size)
        # stripes to pull; ``None`` tells one puller the fetch is over
        work: "queue.Queue[tuple[int, int, int] | None]" = queue.Queue()
        for stripe in stripes:
            work.put(stripe)
        errors: list[Exception] = []
        landed_from: list[str] = []  # the source of each stripe, as it lands

        def release() -> None:
            """The fetch is over — complete, failed or timed out: no puller
            starts another stripe, and one parked on the queue wakes now."""
            receive.end()
            for _ in sources:
                work.put(None)

        if not stripes:
            release()

        def pull(name: str, fetch: Callable[[int, int], bytes]) -> None:
            while not receive.over:
                item = receive.idle(work.get)
                if item is None:
                    return
                index, offset, length = item
                with recorder.span(
                    "fed.stripe",
                    kind="wire",
                    parent=fetch_span,
                    source=name,
                    stripe=index,
                    offset=offset,
                ) as stripe_span:
                    try:
                        data = fetch(offset, length)
                        if len(data) != length:
                            raise StripeVerificationError(
                                f"stripe {index} from {name}: expected {length} bytes, "
                                f"got {len(data)}"
                            )
                        if digests is not None:
                            got = hashlib.sha256(data).hexdigest()
                            if got != digests[index]:
                                raise StripeVerificationError(
                                    f"stripe {index} from {name}: digest mismatch "
                                    f"({got[:12]}… != {digests[index][:12]}…)"
                                )
                    except Exception as exc:
                        # This source is out: requeue the stripe for the
                        # survivors and stop pulling from it.
                        stripe_span.set("outcome", type(exc).__name__)
                        errors.append(exc)
                        stats.failed_sources.append(name)
                        work.put(item)
                        return
                    stripe_span.set("outcome", "ok")
                    stripe_span.set("bytes", length)
                    receive.region(offset, length)[:] = data
                    landed_from.append(name)
                    if receive.landed(offset, length) == size:
                        release()

        try:
            receive.run(pull, "fed-stripe-", sources, stripe_timeout, stats)
        except StripeTimeout:
            fetch_span.set("outcome", "stripe_timeout")
            raise
        finally:
            release()
            stats.requeued_stripes = len(stats.failed_sources)  # one per failure
            stats.stripes_by_source = dict(Counter(landed_from))
            stats.total_bytes = receive.landed_bytes
            stats.duration_seconds = time.perf_counter() - started
            fetch_span.set("bytes", stats.total_bytes)
        if receive.landed_bytes != size:
            fetch_span.set("outcome", "sources_exhausted")
            detail = f": {errors[0]}" if errors else ""
            raise GridFTPError(
                f"striped fetch failed: all {len(sources)} sources failed with "
                f"{len(stripes) - len(receive.ranges)} stripes missing{detail}"
            )
        fetch_span.set("outcome", "ok")
        return receive.body(), stats
