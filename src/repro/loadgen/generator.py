"""Open- and closed-loop load generators with seeded reproducibility.

Two canonical traffic disciplines (the distinction matters — see
"Open Versus Closed: A Cautionary Tale", NSDI'06):

* **Open loop** (:func:`open_loop`) — requests arrive on a fixed schedule
  (``rate`` per second) regardless of how the server is doing.  This is
  what internet traffic looks like, and it is the discipline that
  exposes overload: when offered load exceeds capacity, the excess must
  go *somewhere* — into the admission queue, then into 503s.
* **Closed loop** (:func:`closed_loop`) — ``clients`` concurrent callers
  each issue a request, wait for the response, think for a while, and
  repeat.  Offered load self-limits at capacity; this is the discipline
  that measures best-case sustained throughput.

Both record every completed request's latency into a
:class:`repro.obs.metrics.Histogram` (and into a caller-supplied
:class:`~repro.obs.MetricsRegistry` under
``loadgen_request_seconds{mode}`` when given), classify outcomes as
completed / shed / failed — a shed is a
:class:`~repro.transport.resilience.ServerBusy`, i.e. a 503 — and return
a :class:`LoadResult` whose accounting is exact by construction::

    offered == completed + shed + failed

The schedule is deterministic per seed: arrival offsets, per-client
think-time jitter and any payload selection derive from ``seed`` alone,
so a rerun offers the same requests in the same pattern (their measured
latencies, of course, belong to the machine that ran them).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.transport.resilience import ServerBusy

#: Latency histogram bounds: 10 µs .. ~30 s, log-spaced (finer than the
#: default metrics bounds around the millisecond range load tests live in).
LATENCY_BOUNDS = tuple([10.0 ** (e / 4.0) for e in range(-20, 7)])


@dataclass
class LoadResult:
    """Outcome accounting + latency distribution of one load run."""

    mode: str  #: ``"open"`` or ``"closed"``
    offered: int
    completed: int
    shed: int
    failed: int
    duration_seconds: float
    #: Latency distribution of *completed* requests, seconds.
    latency: Histogram = field(repr=False)

    def __post_init__(self) -> None:
        if self.completed + self.shed + self.failed != self.offered:
            raise ValueError(
                f"accounting violation: offered {self.offered} != completed "
                f"{self.completed} + shed {self.shed} + failed {self.failed}"
            )

    @property
    def goodput(self) -> float:
        """Completed requests per second over the run's wall clock."""
        return self.completed / self.duration_seconds if self.duration_seconds else 0.0

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration_seconds if self.duration_seconds else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def quantile_seconds(self, q: float) -> float | None:
        return self.latency.quantile(q)

    def as_dict(self) -> dict:
        """JSON-ready summary (the figure_load curve-point shape)."""
        q = self.quantile_seconds
        return {
            "mode": self.mode,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "duration_seconds": self.duration_seconds,
            "offered_rate_rps": self.offered_rate,
            "goodput_rps": self.goodput,
            "shed_rate": self.shed_rate,
            "p50_ms": None if q(0.5) is None else q(0.5) * 1e3,
            "p95_ms": None if q(0.95) is None else q(0.95) * 1e3,
            "p99_ms": None if q(0.99) is None else q(0.99) * 1e3,
        }


class _Tally:
    """Thread-safe outcome counters + latency sink shared by the senders."""

    def __init__(self, mode: str, metrics: MetricsRegistry | None) -> None:
        self.mode = mode
        self.latency = Histogram("loadgen_latency_seconds", bounds=LATENCY_BOUNDS)
        self._metrics = metrics
        self._lock = threading.Lock()
        self.completed = 0
        self.shed = 0
        self.failed = 0

    def record(self, outcome: str, seconds: float) -> None:
        with self._lock:
            setattr(self, outcome, getattr(self, outcome) + 1)
        if outcome == "completed":
            self.latency.observe(seconds)
            if self._metrics is not None:
                self._metrics.histogram(
                    "loadgen_request_seconds",
                    bounds=LATENCY_BOUNDS,
                    labels={"mode": self.mode},
                ).observe(seconds)
        if self._metrics is not None:
            self._metrics.counter(
                "loadgen_requests_total", labels={"mode": self.mode, "outcome": outcome}
            ).add()


def arrival_schedule(
    rate: float, total: int, seed: int = 0, jitter: float = 0.0
) -> list[float]:
    """The open-loop arrival offsets (seconds from start), per seed.

    Request ``i`` is due at ``i / rate``, optionally displaced by up to
    ``jitter`` × the inter-arrival gap, drawn from ``seed``.  Pure and
    deterministic — the same arguments always give the same schedule.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    rng = random.Random(seed)
    gap = 1.0 / rate
    schedule = []
    for i in range(total):
        offset = i * gap
        if jitter:
            offset += gap * jitter * (2.0 * rng.random() - 1.0)
        schedule.append(max(0.0, offset))
    return schedule


def _close_quietly(call: Callable[[int], object]) -> None:
    """Release a sender's connection: a ``close`` attribute on the call
    (set by the factory) is invoked when the sender finishes its share."""
    closer = getattr(call, "close", None)
    if closer is not None:
        try:
            closer()
        except Exception:  # noqa: BLE001 - teardown must not mask results
            pass


def _classify_and_record(tally: _Tally, call: Callable[[int], object], index: int) -> None:
    start = time.perf_counter()
    try:
        call(index)
    except ServerBusy:
        tally.record("shed", time.perf_counter() - start)
    except Exception:  # noqa: BLE001 - the generator survives its targets
        tally.record("failed", time.perf_counter() - start)
    else:
        tally.record("completed", time.perf_counter() - start)


def open_loop(
    call_factory: Callable[[], Callable[[int], object]],
    *,
    rate: float,
    total: int,
    seed: int = 0,
    senders: int = 16,
    arrival_jitter: float = 0.0,
    metrics: MetricsRegistry | None = None,
) -> LoadResult:
    """Offer ``total`` requests at ``rate``/s on a deterministic schedule.

    ``call_factory`` is invoked once per sender thread and must return a
    thread-confined callable performing one request (sender threads own
    their connection; nothing is shared).  Request ``i`` is scheduled at
    ``i / rate`` seconds (± ``arrival_jitter`` fraction of the gap, drawn
    from ``seed`` — 0 keeps the schedule strictly periodic); ``senders``
    threads execute the schedule round-robin, so as long as per-request
    latency stays below ``senders / rate`` the offered load is truly
    open — independent of server progress.  A request whose sender is
    still busy at its scheduled time fires immediately (late), it is
    never dropped: every scheduled request is offered and accounted.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if senders < 1:
        raise ValueError("senders must be >= 1")
    senders = min(senders, total)
    schedule = arrival_schedule(rate, total, seed, arrival_jitter)

    tally = _Tally("open", metrics)
    barrier = threading.Barrier(senders + 1)

    def sender(worker: int) -> None:
        call = call_factory()
        barrier.wait()
        try:
            for index in range(worker, total, senders):
                delay = base[0] + schedule[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                _classify_and_record(tally, call, index)
        finally:
            _close_quietly(call)

    threads = [
        threading.Thread(target=sender, args=(w,), name=f"loadgen-open-{w}", daemon=True)
        for w in range(senders)
    ]
    base = [0.0]
    for thread in threads:
        thread.start()
    barrier.wait()  # all senders connected and ready before the clock starts
    base[0] = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - base[0]
    return LoadResult(
        "open", total, tally.completed, tally.shed, tally.failed, duration, tally.latency
    )


def closed_loop(
    call_factory: Callable[[], Callable[[int], object]],
    *,
    clients: int,
    requests_per_client: int,
    think_time: float = 0.0,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
) -> LoadResult:
    """``clients`` concurrent callers, each request→response→think→repeat.

    ``think_time`` is the mean pause between a client's exchanges; the
    actual pause is jittered uniformly in ``[0.5, 1.5] × think_time`` from
    a per-client stream derived from ``seed`` (deterministic schedule,
    clients mutually decorrelated).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if requests_per_client < 1:
        raise ValueError("requests_per_client must be >= 1")
    tally = _Tally("closed", metrics)
    barrier = threading.Barrier(clients + 1)

    def client_loop(worker: int) -> None:
        call = call_factory()
        rng = random.Random((seed << 16) ^ (worker * 0x9E3779B1))
        barrier.wait()
        try:
            for j in range(requests_per_client):
                index = worker * requests_per_client + j
                _classify_and_record(tally, call, index)
                if think_time and j + 1 < requests_per_client:
                    time.sleep(think_time * (0.5 + rng.random()))
        finally:
            _close_quietly(call)

    threads = [
        threading.Thread(
            target=client_loop, args=(w,), name=f"loadgen-closed-{w}", daemon=True
        )
        for w in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start
    total = clients * requests_per_client
    return LoadResult(
        "closed", total, tally.completed, tally.shed, tally.failed, duration, tally.latency
    )
