"""The live pass: closed-loop load against the server child, tracing off.

Load shape (all workloads): one generator process, ``nproc`` client
threads, one persistent ``SoapHttpClient`` connection each, closed loop
(a caller sends its next request only when the reply is in), no think
time.  A slow server therefore receives less load: these numbers say
nothing about queueing.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.core.client import SoapHttpClient
from repro.obs.analyze import quantile_of
from repro.transport.sockets import connect_tcp

from benchmarks.ledger import stats
from benchmarks.ledger.paths import ROOT, child_env
from benchmarks.ledger.workloads import (
    FULL_CHECK_EVERY,
    Workload,
    build_envelope,
    build_pool,
    full_check,
    make_policy,
    pool_digest,
    quick_check,
)

#: Warm-up exchanges per connection before anything is timed: fills codec
#: plans on both sides, spins up the pool workers, and is fully checked.
WARMUP_EXCHANGES = 50
#: The window is cut into this many consecutive segments for the tail.
TAIL_SEGMENTS = 5
#: A percentile is only reported from a sample that keeps this many beyond it.
MIN_BEYOND = 10
#: Set-ups per run; ``setup_s`` is their median, the first one serves the window.
SETUP_REPEATS = 3


class ServerChild:
    """One ``benchmarks.ledger.server`` process and its announced addresses."""

    def __init__(self, *mode_args: str, listeners: int = 1) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.server", *mode_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
            text=True,
        )
        self.addresses: dict[str, tuple[str, int]] = {}
        try:
            for _ in range(listeners):
                parts = self.process.stdout.readline().split()
                if len(parts) != 4 or parts[0] != "ADDR":
                    raise RuntimeError(f"server child failed to start: got {parts!r}")
                self.addresses[parts[1]] = (parts[2], int(parts[3]))
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def connector(self, name: str):
        host, port = self.addresses[name]
        return lambda: connect_tcp(host, port)

    def stop(self) -> None:
        """Terminate the child and wait until it has ended.

        Not the graceful stdin-EOF stop: the threaded core's ``stop()``
        spends its whole 5 s budget joining an accept thread that a closed
        listener does not wake (ROADMAP, exact lifecycle), and a benchmark
        server holds nothing worth draining.  The stdin pipe stays as the
        orphan guard: a child whose parent died sees EOF and exits.
        """
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdin.close()
        self.process.stdout.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class Tally:
    """Exact accounting of one thread's exchanges: attempted = completed + failed."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: ``(completion time ns, latency ns)`` of each completed exchange.
    samples: list[tuple[int, int]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def exchange(call, record, tally: Tally, full: bool) -> None:
    """One generator iteration: build, call, check, account.

    A fault, a non-200, a shed, a transport error and a failed reply check
    all land in ``failed``; a failed exchange has no latency sample, so it
    also misses every latency figure.
    """
    tally.attempted += 1
    start = time.perf_counter_ns()
    request = build_envelope(record)
    try:
        reply = call(request)
        end = time.perf_counter_ns()  # the check below is the generator's cost
        ok = full_check(request, reply) if full else quick_check(request, reply)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed exchange
        tally.fail(f"{type(exc).__name__}: {exc}")
        return
    if not ok:
        tally.fail("reply does not match the request")
        return
    tally.completed += 1
    tally.samples.append((end, end - start))


@dataclass
class LiveSetup:
    """Everything :func:`setup` brings up, ready for the timed window."""

    server: ServerChild
    clients: list[SoapHttpClient]
    pool: list
    digest: str
    warmup: Tally
    seconds: float

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def setup(workload: Workload, seed: int, connections: int) -> LiveSetup:
    """Spawn, build the pool, connect, warm up — the ``setup_s`` interval."""
    started = time.perf_counter()
    server = ServerChild("soap", "--core", workload.core)
    clients: list[SoapHttpClient] = []
    try:
        pool = build_pool(workload, seed)
        connect = server.connector("soap")
        clients = [
            SoapHttpClient(connect, encoding=make_policy(workload))
            for _ in range(connections)
        ]
        warmup = Tally()
        for index, client in enumerate(clients):
            for k in range(WARMUP_EXCHANGES):
                record = pool[(index + k) % len(pool)]
                exchange(client.call, record, warmup, full=True)
        if warmup.failed:
            raise RuntimeError(f"warm-up failed on {workload.name}: {warmup.errors}")
    except BaseException:
        for client in clients:
            client.close()
        server.stop()
        raise
    return LiveSetup(
        server, clients, pool, pool_digest(pool), warmup, time.perf_counter() - started
    )


def run_window(live: LiveSetup, seconds: float) -> tuple[list[Tally], int, int]:
    """``seconds`` of closed-loop load on every connection.

    Returns one tally per connection and the window's start and end (ns).
    """
    pool = live.pool
    barrier = threading.Barrier(len(live.clients) + 1)
    tallies = [Tally() for _ in live.clients]
    window: dict[str, int] = {}

    def loop(index: int) -> None:
        call = live.clients[index].call
        tally = tallies[index]
        # each connection walks the pool from its own offset
        position = index * len(pool) // len(live.clients)
        barrier.wait()
        deadline = window["start"] + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            full = tally.attempted % FULL_CHECK_EVERY == 0
            exchange(call, pool[position % len(pool)], tally, full)
            position += 1

    threads = [
        threading.Thread(target=loop, args=(i,), name=f"ledger-client-{i}")
        for i in range(len(live.clients))
    ]
    for thread in threads:
        thread.start()
    window["start"] = time.perf_counter_ns()
    barrier.wait()
    for thread in threads:
        thread.join()
    return tallies, window["start"], time.perf_counter_ns()


def tail_ms(samples: list[tuple[int, int]], start_ns: int, seconds: float, q: float):
    """Median over consecutive segments of each segment's ``q`` quantile.

    Five segments when each keeps :data:`MIN_BEYOND` samples beyond the
    quantile, else three, else the whole window; returns ``(ms, segments,
    enough)`` where ``enough`` is False when even the whole window is short.
    """
    need = MIN_BEYOND / (1.0 - q)
    for segments in (TAIL_SEGMENTS, 3, 1):
        width = seconds * 1e9 / segments
        buckets: list[list[int]] = [[] for _ in range(segments)]
        for end, latency in samples:
            k = int((end - start_ns) / width)
            if 0 <= k < segments:
                buckets[k].append(latency)
        if segments == 1 or min(len(b) for b in buckets) >= need:
            break
    tails = [quantile_of(b, q) for b in buckets if b]
    enough = min(len(b) for b in buckets) >= need
    return statistics.median(tails) / 1e6, segments, enough


def live_pass(
    workload: Workload, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS
) -> dict:
    """Set up, run the timed window untraced, and reduce to the metrics."""
    connections = stats.nproc()
    spin_before = stats.spin_us()
    live = setup(workload, seed, connections)
    try:
        server_cpu_0 = stats.server_cpu_seconds(live.server.pid)
        client_cpu_0 = time.process_time()
        tallies, start_ns, end_ns = run_window(live, seconds)
        client_cpu = time.process_time() - client_cpu_0
        server_cpu = stats.server_cpu_seconds(live.server.pid) - server_cpu_0
        peak_rss = stats.server_peak_rss_mb(live.server.pid)
    finally:
        live.close()
    # the other set-ups come after the window, so the median samples the
    # machine at moments half a minute apart instead of one slow second
    setup_times = [live.seconds]
    for _ in range(setup_repeats - 1):
        again = setup(workload, seed, connections)
        again.close()
        setup_times.append(again.seconds)
    setup_s = statistics.median(setup_times)
    spin_after = stats.spin_us()

    attempted = sum(t.attempted for t in tallies)
    completed = sum(t.completed for t in tallies)
    failed = sum(t.failed for t in tallies)
    if attempted != completed + failed:
        raise AssertionError(
            f"accounting violation on {workload.name}: attempted {attempted} "
            f"!= completed {completed} + failed {failed}"
        )
    samples = [s for t in tallies for s in t.samples]
    if not samples:
        raise RuntimeError(f"no exchange completed on {workload.name}: {tallies[0].errors}")

    # exchanges/s: median over whole 1 s sub-windows of completions
    whole = max(1, int(seconds))
    per_second = [0] * whole
    for end, _latency in samples:
        k = (end - start_ns) // 1_000_000_000
        if 0 <= k < whole:
            per_second[k] += 1
    rate = statistics.median(per_second) / min(1.0, seconds)

    latencies = [latency for _end, latency in samples]
    p99, p99_segments, p99_enough = tail_ms(samples, start_ns, seconds, 0.99)
    extras = {}
    if len(latencies) * 0.001 >= MIN_BEYOND:
        extras["ledger.latency_p999_ms"] = {
            "value": quantile_of(latencies, 0.999) / 1e6, "unit": "ms"
        }

    metrics = {
        "exchanges_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) / 1e6, "unit": "ms"},
        "latency_p99_ms": {"value": p99, "unit": "ms"},
        "server_cpu_ms_per_exchange": {"value": server_cpu * 1e3 / completed, "unit": "ms"},
        "client_cpu_ms_per_exchange": {"value": client_cpu * 1e3 / completed, "unit": "ms"},
        "server_peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return {
        "workload": workload.name,
        "pass": "live",
        "metrics": metrics,
        "extras": extras,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": [e for t in tallies for e in t.errors][:5],
        "latency_samples": len(latencies),
        "p99_segments": p99_segments,
        "p99_enough_samples": p99_enough,
        "connections": connections,
        "warmup_exchanges": live.warmup.completed,
        "pool_digest": live.digest,
        "setup_times_s": setup_times,
        "window_wall_s": (end_ns - start_ns) / 1e9,
        "drift": stats.drift(spin_before, spin_after),
    }
