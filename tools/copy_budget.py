#!/usr/bin/env python
"""The bulk path's copy budget, as an instrument.

::

    python tools/copy_budget.py [--core aio|threaded]
    python tools/copy_budget.py --matrix [--parent CHECKOUT] [--repeats N]
    python tools/copy_budget.py --cell CORE:MODEL_SIZE:CONNECTIONS[:READ_CAP]

How many copies of a payload does the serving path hold while it answers
one bulk ``Echo``, and what does it still hold once the exchange is over?
Both are counted, not timed, so the answer is the same on every machine:

* **peak** — an in-process ``SoapServeService(workers=2)`` serves one
  serial client over real loopback TCP.  The client allocates nothing
  (its request bytes are built before ``tracemalloc`` starts, its
  receive buffer is preallocated), so the ``tracemalloc`` peak of an
  exchange is the server's, reported in *payloads* (traced bytes above
  the idle server's floor / body bytes).  Exchanges are counted only
  once every worker's codec session is warm (a cold one compiles and
  self-verifies its plans, which is not the steady state), and each
  starts against a quiescent server: the client shares this process's
  GIL with the workers, so without the wait it can race a worker that
  has answered but not yet let go.
* **cold peak** — the same reading for each worker's first bulk exchange,
  the one that compiles its codec plans and checks the encode plan
  against the stateless encoder: it sets the process's high-water mark
  if it holds more than a warm one.
* **pinned** — after a ``GET /healthz`` barrier on the same connection,
  every ``gc``-tracked object and every thread's frames are walked for
  buffers of at least half a payload.  Between exchanges there should be
  none: an idle worker or a parked connection that keeps its last
  request alive makes the *next* exchange's peak one payload higher.

One more reading depends on the allocator, and means what it says only in
a fresh process (run this file; do not import it) under glibc:

* **minor faults** — page faults per measured exchange.  A server that
  pins nothing frees a heap top glibc would trim after every exchange and
  fault back in for the next (~570 per 1.2 MB echo on the selector
  driver); the drivers' ``prime_allocator`` step at start keeps it at 0.

``--matrix`` asks what the allocator makes of that budget away from the one
cell it was cut for: body size x connections x driver (``MATRIX_*``), the
server in a fresh interpreter per cell and the clients in another, because
allocator state and ``VmHWM`` are per process (Linux only: it reads
``/proc/self/status``).  Per cell, the median and range of ``--repeats``
runs of:

* **RSS above floor** — the server's ``VmHWM`` after the load, above its
  ``VmRSS`` idle before the first connection, in payloads.  Unlike the
  ``tracemalloc`` peak this is what the kernel was asked for: every
  arena's high-water mark, fragmentation and the cold plan compiles
  included.  Reported for the client process too.
* **faults** — minor faults per exchange over the timed window, in the
  server and in the client process (which does nothing but
  ``connect_tcp`` and ``SoapHttpClient.call``).
* **us per exchange** — the window's wall time over the exchanges all
  connections completed in it (closed loop, one thread per connection),
  and the server's share of it as CPU time (a fault the kernel serves is
  in it).  Both processes are pinned to one CPU, which is what makes
  either repeat, so the wall time is the two processes' CPU time.

``--parent CHECKOUT`` measures another checkout's ``src`` with this same
file, alternating with this one cell by cell, and marks each cell's RSS and
time ``lower``/``HIGHER`` when the two sides' ranges do not overlap.
``--cell`` runs one cell once and prints its JSON — next to the server's
idle floor (``server_floor_mb``) its absolute high-water marks, reached in
start-up (``server_start_peak_mb``) and under the load (``server_peak_mb``);
a fourth field caps sized reads (``repro.transport.base.MAX_READ_BYTES``)
in the server, which is how that constant's comment is re-checked.

The budget (DESIGN.md §10, "Copy budget") is ``PEAK_BUDGET`` payloads at
peak, ``COLD_BUDGET`` at a cold peak, nothing pinned and ``FAULT_BUDGET``
faults per exchange; ``tests/test_copy_budget.py`` holds both drivers to
the first three in-process and runs this file for the fourth.  Exit
status 1 when any is exceeded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc

#: ``--src DIR`` (the matrix's children measuring another checkout with this
#: file) wins over this checkout's own tree.
SRC = (
    sys.argv[sys.argv.index("--src") + 1]
    if "--src" in sys.argv[1:-1]
    else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402 - after the path bootstrap

import repro.transport.base as transport_base  # noqa: E402
from repro.bxsa.session import CodecSession  # noqa: E402
from repro.core.client import SoapHttpClient  # noqa: E402
from repro.core.envelope import SoapEnvelope  # noqa: E402
from repro.core.policies import BXSAEncoding  # noqa: E402
from repro.serve import ServeConfig, SoapServeService  # noqa: E402
from repro.services.echo import echo_dispatcher  # noqa: E402
from repro.transport.http.messages import HEADER_END, HttpRequest  # noqa: E402
from repro.transport.sockets import TcpListener, connect_tcp  # noqa: E402
from repro.workloads.lead import lead_dataset  # noqa: E402
from repro.xdm import element  # noqa: E402

CORES = ("aio", "threaded")
WORKERS = 2
#: ``lead_dataset`` model size of the Echo: a 1.2 MB body, the ledger's bulk
#: workload.  Fixed: the budgets below were validated against it.
FLOATS = 100_000
#: Payloads of traced memory one warm bulk exchange may hold at its peak:
#: the request where it landed, plus heads and the codec's small pieces
#: (measured 1.24 on the selector driver, 1.05 on the threaded one).
PEAK_BUDGET = 1.5
#: The same for each worker's first bulk exchange, which compiles and
#: checks its codec plans: measured 1.21 (selector) and 1.03 (threaded);
#: 3.1 and 3.0 when the encode-plan check joined both encodings.
COLD_BUDGET = 1.5
#: Minor page faults one warm bulk exchange may cost (a trimmed heap: ~570).
FAULT_BUDGET = 50
#: Warm exchanges measured per run.
MEASURED = 4
#: Ceiling on the exchanges spent warming every worker's session.
MAX_WARMUP = 64


def build_request() -> tuple[bytes, int]:
    """``(request wire bytes, body length)`` of one ``lead_dataset`` Echo."""
    envelope = SoapEnvelope.wrap(element("Echo", lead_dataset(FLOATS, seed=7).to_bxdm()))
    policy = BXSAEncoding(session=False)
    request = HttpRequest("POST", "/soap", body=policy.encode(envelope.to_document()))
    request.headers.set("Host", "copy-budget")
    request.headers.set("Content-Type", policy.content_type)
    return request.to_bytes(), len(request.body)


def exchange(sock: socket.socket, wire: bytes, into: memoryview) -> int:
    """Send ``wire``, receive one ``Content-Length`` response into ``into``.

    Returns the response's total length.  Allocates a few hundred bytes
    (the head is sliced out to read its length), never a payload.
    """
    sock.sendall(wire)
    got = 0
    total = None
    while total is None or got < total:
        n = sock.recv_into(into[got:])
        if n == 0:
            raise ConnectionError(f"server closed after {got} response bytes")
        got += n
        if total is None:
            end = into.obj.find(HEADER_END, 0, got)
            if end < 0:
                continue
            head = bytes(into[:end]).lower()
            if not head.startswith(b"http/1.1 200"):
                raise RuntimeError(f"exchange failed: {head[:60]!r}")
            length = head.split(b"content-length:", 1)[1].split(b"\r\n", 1)[0]
            total = end + len(HEADER_END) + int(length)
    return total


def _nbytes(obj) -> int:
    """Payload bytes ``obj`` itself keeps alive (0 when it is no buffer)."""
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, np.ndarray) and obj.flags.owndata:
        return obj.nbytes
    return 0


def pinned_buffers(threshold: int) -> list[dict]:
    """Who holds a buffer of ``threshold`` bytes or more, right now.

    One entry per distinct buffer allocated since ``tracemalloc`` started
    (older ones — the client's, another test module's constants — are not
    the server's): its type, its size, where it was allocated, and its
    holders — the ``gc``-tracked objects that reference it directly, and
    the thread frames with a local that is the buffer or references it
    directly.
    """
    found: dict[int, dict] = {}

    def note(buf, holder: str) -> None:
        # a view is as heavy as what it keeps alive, however short it is
        if isinstance(buf, memoryview):
            note(buf.obj, f"{holder} via memoryview")
        elif isinstance(buf, np.ndarray) and buf.base is not None:
            note(buf.base, f"{holder} via ndarray")
        if _nbytes(buf) < threshold:
            return
        allocated = tracemalloc.get_object_traceback(buf)
        if allocated is None:
            return
        entry = found.setdefault(
            id(buf),
            {
                "type": type(buf).__name__,
                "bytes": _nbytes(buf),
                "allocated_at": str(allocated[0]),
                "held_by": [],
            },
        )
        if holder not in entry["held_by"]:
            entry["held_by"].append(holder)

    # no gc.collect() first: cyclic garbage waiting for a full collection
    # is memory held, and a server at steady state rarely runs one
    for obj in gc.get_objects():
        for referent in gc.get_referents(obj):
            note(referent, type(obj).__name__)
    names = {t.ident: t.name for t in threading.enumerate()}
    me = threading.get_ident()
    for ident, frame in sys._current_frames().items():
        if ident == me:
            continue
        while frame is not None:
            where = f"{names.get(ident, ident)}:{frame.f_code.co_name}"
            for name, value in frame.f_locals.items():
                note(value, f"{where}:{name}")
                for referent in gc.get_referents(value):
                    note(referent, f"{where}:{name}.{type(value).__name__}")
            frame = frame.f_back
    return sorted(found.values(), key=lambda e: -e["bytes"])


def _sessions(counts) -> int:
    """Codec sessions in this process whose ``stats`` satisfy ``counts``."""
    return sum(1 for obj in gc.get_objects() if isinstance(obj, CodecSession) and counts(obj.stats))


def _warm(stats) -> bool:
    """Replayed a plan both ways."""
    return stats.plan_hits > 0 and stats.decode_plan_hits > 0


def _compiled(stats) -> bool:
    """Compiled an encode plan: a worker's first bulk exchange does."""
    return stats.plans_compiled > 0


def measure(core: str) -> dict:
    """Run the instrument against ``core``; see the module docstring."""
    wire, payload = build_request()
    receive = memoryview(bytearray(2 * len(wire)))
    gc.collect()  # an earlier run's garbage is not this run's to report
    tracemalloc.start()
    try:
        listener = TcpListener("127.0.0.1", 0)
        service = SoapServeService(
            listener,
            echo_dispatcher(),
            config=ServeConfig(workers=WORKERS, queue_depth=4, core=core),
            name=f"copy-budget-{core}",
        ).start()
        try:
            floor = tracemalloc.get_traced_memory()[0]
            sock = socket.create_connection(listener.address, timeout=10)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

                def settled_exchange() -> None:
                    exchange(sock, wire, receive)
                    # a worker lets go of its task before it reports idle
                    while service.pool.busy_workers:
                        time.sleep(0.0005)

                warmups = 0
                cold, compiled = [], 0
                while _sessions(_warm) < WORKERS:
                    if warmups == MAX_WARMUP:
                        raise RuntimeError(
                            f"{WORKERS} workers not warm after {MAX_WARMUP} exchanges"
                        )
                    tracemalloc.reset_peak()
                    settled_exchange()
                    peak = (tracemalloc.get_traced_memory()[1] - floor) / payload
                    warmups += 1
                    before, compiled = compiled, _sessions(_compiled)
                    if compiled > before:
                        cold.append(peak)
                peaks, faults = [], []
                for _ in range(MEASURED):
                    tracemalloc.reset_peak()
                    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    settled_exchange()
                    faults.append(
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
                    )
                    peaks.append((tracemalloc.get_traced_memory()[1] - floor) / payload)
                exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: copy-budget\r\n\r\n", receive)
                # the barrier orders this walk after the connection's own
                # bookkeeping; a worker may still be between handing its
                # result over and dropping it, so give that a moment
                deadline = time.monotonic() + 0.5
                while True:
                    pinned = pinned_buffers(payload // 2)
                    if not pinned or time.monotonic() >= deadline:
                        break
                    time.sleep(0.01)
            finally:
                sock.close()
        finally:
            service.stop()
    finally:
        tracemalloc.stop()
    return {
        "core": core,
        "payload_bytes": payload,
        "warmup_exchanges": warmups,
        "cold_peak_payloads": [round(p, 2) for p in cold],
        "peak_payloads": [round(p, 2) for p in peaks],
        "minor_faults": faults,
        "pinned": pinned,
    }


def within_budget(result: dict) -> bool:
    return (
        max(result["peak_payloads"]) <= PEAK_BUDGET
        and max(result["cold_peak_payloads"]) <= COLD_BUDGET
        and not result["pinned"]
        and max(result["minor_faults"]) <= FAULT_BUDGET
    )


# ---------------------------------------------------------------------------
# --matrix: the same question per body size x connections x driver, asked of
# the kernel (VmHWM, minor faults) in a fresh interpreter per process

#: ``lead_dataset`` model sizes: 64 KiB, 1.2 MB (the ledger's) and 8.4 MB bodies.
MATRIX_MODEL_SIZES = (5_461, FLOATS, 700_000)
MATRIX_CONNECTIONS = (1, 2, 8, 32)
#: Warm-up exchanges of a cell, spread over its connections (at least 2
#: each): enough for both workers' sessions to have compiled and replayed.
CELL_WARMUP = 16
#: Timed window of one cell, seconds.
CELL_SECONDS = 3.0
#: Budget of the tier-1 RSS pin, in payloads of server ``VmHWM`` above the
#: idle floor after warm 1.2 MB echoes on two concurrent connections: an
#: arena per thread read 8.5-9.5, one arena 4.2-4.7, a landed body with
#: gathered replies 3.1-4.0, and a cold exchange that holds what a warm one
#: does 2.1-2.3 in the 0.3 s window tier-1 runs (two bodies in flight and
#: their heads), 2.4-2.6 over 3 s.  Since ``prime_allocator`` trims what
#: start-up freed, the floor (read after ``start()``) sits ~0.7 MiB lower
#: and the first exchanges fault those pages back in: 2.48-2.55 (aio) and
#: 2.55-2.65 (threaded) at 0.3 s, while the absolute peak
#: (``server_peak_mb``) fell ~0.3 MiB.
RSS_BUDGET = 3.0


def _process_stats() -> dict:
    """This process's minor faults and CPU seconds so far, ``VmRSS`` and
    ``VmHWM`` (KiB)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats = {"minflt": usage.ru_minflt, "cpu_s": usage.ru_utime + usage.ru_stime}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(("VmRSS:", "VmHWM:")):
                stats[line[2:5].lower() + "_kb"] = int(line.split()[1])
    return stats


def _say(**fields) -> None:
    print(json.dumps(fields), flush=True)


def serve_cell(core: str, connections: int, read_cap: int | None) -> None:
    """The server process of one cell: serve until stdin closes, answering
    every line read from it with :func:`_process_stats`."""
    listener = TcpListener("127.0.0.1", 0, backlog=max(16, connections))
    service = SoapServeService(
        listener,
        echo_dispatcher(),
        # every connection may wait for a worker: a cell measures memory
        # under its connection count, not the shed path
        config=ServeConfig(workers=WORKERS, queue_depth=max(4, connections), core=core),
        name=f"cell-{core}",
    ).start()
    try:
        if read_cap is not None:
            # after start(): the allocator's thresholds keep the ceiling
            # they were set for, only the sized reads shrink
            transport_base.MAX_READ_BYTES = read_cap
        _say(port=listener.port, **_process_stats())
        for _line in sys.stdin:
            _say(**_process_stats())
    finally:
        service.stop()


def load_cell(port: int, model_size: int, connections: int, seconds: float) -> None:
    """The client process of one cell: nothing but ``connect_tcp`` and
    ``SoapHttpClient.call``, one closed-loop thread per connection.

    Warms up, says so, waits for a line on stdin, runs the timed window on
    every connection at once, reports it."""
    floor = _process_stats()
    requests = [
        SoapEnvelope.wrap(element("Echo", lead_dataset(model_size, seed=k).to_bxdm()))
        for k in range(4)
    ]
    payload = len(BXSAEncoding(session=False).encode(requests[0].to_document()))
    clients = [
        SoapHttpClient(lambda: connect_tcp("127.0.0.1", port), encoding=BXSAEncoding())
        for _ in range(connections)
    ]
    done = [0] * connections
    failed = [0] * connections

    def call(index: int, k: int) -> None:
        try:
            reply = clients[index].call(requests[(index + k) % len(requests)])
            ok = reply.body_root.name.local == "EchoResponse"
        except Exception:  # noqa: BLE001 - any failure is a failed exchange
            ok = False
        if not ok:
            failed[index] += 1

    def loop(index: int) -> None:
        while time.perf_counter() < started + seconds:
            call(index, done[index])
            done[index] += 1

    try:
        # one connection after the other, as the ledger's generator warms
        # up: cold plan compiles do not overlap, the window is steady state
        for index in range(connections):
            for k in range(max(2, CELL_WARMUP // connections)):
                call(index, k)
        _say(warm=True)
        sys.stdin.readline()
        before = _process_stats()
        started = time.perf_counter()
        # connection 0 stays on the main thread, as in a process that never
        # starts one: the main arena is the one glibc trims with ``brk``
        threads = [
            threading.Thread(target=loop, args=(index,), daemon=True)
            for index in range(1, connections)
        ]
        for thread in threads:
            thread.start()
        loop(0)
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        after = _process_stats()
    finally:
        for client in clients:
            client.close()
    _say(
        payload_bytes=payload,
        exchanges=sum(done),
        failed=sum(failed),
        seconds=elapsed,
        faults=after["minflt"] - before["minflt"],
        rss_above_floor_kb=after["hwm_kb"] - floor["rss_kb"],
    )


def _child(src: str, *role: object) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--role", *map(str, role), "--src", src],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def _ask(child: subprocess.Popen, line: str | None = None) -> dict:
    if line is not None:
        child.stdin.write(line + "\n")
        child.stdin.flush()
    answer = child.stdout.readline()
    if not answer:
        raise RuntimeError(f"cell child exited with status {child.wait()}")
    return json.loads(answer)


def _finish(child: subprocess.Popen) -> None:
    """End a cell child — closing its stdin is its stop signal — and reap it."""
    try:
        child.stdin.close()
        child.wait(timeout=30)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    finally:
        child.stdout.close()


def run_cell(
    core: str,
    model_size: int,
    connections: int,
    read_cap: int | None = None,
    src: str = SRC,
    seconds: float = CELL_SECONDS,
) -> dict:
    """One cell, once: a server process, a client process, four readings."""
    server = _child(src, "serve", core, connections, read_cap or 0)
    try:
        idle = _ask(server)
        client = _child(src, "load", idle["port"], model_size, connections, seconds)
        try:
            _ask(client)  # warm
            warm = _ask(server, "stat")
            load = _ask(client, "go")
            peak = _ask(server, "stat")
        finally:
            _finish(client)
    finally:
        _finish(server)
    exchanges = max(1, load["exchanges"])
    payload = load["payload_bytes"]
    return {
        "core": core,
        "payload_bytes": payload,
        "connections": connections,
        "read_cap": read_cap,
        "exchanges": load["exchanges"],
        "failed": load["failed"],
        "server_floor_mb": round(idle["rss_kb"] / 1024, 2),
        "server_start_peak_mb": round(idle["hwm_kb"] / 1024, 2),
        "server_peak_mb": round(peak["hwm_kb"] / 1024, 2),
        "server_rss_payloads": round((peak["hwm_kb"] - idle["rss_kb"]) * 1024 / payload, 2),
        "client_rss_payloads": round(load["rss_above_floor_kb"] * 1024 / payload, 2),
        "server_faults": round((peak["minflt"] - warm["minflt"]) / exchanges, 1),
        "client_faults": round(load["faults"] / exchanges, 1),
        "us_per_exchange": round(load["seconds"] * 1e6 / exchanges, 1),
        "server_cpu_us": round((peak["cpu_s"] - warm["cpu_s"]) * 1e6 / exchanges, 1),
    }


#: The matrix's columns: ``(heading, cell key, judged against the parent)``.
MATRIX_COLUMNS = (
    ("server RSS above floor, payloads", "server_rss_payloads", True),
    ("client RSS above floor, payloads", "client_rss_payloads", False),
    ("server faults/exchange", "server_faults", False),
    ("client faults/exchange", "client_faults", False),
    ("us/exchange", "us_per_exchange", True),
    ("server CPU us/exchange", "server_cpu_us", True),
)


def _spread(runs: list[dict], key: str) -> tuple[float, float, float]:
    values = [run[key] for run in runs]
    return statistics.median(values), min(values), max(values)


def _verdict(parent: tuple, change: tuple) -> str:
    """``lower``/``HIGHER`` when the sides' ranges do not overlap."""
    if change[1] > parent[2]:
        return " HIGHER"
    if change[2] < parent[1]:
        return " lower"
    return ""


def parse_cell(spec: str) -> tuple:
    """``CORE:MODEL_SIZE:CONNECTIONS[:READ_CAP]`` as :func:`run_cell` arguments."""
    core, *numbers = spec.split(":")
    if core not in CORES or len(numbers) not in (2, 3):
        raise argparse.ArgumentTypeError(f"not CORE:MODEL_SIZE:CONNECTIONS[:READ_CAP]: {spec!r}")
    return (core, *map(int, numbers))


def matrix(cells: list[tuple], parent: str | None, repeats: int, seconds: float) -> bool:
    """Print the table, one row per cell; false when a cell reads HIGHER."""
    sides = ([("parent", os.path.join(parent, "src"))] if parent else []) + [("change", SRC)]
    print("| driver | body | connections | " + " | ".join(c[0] for c in MATRIX_COLUMNS) + " |")
    print("|---|---|---|" + "---|" * len(MATRIX_COLUMNS))
    ok = True
    for cell in cells:
        runs: dict[str, list[dict]] = {label: [] for label, _ in sides}
        for repeat in range(repeats):
            # alternate which side goes first
            for label, src in sides if repeat % 2 == 0 else sides[::-1]:
                runs[label].append(run_cell(*cell, src=src, seconds=seconds))
        columns = []
        for _heading, key, judged in MATRIX_COLUMNS:
            spreads = [_spread(runs[label], key) for label, _ in sides]
            text = " → ".join(f"{m:g} [{lo:g}–{hi:g}]" for m, lo, hi in spreads)
            if judged and len(spreads) == 2:
                verdict = _verdict(*spreads)
                ok = ok and verdict != " HIGHER"
                text += verdict
            columns.append(text)
        failed = sum(run["failed"] for label, _ in sides for run in runs[label])
        one = runs["change"][0]
        body = one["payload_bytes"]
        print(
            f"| {one['core']} | " + (f"{body / 1e6:.2f} MB" if body >= 10_000 else f"{body} B")
            + (f", reads ≤ {one['read_cap'] >> 10} KiB" if one["read_cap"] else "")
            + f" | {one['connections']} | "
            + " | ".join(columns)
            + " |"
            + (f" {failed} failed" if failed else ""),
            flush=True,
        )
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--core", choices=CORES, help="one driver (default: both)")
    parser.add_argument("--matrix", action="store_true", help="body size x connections x driver")
    parser.add_argument(
        "--cell",
        type=parse_cell,
        action="append",
        metavar="CORE:MODEL_SIZE:CONNECTIONS[:READ_CAP]",
        help="one cell, once, as JSON; with --matrix, the rows to print (repeatable)",
    )
    parser.add_argument("--parent", metavar="CHECKOUT", help="--matrix: measure this checkout too")
    parser.add_argument("--repeats", type=int, default=3, help="--matrix: runs per cell and side")
    parser.add_argument("--seconds", type=float, default=CELL_SECONDS, help="a cell's timed window")
    parser.add_argument("--src", help="import repro from this directory")
    parser.add_argument("--role", nargs="+", help=argparse.SUPPRESS)  # a cell's child process
    args = parser.parse_args(argv)
    if args.role:
        if hasattr(os, "sched_setaffinity"):
            # both processes of a cell on one CPU: a closed loop against a
            # GIL-bound server is serial work, and on a VM waking an idle
            # vCPU costs more than the exchange (the same 64 KiB cell read
            # 1.2-4.5 ms per exchange run to run unpinned, 0.9-1.1 pinned)
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        role, *rest = args.role
        if role == "serve":
            core, connections, read_cap = rest
            serve_cell(core, int(connections), int(read_cap) or None)
        else:
            port, model_size, connections, seconds = rest
            load_cell(int(port), int(model_size), int(connections), float(seconds))
        return 0
    if args.matrix:
        cells = args.cell or [
            (core, model_size, connections)
            for core in CORES
            for model_size in MATRIX_MODEL_SIZES
            for connections in MATRIX_CONNECTIONS
        ]
        return 0 if matrix(cells, args.parent, args.repeats, args.seconds) else 1
    if args.cell:
        for cell in args.cell:
            _say(**run_cell(*cell, seconds=args.seconds))
        return 0
    ok = True
    for core in [args.core] if args.core else CORES:
        result = measure(core)
        ok = ok and within_budget(result)
        print(
            f"{core}: payload {result['payload_bytes']} B, peak "
            f"{max(result['peak_payloads']):.2f} payloads "
            f"(per exchange {result['peak_payloads']}, budget {PEAK_BUDGET}), "
            f"cold peak {result['cold_peak_payloads']} (budget {COLD_BUDGET}), "
            f"{len(result['pinned'])} buffer(s) >= half a payload held after the barrier, "
            f"minor faults per exchange {result['minor_faults']} (budget {FAULT_BUDGET})"
        )
        for entry in result["pinned"]:
            print(
                f"  {entry['type']} {entry['bytes']} B from {entry['allocated_at']} "
                f"held by {', '.join(entry['held_by'])}"
            )
    print("copy budget: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
