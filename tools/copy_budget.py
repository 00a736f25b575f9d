#!/usr/bin/env python
"""The bulk path's copy budget, as an instrument.

::

    python tools/copy_budget.py [--core aio|threaded]

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
* **pinned** — after a ``GET /healthz`` barrier on the same connection,
  every ``gc``-tracked object and every thread's frames are walked for
  buffers of at least half a payload.  Between exchanges there should be
  none: an idle worker or a parked connection that keeps its last
  request alive makes the *next* exchange's peak one payload higher.

A third reading depends on the allocator, and means what it says only in
a fresh process (run this file; do not import it) under glibc:

* **minor faults** — page faults per measured exchange.  A server that
  pins nothing frees a heap top glibc would trim after every exchange and
  fault back in for the next (~570 per 1.2 MB echo on the selector
  driver); the drivers' ``prime_allocator`` step at start keeps it at 0.

The budget (DESIGN.md §10, "Copy budget") is ``PEAK_BUDGET`` payloads at
peak, nothing pinned and ``FAULT_BUDGET`` faults per exchange;
``tests/test_copy_budget.py`` holds both drivers to the first two
in-process and runs this file for the third.  Exit status 1 when any is
exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import socket
import sys
import threading
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402 - after the path bootstrap

from repro.bxsa.session import CodecSession  # noqa: E402
from repro.core.envelope import SoapEnvelope  # noqa: E402
from repro.core.policies import BXSAEncoding  # noqa: E402
from repro.serve import ServeConfig, SoapServeService  # noqa: E402
from repro.services.echo import echo_dispatcher  # noqa: E402
from repro.transport.http.messages import HEADER_END, HttpRequest  # noqa: E402
from repro.transport.sockets import TcpListener  # noqa: E402
from repro.workloads.lead import lead_dataset  # noqa: E402
from repro.xdm import element  # noqa: E402

CORES = ("aio", "threaded")
WORKERS = 2
#: ``lead_dataset`` model size of the Echo: a 1.2 MB body, the ledger's bulk
#: workload.  Fixed: the budgets below were validated against it.
FLOATS = 100_000
#: Payloads of traced memory one warm bulk exchange may hold at its peak.
PEAK_BUDGET = 3.5
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


def _warm_sessions() -> int:
    """Codec sessions in this process that have replayed a plan both ways."""
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, CodecSession)
        and obj.stats.plan_hits > 0
        and obj.stats.decode_plan_hits > 0
    )


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
                while _warm_sessions() < WORKERS:
                    if warmups == MAX_WARMUP:
                        raise RuntimeError(
                            f"{WORKERS} workers not warm after {MAX_WARMUP} exchanges"
                        )
                    settled_exchange()
                    warmups += 1
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
        "peak_payloads": [round(p, 2) for p in peaks],
        "minor_faults": faults,
        "pinned": pinned,
    }


def within_budget(result: dict) -> bool:
    return (
        max(result["peak_payloads"]) <= PEAK_BUDGET
        and not result["pinned"]
        and max(result["minor_faults"]) <= FAULT_BUDGET
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--core", choices=CORES, help="one driver (default: both)")
    args = parser.parse_args(argv)
    ok = True
    for core in [args.core] if args.core else CORES:
        result = measure(core)
        ok = ok and within_budget(result)
        print(
            f"{core}: payload {result['payload_bytes']} B, peak "
            f"{max(result['peak_payloads']):.2f} payloads "
            f"(per exchange {result['peak_payloads']}, budget {PEAK_BUDGET}), "
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
