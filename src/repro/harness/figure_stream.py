"""Figure S: the streaming large-message pipeline vs buffer-and-send.

The paper's evaluation stops at messages that fit comfortably in memory;
its §7 outlook — and the follow-on literature on very large SOAP
messages (Kohring; Lo Iacono's non-blocking signatures) — asks what
happens when they do not.  This experiment measures the full pipeline
this repo grew for that case: a producer emitting one huge typed array
through :class:`~repro.bxsa.BXSAStreamWriter` (streamed container
profile, sink-driven), HTTP/1.1 chunked transfer through the threaded
server and client, optional per-chunk HMAC signing
(:func:`~repro.core.security.sign_stream`), and incremental consumption
through :class:`~repro.bxsa.StreamDecoder`'s zero-copy array-chunk
events — against the classic buffered path that materializes the array,
encodes it, and ships one ``Content-Length`` body.

Two numbers per (size, mode) point, both taken through a *real* HTTP
exchange over loopback TCP with client and server in one process:

* **TTFB** — wall time from issuing the request to the first response
  body byte.  Buffered must finish producing before byte one; streamed
  answers as soon as the first chunk exists, so its TTFB is
  size-independent.
* **peak** — peak Python-heap allocation of the whole exchange
  (:func:`~repro.harness.measure.traced_peak_bytes`; tracemalloc sees
  both sides since they share the process, and NumPy >= 1.22 reports
  array buffers).  Buffered grows linearly with the payload; streamed
  stays bounded by a few transfer chunks regardless of message size.

Expected shapes, encoded as checks below:

* every transfer is verified: the decoded array's checksum matches the
  arithmetic expectation, in every mode, at every size;
* streamed peak allocation stays <= 4x the transfer chunk size at every
  size — signed or not — while buffered peak exceeds the payload itself;
* at the largest common size, buffered TTFB is >= 5x streamed TTFB;
* signing costs bounded throughput, not memory: the signed stream holds
  the same peak bound and, at the largest size, takes <= 6x the unsigned
  streamed total.

Each bound is a constant below, written nowhere else: the bench and
``tools/smoke.py stream`` run this sweep at their own sizes.

Determinism: the payload is ``arange(n)`` as 32-bit ints, so the
expected checksum is ``n*(n-1)/2`` — computable without ever holding
the array.  Sizes are powers of two in MiB; the buffered path is capped
(default 64 MiB) so the figure's full sweep can include a 256 MiB
streamed-only point without a multi-hundred-MiB buffered run.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import time

import numpy as np

from repro.bxsa import BXSAStreamWriter, EventKind, StreamDecoder
from repro.core.security import SecretKey, sign_stream, verify_stream
from repro.harness.measure import traced_peak_bytes
from repro.harness.report import ExperimentResult, ShapeCheck
from repro.transport.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.transport.sockets import TcpListener, connect_tcp

MIB = 1 << 20

#: Transfer chunk: the writer's flush unit, the producer queue's item
#: size, and the unit the streamed-peak bound is expressed in.
DEFAULT_CHUNK_BYTES = 1 * MIB

#: Producer-queue depth, in chunks.  The queue is the only place whole
#: chunks accumulate, so depth x chunk bounds the producer's lead over
#: the socket — keep it small or the "bounded memory" claim goes soft.
DEFAULT_QUEUE_DEPTH = 1

#: Message sizes for the full sweep; quick callers pass fewer.
DEFAULT_SIZES_MIB = (1, 8, 64, 256)

#: Largest size the buffered path runs at (it materializes the payload
#: at least twice; 256 MiB buffered is a swap test, not a measurement).
DEFAULT_BUFFERED_CAP_MIB = 64

#: Streamed-vs-buffered TTFB advantage required at the largest common
#: size (measured ~50-200x), the streamed peak bound in transfer chunks
#: (~3.3), and what per-chunk signing may cost in total time (~3x; the
#: ceiling catches per-byte rehashing, not machine noise).
TTFB_RATIO_FLOOR = 5.0
STREAM_PEAK_CHUNKS = 4.0
SIGNED_TOTAL_CEILING = 6.0

#: Fixed demo key — the figure measures cost, not key management.
_KEY = SecretKey(b"figure-stream-demo-key-0123456789", "figure-s")

_MODES = ("buffered", "streamed", "signed")


def expected_checksum(n_items: int) -> int:
    """Sum of ``arange(n_items)`` without building it."""
    return n_items * (n_items - 1) // 2


def _blocks(n_items: int, block_items: int):
    """The payload as deterministic int32 blocks, never all at once."""
    for start in range(0, n_items, block_items):
        yield np.arange(start, min(start + block_items, n_items), dtype=np.int32)


class _ConsumerGone(Exception):
    """The response stream was abandoned; stop producing."""


def _streamed_pieces(n_items: int, chunk_bytes: int, queue_depth: int):
    """Encoded-document pieces from a bounded producer thread.

    The writer runs in its own thread, pushing ``chunk_bytes``-sized
    pieces into a ``queue_depth``-deep queue; the returned generator
    pulls them.  The queue is the backpressure: a slow consumer stalls
    the producer after ``queue_depth`` chunks, so memory stays bounded
    no matter how large the document is.  Pieces cross the queue
    *uncopied*: the writer's large-payload pieces are views over the
    per-call normalized block (fresh each ``_blocks`` step, never
    mutated) and its small-accumulation flushes are already fresh
    ``bytes`` — a defensive copy here would add a whole chunk to the
    pipeline's peak for nothing.
    """
    pieces: queue.Queue = queue.Queue(maxsize=queue_depth)
    abandoned = threading.Event()

    def put(item) -> None:
        while True:
            try:
                pieces.put(item, timeout=0.1)
                return
            except queue.Full:
                if abandoned.is_set():
                    raise _ConsumerGone()

    def produce() -> None:
        try:
            writer = BXSAStreamWriter(sink=put, chunk_size=chunk_bytes)
            writer.start_document()
            writer.start_element("PullResponse")
            writer.array_blocks(
                "values", n_items, _blocks(n_items, chunk_bytes // 4), "int"
            )
            writer.end_element()
            writer.end_document()
            put(None)
        except _ConsumerGone:
            return
        except Exception as exc:  # noqa: BLE001 - surface in the consumer
            try:
                put(exc)
            except _ConsumerGone:
                pass

    threading.Thread(target=produce, name="figure-stream-producer", daemon=True).start()

    def generate():
        try:
            while True:
                item = pieces.get()
                if item is None:
                    return
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            abandoned.set()

    return generate()


def _buffered_body(n_items: int) -> bytes:
    """The buffer-and-send baseline: materialize, encode, one body."""
    writer = BXSAStreamWriter()
    writer.start_document()
    writer.start_element("PullResponse")
    writer.array("values", np.arange(n_items, dtype=np.int32), "int")
    writer.end_element()
    return writer.end_document()


def make_handler(chunk_bytes: int, queue_depth: int):
    """``GET /pull/<mib>/<mode>`` -> one big array, three ways."""

    def handler(request: HttpRequest) -> HttpResponse:
        parts = request.target.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "pull" or parts[2] not in _MODES:
            return HttpResponse(404, body=b"GET /pull/<mib>/<buffered|streamed|signed>")
        n_items = int(parts[1]) * MIB // 4
        mode = parts[2]
        response = HttpResponse(200)
        response.headers.set("Content-Type", "application/x-bxsa")
        if mode == "buffered":
            response.body = _buffered_body(n_items)
            return response
        if mode == "signed":
            # sign quarter-chunk units: the wrap/verify stages buffer a
            # couple of signing units each, so a smaller unit keeps the
            # signed pipeline inside the same 4x-transfer-chunk budget
            # (the per-unit MAC is 32 bytes — overhead stays negligible)
            pieces = _streamed_pieces(n_items, chunk_bytes // 4, queue_depth)
            response.stream = sign_stream(pieces, _KEY)
        else:
            response.stream = _streamed_pieces(n_items, chunk_bytes, queue_depth)
        return response

    return handler


def _consume(pieces, *, signed: bool, chunk_bytes: int) -> int:
    """Incrementally decode a piece stream; returns the array checksum.

    Never joins the pieces: each goes through the (optional) chunk
    verifier and the streaming decoder as it arrives, and array payloads
    surface as zero-copy ARRAY_CHUNK views that are reduced immediately.
    """
    if signed:
        pieces = verify_stream(pieces, _KEY)
    decoder = StreamDecoder(array_chunk_threshold=max(chunk_bytes // 4, 4096))
    checksum = 0
    for piece in pieces:
        for event in decoder.feed(piece):
            if event.kind in (EventKind.ARRAY_CHUNK, EventKind.ARRAY):
                checksum += int(event.values.sum(dtype=np.int64))
    decoder.close()
    return checksum


def _exchange(client: HttpClient, mib: int, mode: str, chunk_bytes: int) -> dict:
    """One GET, fully consumed; returns ttfb/total/checksum.  A buffered
    answer declares its length, so the client lands it whole first."""
    start = time.perf_counter()
    response = client.request("GET", f"/pull/{mib}/{mode}")
    assert response.status == 200, response.status
    stream = iter(response.stream if response.stream is not None else (response.body,))
    first = next(stream)
    ttfb = time.perf_counter() - start
    checksum = _consume(
        itertools.chain((first,), stream),
        signed=(mode == "signed"),
        chunk_bytes=chunk_bytes,
    )
    total = time.perf_counter() - start
    return {"ttfb_s": ttfb, "total_s": total, "checksum": checksum}


def sweep(
    *,
    sizes_mib=DEFAULT_SIZES_MIB,
    buffered_cap_mib: int = DEFAULT_BUFFERED_CAP_MIB,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
) -> dict:
    """Run the full (size x mode) grid; returns the JSON-ready document.

    Each point is measured twice: an untraced pass for TTFB and total
    (tracemalloc slows every allocation, so timing and memory never
    share a run) and a traced pass for peak heap bytes.  Checksums are
    verified on both.
    """
    listener = TcpListener()
    host, port = listener.address
    server = HttpServer(
        listener,
        make_handler(chunk_bytes, queue_depth),
        name="figure-stream",
        admin=False,
    )
    points = []
    with server:
        client = HttpClient(lambda: connect_tcp(host, port), host=host)
        try:
            for mib in sizes_mib:
                n_items = mib * MIB // 4
                expected = expected_checksum(n_items)
                for mode in _MODES:
                    if mode == "buffered" and mib > buffered_cap_mib:
                        continue
                    timing = _exchange(client, mib, mode, chunk_bytes)
                    peak, traced = traced_peak_bytes(
                        lambda: _exchange(client, mib, mode, chunk_bytes)
                    )
                    points.append(
                        {
                            "mib": mib,
                            "mode": mode,
                            "ttfb_s": timing["ttfb_s"],
                            "total_s": timing["total_s"],
                            "peak_bytes": peak,
                            "throughput_mib_s": mib / max(timing["total_s"], 1e-9),
                            "verified": timing["checksum"] == expected
                            and traced["checksum"] == expected,
                        }
                    )
        finally:
            client.close()
    return {
        "experiment": "figure_stream",
        "config": {
            "chunk_bytes": chunk_bytes,
            "queue_depth": queue_depth,
            "sizes_mib": list(sizes_mib),
            "buffered_cap_mib": buffered_cap_mib,
        },
        "points": points,
    }


def _point(document: dict, mib: int, mode: str) -> dict | None:
    for point in document["points"]:
        if point["mib"] == mib and point["mode"] == mode:
            return point
    return None


def run(
    *,
    sizes_mib=DEFAULT_SIZES_MIB,
    buffered_cap_mib: int = DEFAULT_BUFFERED_CAP_MIB,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    json_out: str | None = None,
) -> ExperimentResult:
    """Run the sweep, evaluate the shape checks, render the table."""
    document = sweep(
        sizes_mib=sizes_mib,
        buffered_cap_mib=buffered_cap_mib,
        chunk_bytes=chunk_bytes,
        queue_depth=queue_depth,
    )
    if json_out:
        directory = os.path.dirname(json_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    columns = ["size MiB", "mode", "TTFB ms", "total s", "peak MiB", "MiB/s", "ok"]
    rows = [
        [
            str(p["mib"]),
            p["mode"],
            f"{1e3 * p['ttfb_s']:.1f}",
            f"{p['total_s']:.2f}",
            f"{p['peak_bytes'] / MIB:.1f}",
            f"{p['throughput_mib_s']:.0f}",
            "yes" if p["verified"] else "NO",
        ]
        for p in document["points"]
    ]

    streamed_points = [p for p in document["points"] if p["mode"] != "buffered"]
    peak_bound = STREAM_PEAK_CHUNKS * chunk_bytes
    worst_stream_peak = max(p["peak_bytes"] for p in streamed_points)
    top_common = max(m for m in sizes_mib if m <= buffered_cap_mib)
    buffered_top = _point(document, top_common, "buffered")
    streamed_top = _point(document, top_common, "streamed")
    ttfb_ratio = buffered_top["ttfb_s"] / max(streamed_top["ttfb_s"], 1e-9)
    top = max(sizes_mib)
    signed_s = _point(document, top, "signed")["total_s"]
    unsigned_s = _point(document, top, "streamed")["total_s"]
    checks = [
        ShapeCheck(
            "every transfer decodes to the expected checksum (all sizes, all modes)",
            all(p["verified"] for p in document["points"]),
        ),
        ShapeCheck(
            f"streamed peak allocation <= {STREAM_PEAK_CHUNKS:g}x the transfer "
            "chunk at every size, signed or not",
            worst_stream_peak <= peak_bound,
            f"worst {worst_stream_peak / MIB:.1f} MiB vs bound {peak_bound / MIB:.1f} MiB",
        ),
        ShapeCheck(
            "buffered peak exceeds the payload itself at the largest buffered size",
            buffered_top["peak_bytes"] >= top_common * MIB,
            f"{buffered_top['peak_bytes'] / MIB:.1f} MiB for a {top_common} MiB payload",
        ),
        ShapeCheck(
            f"buffered TTFB >= {TTFB_RATIO_FLOOR:g}x streamed TTFB at "
            f"{top_common} MiB",
            ttfb_ratio >= TTFB_RATIO_FLOOR,
            f"{1e3 * buffered_top['ttfb_s']:.1f} ms vs "
            f"{1e3 * streamed_top['ttfb_s']:.1f} ms ({ttfb_ratio:.1f}x)",
        ),
        ShapeCheck(
            f"per-chunk signing costs <= {SIGNED_TOTAL_CEILING:g}x the unsigned "
            f"streamed total at {top} MiB",
            signed_s <= SIGNED_TOTAL_CEILING * unsigned_s,
            f"{signed_s:.2f} s vs {unsigned_s:.2f} s ({signed_s / max(unsigned_s, 1e-9):.1f}x)",
        ),
    ]
    notes = [
        f"chunk {chunk_bytes // MIB} MiB, producer queue {queue_depth} chunks, "
        f"buffered capped at {buffered_cap_mib} MiB; loopback TCP, client and "
        "server in one process (tracemalloc sees both sides)",
        "signed = per-chunk HMAC-SHA256 with a chained trailer "
        "(repro.core.security.sign_stream), verified incrementally in flight",
    ]
    return ExperimentResult(
        experiment_id="Figure S",
        title="Streaming vs buffered large-message pipeline (TTFB and peak memory)",
        columns=columns,
        rows=rows,
        checks=checks,
        notes=notes,
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate the streaming large-message pipeline figure."
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="MIB",
        help=f"message sizes in MiB (default {' '.join(map(str, DEFAULT_SIZES_MIB))})",
    )
    parser.add_argument("--buffered-cap", type=int, default=DEFAULT_BUFFERED_CAP_MIB)
    parser.add_argument("--chunk-kib", type=int, default=DEFAULT_CHUNK_BYTES // 1024)
    parser.add_argument("--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH)
    parser.add_argument("--json-out", default=None, help="write the sweep JSON here")
    parser.add_argument(
        "--distributed-trace",
        action="store_true",
        help="run the cross-process tracing demo with streamed-pipeline "
        "chunk markers (stream.first_chunk/stream.last_chunk events) and "
        "verify the assembled trace instead of the size sweep",
    )
    args = parser.parse_args()
    if args.distributed_trace:
        from repro.harness.dtrace import run_distributed_trace_demo

        demo = run_distributed_trace_demo(core="threaded", streamed_markers=True)
        for problem in demo["problems"]:
            print(f"PROBLEM: {problem}")
        print(
            f"distributed-trace[stream]: trace {demo['trace_id']} "
            f"wire {demo['wire_seconds'] * 1e3:.3f}ms "
            f"[{'OK' if demo['ok'] else 'FAIL'}]"
        )
        raise SystemExit(0 if demo["ok"] else 1)
    result = run(
        sizes_mib=tuple(args.sizes) if args.sizes else DEFAULT_SIZES_MIB,
        buffered_cap_mib=args.buffered_cap,
        chunk_bytes=args.chunk_kib * 1024,
        queue_depth=args.queue_depth,
        json_out=args.json_out,
    )
    print(result.render())
    raise SystemExit(0 if result.all_checks_pass else 1)
