#!/usr/bin/env python
"""Smoke tests for the verify flow: one entry point, four wiring checks.

::

    python tools/smoke.py [aio|stream|dtrace|fed|all]      # default: all

Seconds, not minutes: each is a wiring check over real loopback TCP (and,
for ``fed``, real child processes), not a benchmark.  Exit 0 when every
selected smoke passes, 1 with a diagnostic on the first broken invariant
of each that does not.

* ``aio`` — the serving stack end to end on **both** I/O drivers: a
  pooled :class:`RequestPipeline` behind ``AsyncHttpServer`` and behind
  ``HttpServer``; keep-alive sequencing (admin GET, pooled POST, admin
  GET over one socket), the admin surface answering without the pool,
  :func:`drive_connections` holding 64 concurrent keep-alive connections
  with exact accounting, and the drain + one-shot lifecycle.
* ``stream`` — a ~64 MiB typed array through the streaming data plane
  (sink-driven ``BXSAStreamWriter``, chunked Transfer-Encoding, per-chunk
  HMAC signing, incremental ``StreamDecoder``): peak heap bounded by a
  few transfer chunks, checksum verified, a tampered chunk *rejected*.
* ``dtrace`` — the cross-process tracing demo against both cores: one
  trace id end to end, server spans parented under the client's wire
  spans, non-negative wire time, reconciling segments, a RED exemplar.
* ``fed`` — a real 3-process cluster: every node ready before load, a
  warm cache hit making zero upstream exchanges, one node SIGKILLed
  mid-load losing nothing, its circuit opening.
"""

import socket
import sys
import threading

sys.path.insert(0, "src")


class SmokeFailure(Exception):
    """A broken invariant; the message is the diagnostic."""


def check(condition, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def recv_response(sock: socket.socket) -> bytes:
    """One complete response off a blocking socket (Content-Length framed)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest


# ----------------------------------------------------------------------


def smoke_aio() -> str:
    from repro.serve.pool import WorkerPool
    from repro.loadgen import drive_connections
    from repro.transport.aio import AsyncHttpServer
    from repro.transport.http import HttpServer
    from repro.transport.http.messages import HttpRequest, HttpResponse
    from repro.transport.http.pipeline import RequestPipeline
    from repro.transport.sockets import TcpListener

    class PooledEcho:
        """The pipeline application: nothing to route, echo on a worker."""

        def route(self, _request):
            return None

        def exchange(self, request, _state):
            return HttpResponse(200, body=b"pooled:" + request.body)

    summaries = []
    for driver in (AsyncHttpServer, HttpServer):
        who = driver.__name__
        listener = TcpListener(backlog=256)
        address = listener.address
        pool = WorkerPool(workers=2, queue_depth=32).start()
        pipeline = RequestPipeline(PooledEcho(), name="smoke", metrics=pool.metrics, pool=pool)
        server = driver(listener, pipeline, name="smoke", max_connections=256).start()
        try:
            # keep-alive sequencing: admin, pooled work, admin — one socket
            sock = socket.create_connection(address, timeout=5.0)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            check(
                recv_response(sock).startswith(b"HTTP/1.1 200"),
                f"{who}: /healthz did not answer 200 on a keep-alive connection",
            )
            sock.sendall(HttpRequest("POST", "/work", body=b"ping").to_bytes())
            pooled = recv_response(sock)
            check(
                b"pooled:ping" in pooled,
                f"{who}: pooled POST did not round-trip through the pool: {pooled[:80]!r}",
            )
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            check(
                b"http_requests_total" in recv_response(sock),
                f"{who}: /metrics is missing the http_requests_total family",
            )
            sock.close()

            # 64 concurrent keep-alive connections, exact accounting
            request_bytes = HttpRequest("POST", "/work", body=b"x" * 64).to_bytes()
            result = drive_connections(
                address, request_bytes, connections=64, requests_per_connection=3
            )
            check(
                result.established == 64,
                f"{who}: only {result.established}/64 connections established",
            )
            check(
                not result.failed and result.completed + result.shed == result.offered,
                f"{who}: accounting broken: {result.summary()}",
            )
        finally:
            server.stop()
            pool.stop()
        open_after = server.metrics.gauge("http_connections_open").snapshot()
        check(open_after == 0, f"{who}: {open_after} connections survived stop()")
        try:
            server.start()
        except RuntimeError:
            pass
        else:
            raise SmokeFailure(f"{who}: a stopped server restarted instead of raising")
        summaries.append(f"{who} {result.completed} completed/{result.shed} shed")
    return (
        "keep-alive sequencing, admin surface, 64-connection drive "
        f"({'; '.join(summaries)}), drain and one-shot lifecycle hold on both drivers"
    )


def smoke_stream() -> str:
    from repro.core.security import ChunkSignatureError, sign_stream, verify_stream
    from repro.harness.figure_stream import (
        _KEY,
        DEFAULT_CHUNK_BYTES,
        MIB,
        STREAM_PEAK_CHUNKS,
        _streamed_pieces,
        sweep,
    )

    size_mib = 64
    # Figure S's own sweep and bound, streamed modes only (nothing buffered)
    document = sweep(sizes_mib=(size_mib,), buffered_cap_mib=0)
    budget = STREAM_PEAK_CHUNKS * DEFAULT_CHUNK_BYTES
    peaks = []
    for point in document["points"]:
        mode, peak = point["mode"], point["peak_bytes"]
        check(point["verified"], f"{mode}: checksum differs from the expected one")
        check(
            peak <= budget,
            f"{mode}: {size_mib} MiB exchange peaked at {peak / MIB:.1f} MiB heap "
            f"(budget {budget / MIB:.1f} MiB) — the pipeline is buffering the "
            "message somewhere",
        )
        peaks.append(f"{mode} peak {peak / DEFAULT_CHUNK_BYTES:.1f} chunks")

    # tamper check without the network: flip one byte of the *signed*
    # wire mid-flow and the verifier must refuse — otherwise the signed
    # mode proves nothing
    def tampered():
        pieces = _streamed_pieces(MIB // 4, DEFAULT_CHUNK_BYTES // 4, 1)
        for i, piece in enumerate(sign_stream(pieces, _KEY)):
            piece = bytearray(piece)
            if i == 1:
                piece[len(piece) // 2] ^= 0x01
            yield bytes(piece)

    try:
        for _ in verify_stream(tampered(), _KEY):
            pass
    except ChunkSignatureError:
        pass
    else:
        raise SmokeFailure("tampered chunk sailed through signature verification")
    return f"{size_mib} MiB verified, {', '.join(peaks)}, tampered chunk rejected"


def smoke_dtrace() -> str:
    from repro.harness.dtrace import run_distributed_trace_demo

    runs = [("threaded", {}), ("aio", {}), ("threaded", {"streamed_markers": True})]
    notes = []
    for core, kwargs in runs:
        label = "stream" if kwargs else core
        result = run_distributed_trace_demo(core=core, **kwargs)
        check(result["ok"], f"{label}: " + "; ".join(result["problems"]))
        notes.append(
            f"{label} {len(result['join']['links'])} links "
            f"wire {result['wire_seconds'] * 1e3:.3f}ms"
        )
    return "one joined trace per core, chunk markers ride it: " + ", ".join(notes)


def smoke_fed() -> str:
    from repro.core.envelope import SoapEnvelope
    from repro.fed import (
        Balancer,
        CachingClient,
        FederatedClient,
        LeastOutstandingPolicy,
        ResponseCache,
    )
    from repro.fed.balancer import CIRCUIT_CLOSED
    from repro.fed.node import spawn_nodes
    from repro.loadgen import closed_loop
    from repro.xdm import element, leaf

    clients, requests_per_client = 6, 20
    kill_after = 30  # offered requests before node-1 is SIGKILLed
    hot_keys = 5  # distinct payloads, so most requests are repeats

    def echo(n: int) -> SoapEnvelope:
        return SoapEnvelope.wrap(element("Echo", leaf("n", n, "int")))

    nodes = spawn_nodes(3, workers=2, queue_depth=16, blob_size=1 << 12)
    try:
        balancer = Balancer(
            [node.replica() for node in nodes],
            policy=LeastOutstandingPolicy(),
            breaker_threshold=1,
            breaker_cooldown=5.0,
        )
        verdicts = balancer.probe_all(timeout=3.0)
        check(set(verdicts.values()) == {"ready"}, f"probe before load: {verdicts}")

        cache = ResponseCache(ttl_seconds=None)
        calls = [0]
        lock = threading.Lock()
        kill = threading.Event()

        def killer():
            kill.wait(timeout=30)
            nodes[1].kill()  # SIGKILL: abrupt death, in-flight work lost

        killer_thread = threading.Thread(target=killer, daemon=True)
        killer_thread.start()

        def call_factory():
            client = CachingClient(FederatedClient(balancer), cache)

            def call(index: int):
                with lock:
                    calls[0] += 1
                    if calls[0] == kill_after:
                        kill.set()
                client.call(echo(index % hot_keys))

            call.close = client.close
            return call

        result = closed_loop(
            call_factory, clients=clients, requests_per_client=requests_per_client
        )
        kill.set()
        killer_thread.join(timeout=30)

        offered = clients * requests_per_client
        check(result.offered == offered, f"offered {result.offered} != {offered}")
        check(
            result.completed + result.shed + result.failed == result.offered,
            f"accounting broken: {result.offered} != {result.completed} "
            f"+ {result.shed} + {result.failed}",
        )
        check(not result.failed, f"{result.failed} exchanges lost to the node kill")
        check(cache.hits > 0, "no cache hits despite repeated payloads")
        # the direct warm-hit proof: one repeat, zero upstream movement
        upstream_before = balancer.upstream_requests
        probe_client = CachingClient(FederatedClient(balancer), cache)
        try:
            probe_client.call(echo(0))
        finally:
            probe_client.close()
        check(
            balancer.upstream_requests == upstream_before,
            "warm cache hit made an upstream exchange",
        )

        # The cache may have absorbed every request after the kill, in
        # which case the dead node was never retried and its breaker never
        # tripped.  Unique payloads bypass the cache; least-outstanding
        # rotates onto the permanently-idle dead node within a few calls,
        # trips its breaker, and fails over to a survivor.
        direct = FederatedClient(balancer)
        try:
            for extra in range(12):
                direct.call(echo(hot_keys + 1 + extra))
                if balancer.state("fed-node-1").circuit != CIRCUIT_CLOSED:
                    break
        finally:
            direct.close()

        dead = balancer.snapshot()["fed-node-1"]
        check(
            dead["circuit"] != CIRCUIT_CLOSED or not dead["live"],
            f"killed node never gated out: {dead}",
        )
        failovers = balancer.metrics.counter("fed_failovers_total").snapshot()
        check(failovers >= 1, "no failover recorded despite the kill")
    finally:
        for node in nodes:
            node.stop()
    return (
        f"3 nodes ready; node-1 killed mid-load, offered {result.offered} = completed "
        f"{result.completed} + shed {result.shed} + failed 0; cache {cache.hits} hits / "
        f"{cache.misses} misses, warm hit made zero upstream exchanges; {failovers} "
        f"failovers, node-1 circuit={dead['circuit']} live={dead['live']}"
    )


SMOKES = {"aio": smoke_aio, "stream": smoke_stream, "dtrace": smoke_dtrace, "fed": smoke_fed}


def main(argv: list[str]) -> int:
    which = argv[0] if argv else "all"
    if which != "all" and which not in SMOKES:
        print(f"usage: smoke.py [{'|'.join(SMOKES)}|all]", file=sys.stderr)
        return 2
    failed = False
    for name in SMOKES if which == "all" else [which]:
        try:
            print(f"smoke[{name}]: PASS — {SMOKES[name]()}", flush=True)
        except SmokeFailure as exc:
            print(f"smoke[{name}]: FAIL — {exc}", flush=True)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
