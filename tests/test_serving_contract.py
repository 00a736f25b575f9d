"""The serving contract: one suite, every case on both I/O drivers.

What a request *means* is defined once, in
:class:`~repro.transport.http.pipeline.RequestPipeline`; the threaded and
the selector driver only move bytes.  So every behaviour a client can
observe — keep-alive, the admin surface, error mapping, framing refusals,
the connection cap, pooled admission and shedding, drain, chunked
transfer, bulk bodies however their bytes are split, and the accounting of
all of it — is asserted here once and run against both drivers over real
TCP via the ``serving_core`` fixture.

Driver-only behaviour keeps its own unparametrized tests next to the
driver: memory-listener rejection and ``drive_connections`` in
``test_aio_server.py``; a streamed request body, memory listeners, the
close-raises channel, cap churn and the thread-spawn-failure slot release
in ``test_transport_http.py`` / ``test_telemetry.py``.

Legacy per-core twins this suite covers case by case (kept only because
the test floor pins their ids; each may go once its id is released —
``old -> the case here that checks everything it checked``):

* ``test_aio_server.py`` ``TestInlineServing``: ``keep_alive_request_sequence``,
  ``handler_exception_becomes_500_and_connection_survives``,
  ``malformed_head_gets_400_and_close``, ``conflicting_content_length_gets_400``,
  ``pipelined_requests_answered_in_order`` -> same names; ``admin_surface_answers_inline``
  -> ``test_admin_surface``.
* ``TestLifecycle``: ``restart_raises``, ``stop_before_start_then_start_raises`` -> same
  names; ``stop_closes_every_connection`` -> ``test_stop_closes_idle_connections_at_once``.
* ``TestConnectionCap`` (both) -> same names.
* ``TestPooledServing``: ``pooled_roundtrip_and_worker_state`` -> same name;
  ``admin_stays_inline_when_pool_is_wedged`` + ``inline_router_answers_without_the_pool``
  -> ``test_route_and_admin_answer_without_the_pool``;
  ``pool_full_sheds_503_with_retry_after_and_on_shed`` ->
  ``test_pool_full_sheds_503_with_retry_after``; ``stop_drains_in_flight_pooled_requests``
  -> ``TestLifecycle::test_stop_drains_in_flight_requests``.
* ``TestChunkedTransfer`` (all five) -> same names.
* ``test_telemetry.py`` ``TestServerConcurrency``: ``connection_cap_rejects_past_the_limit``
  -> ``test_cap_rejects_with_503_and_close``; ``connection_cap_validation`` -> same name;
  ``stop_drain_deadline_is_configurable_and_completes_under_load`` ->
  ``test_stop_drains_in_flight_requests``; ``stop_with_tiny_drain_budget_is_bounded`` ->
  same name.  (``pipelined_keepalive_exchanges_have_no_crosstalk`` is SOAP-level: the
  HTTP half is ``test_concurrent_keepalive_clients_have_no_crosstalk``.)
* ``TestConnectionLifecycleRegressions``: ``connection_cap_slot_reusable_after_close…``
  -> ``test_slot_frees_when_connection_closes``; ``server_cannot_be_restarted_after_stop``
  -> ``test_restart_raises``; ``double_start_still_rejected_while_running`` ->
  ``test_double_start_rejected_while_running``.
* ``test_transport_http.py`` ``TestChunkedTransfer``:
  ``chunked_request_buffered_for_plain_handler`` -> ``test_chunked_request_from_the_client``;
  ``unsupported_transfer_encoding_gets_501_and_close``, ``te_with_content_length_gets_400``
  -> same names; ``chunked_pipelining_residue_preserved`` ->
  ``test_chunked_then_pipelined_plain_request``.
"""

import gc
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.core.dispatcher import Dispatcher
from repro.core.envelope import SoapEnvelope
from repro.core.policies import BXSAEncoding, XMLEncoding
from repro.core.client import SoapHttpClient, SoapTcpClient
from repro.core.service import SoapTcpService
from repro.obs import render_prometheus
from repro.serve import ServeConfig, SoapServeService
from repro.serve.pool import WorkerPool
from repro.transport import TcpListener, connect_tcp
from repro.transport.base import MAX_READ_BYTES
from repro.transport.http import HttpClient, HttpError, HttpRequest, HttpResponse
from repro.transport.http.messages import HEADER_END
from repro.transport.http.pipeline import REJECT_RETRY_AFTER, RequestPipeline
from repro.xdm import ArrayElement, DocumentNode, array, element, leaf
from tests.conftest import (
    DRIVERS,
    PipelineApp,
    echo_handler,
    parse_prometheus,
    series_sum,
    wait_until,
)


def samples_of(server) -> dict:
    return parse_prometheus(render_prometheus(server.metrics))


def series_sum(samples: dict, name: str) -> float:
    return sum(v for k, v in samples.items() if k.split("{")[0] == name)


def conn_threads_alive() -> list:
    return [t for t in threading.enumerate() if t.name.endswith("-conn") and t.is_alive()]


def raw_socket(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=5)


def recv_until(sock, done) -> bytes:
    data = b""
    deadline = time.monotonic() + 5
    while not done(data) and time.monotonic() < deadline:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


class Wedge:
    """An exchange that parks its worker until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, request, _state):
        self.entered.set()
        self.release.wait(10)
        return HttpResponse(200, body=b"late")


def post_in_background(client, target=b"/work", body=b"x"):
    box = []

    def runner():
        try:
            box.append(client.post(target.decode(), body))
        except Exception as exc:  # noqa: BLE001 - surfaced via box
            box.append(exc)

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    return thread, box


@pytest.fixture
def pooled(serving_core):
    """Start a pooled pipeline on the core under test; cleans the pool up."""
    pools = []

    def start(exchange, route=None, **pool_kwargs):
        pool_kwargs.setdefault("workers", 1)
        pool_kwargs.setdefault("queue_depth", 1)
        pool = WorkerPool(**pool_kwargs).start()
        pools.append(pool)
        app = PipelineApp(exchange, route)
        server = serving_core.serve(RequestPipeline(app, pool=pool, metrics=pool.metrics))
        return server, app, pool

    try:
        yield start
    finally:
        for pool in pools:
            pool.stop(0.5)


# ----------------------------------------------------------------------


class TestInlineServing:
    def test_keep_alive_request_sequence(self, serving_core):
        client = serving_core.client()
        for i in range(5):
            response = client.post("/x", f"ping-{i}".encode())
            assert response.status == 200
            assert response.body == f"echo:ping-{i}".encode()
        # all five rode one connection
        assert serving_core.server.metrics.counter("http_connections_total").snapshot() == 1

    def test_connection_close_honoured(self, serving_core):
        client = serving_core.client()
        response = client.request("GET", "/x", headers={"Connection": "close"})
        assert response.ok and response.headers.get("Connection") == "close"
        assert client.get("/y").ok  # the client transparently reconnects
        assert serving_core.server.metrics.counter("http_connections_total").snapshot() == 2

    def test_admin_surface(self, serving_core):
        client = serving_core.client()
        assert client.post("/x", b"warm").status == 200
        metrics = client.get("/metrics")
        assert metrics.status == 200
        assert metrics.headers.get("Content-Type") == "text/plain; version=0.0.4"
        samples = parse_prometheus(str(metrics.body, "utf-8"))
        assert samples['http_requests_total{method="POST",status="2xx"}'] == 1
        assert samples["http_connections_open"] == 1
        health = json.loads(bytes(client.get("/healthz").body))
        assert health["status"] == "ok" and health["uptime_seconds"] >= 0.0
        assert health["connections_open"] == 1
        assert json.loads(bytes(client.get("/readyz").body))["status"] == "ready"
        assert json.loads(bytes(client.get("/varz").body))["schema"] == "repro.obs.varz/1"
        assert client.post("/metrics", b"nope").status == 405  # GET only

    def test_admin_can_be_disabled(self, serving_core):
        server = serving_core.serve(echo_handler, admin=False)
        assert serving_core.client(server).get("/metrics").body == b"echo:"

    def test_readiness_probe_drives_readyz(self, serving_core):
        server = serving_core.serve(
            echo_handler, readiness=lambda: (False, {"retry_after": 0.25, "why": "full"})
        )
        response = serving_core.client(server).get("/readyz")
        assert response.status == 503
        assert response.headers.get("Retry-After") == "0.250"
        assert json.loads(bytes(response.body))["why"] == "full"

    def test_handler_exception_becomes_500_and_connection_survives(self, serving_core):
        client = serving_core.client()
        response = client.get("/boom")
        assert response.status == 500
        # generic body: exception detail stays server-side...
        assert response.body == b"internal server error"
        assert client.post("/x", b"after").status == 200  # same connection
        assert serving_core.server.metrics.counter("http_connections_total").snapshot() == 1
        # ...where /varz and the registry still show it
        server = serving_core.server
        assert server.recent_errors[-1]["detail"] == "handler exploded"
        varz = json.loads(bytes(client.get("/varz").body))
        assert varz["server"]["recent_errors"][-1]["target"] == "/boom"
        assert varz["metrics"]["counters"]['http_handler_errors_total{type="RuntimeError"}'] == 1

    def test_http_error_from_handler_keeps_its_status(self, serving_core):
        def handler(request):
            raise HttpError("no such thing")

        server = serving_core.serve(handler)
        response = serving_core.client(server).get("/x")
        assert response.status == 400 and response.body == b"no such thing"
        assert not server.recent_errors  # a chosen status is not a handler error

    def test_malformed_head_gets_400_and_close(self, serving_core):
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(b"GARBAGE\r\n\r\n")
            data = recv_until(sock, lambda d: b"\r\n\r\n" in d)
            assert data.startswith(b"HTTP/1.1 400")
            assert b"Connection: close" in data
            assert sock.recv(65536) == b""  # server closed after flushing
        finally:
            sock.close()

    def test_conflicting_content_length_gets_400(self, serving_core):
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello"
            )
            assert recv_until(sock, lambda d: b"\r\n\r\n" in d).startswith(b"HTTP/1.1 400")
        finally:
            sock.close()

    def test_pipelined_requests_answered_in_order(self, serving_core):
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(
                b"".join(
                    HttpRequest("POST", "/x", body=f"p{i}".encode()).to_bytes()
                    for i in range(3)
                )
            )
            data = recv_until(sock, lambda d: d.endswith(b"echo:p2"))
            positions = [data.index(f"echo:p{i}".encode()) for i in range(3)]
            assert positions == sorted(positions)
        finally:
            sock.close()

    def test_concurrent_keepalive_clients_have_no_crosstalk(self, serving_core):
        mismatches, errors = [], []

        def worker(n):
            client = HttpClient(lambda: connect_tcp(*serving_core.server.address))
            try:
                for i in range(10):
                    body = f"{n}:{i}".encode()
                    if client.post("/w", body).body != b"echo:" + body:
                        mismatches.append((n, i))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == [] and mismatches == []
        samples = samples_of(serving_core.server)
        assert series_sum(samples, "http_requests_total") == 40
        assert samples["http_requests_in_flight"] == 0


class TestLifecycle:
    def test_restart_raises(self, serving_core):
        server = serving_core.serve(echo_handler)
        assert serving_core.client(server).get("/x").status == 200
        server.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            server.start()

    def test_stop_before_start_then_start_raises(self, serving_core):
        server = DRIVERS[serving_core.name](TcpListener(), echo_handler)
        server.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            server.start()

    def test_double_start_rejected_while_running(self, serving_core):
        with pytest.raises(RuntimeError, match="already running"):
            serving_core.server.start()

    def test_connection_cap_validation(self, serving_core):
        with pytest.raises(ValueError):
            DRIVERS[serving_core.name](TcpListener(), echo_handler, max_connections=0)

    def test_stop_on_an_idle_server_is_prompt_and_leaves_no_thread(self, serving_core):
        """Regression: ``TcpListener.close()`` without ``shutdown()`` left
        the accept thread parked, so every real-TCP stop burned its whole
        5 s join."""
        server = serving_core.serve(echo_handler, name="idle-stop")
        assert serving_core.client(server).get("/x").status == 200
        began = time.monotonic()
        server.stop()
        assert time.monotonic() - began < 1.0
        assert not [t for t in threading.enumerate() if t.name.startswith("idle-stop")]

    def test_stop_closes_idle_connections_at_once(self, serving_core):
        server = serving_core.serve(echo_handler)
        socks = [raw_socket(server) for _ in range(4)]
        try:
            wait_until(
                lambda: server.metrics.gauge("http_connections_open").snapshot() == 4
            )
            began = time.monotonic()
            server.stop()  # default 5 s drain budget: idle connections must not spend it
            assert time.monotonic() - began < 1.0
            assert server.metrics.gauge("http_connections_open").snapshot() == 0
            for sock in socks:
                assert sock.recv(16) == b""  # peer closed
        finally:
            for sock in socks:
                sock.close()

    def test_stop_drains_in_flight_requests(self, serving_core, pooled):
        """Requests already with the pipeline are answered — marked
        ``Connection: close`` — before stop() returns."""
        entered = threading.Semaphore(0)
        release = threading.Event()

        def slow(request, _state):
            entered.release()
            release.wait(10)
            return HttpResponse(200, body=b"drained")

        server, _app, _pool = pooled(slow, workers=3, queue_depth=4)
        pending = [post_in_background(serving_core.client(server)) for _ in range(3)]
        for _ in pending:
            assert entered.acquire(timeout=5)
        threading.Timer(0.05, release.set).start()
        server.stop(drain_timeout=10)
        for thread, box in pending:
            thread.join(5)
            assert box[0].status == 200 and box[0].body == b"drained"
            assert box[0].headers.get("Connection") == "close"
        assert not conn_threads_alive()

    def test_stop_with_tiny_drain_budget_is_bounded(self, serving_core, pooled):
        """A handler that never returns cannot hold stop() hostage."""
        wedge = Wedge()
        server, _app, _pool = pooled(wedge)
        thread, _box = post_in_background(serving_core.client(server))
        try:
            assert wedge.entered.wait(5)
            began = time.monotonic()
            server.stop(drain_timeout=0.2)
            assert time.monotonic() - began < 3.0
        finally:
            wedge.release.set()
            thread.join(5)


class TestConnectionCap:
    def test_cap_rejects_with_503_and_close(self, serving_core):
        server = serving_core.serve(echo_handler, max_connections=1)
        assert serving_core.client(server).get("/x").status == 200  # the one slot is held
        response = serving_core.client(server).get("/x")
        assert response.status == 503
        assert response.headers.get("Retry-After") == f"{REJECT_RETRY_AFTER:g}"
        assert response.headers.get("Connection") == "close"
        samples = samples_of(server)
        assert samples["http_connections_rejected_total"] == 1
        assert samples["http_connections_open"] == 1

    def test_slot_frees_when_connection_closes(self, serving_core):
        """The cap-at-boundary race: a slot released by a closing
        connection must become usable, never spuriously rejected."""
        server = serving_core.serve(echo_handler, max_connections=1)
        open_gauge = server.metrics.gauge("http_connections_open")
        for _ in range(5):
            client = serving_core.client(server)
            assert client.get("/x").status == 200
            client.close()
            wait_until(lambda: open_gauge.snapshot() == 0)
        assert server.metrics.counter("http_connections_rejected_total").snapshot() == 0


class TestPooledServing:
    def test_pooled_roundtrip_and_worker_state(self, serving_core, pooled):
        seen_states = []

        def exchange(request, state):
            seen_states.append(state)
            return HttpResponse(200, body=b"pooled:" + request.body)

        server, _app, _pool = pooled(exchange, queue_depth=8, worker_state_factory=dict)
        client = serving_core.client(server)
        for i in range(3):
            assert client.post("/work", f"r{i}".encode()).body == f"pooled:r{i}".encode()
        # one worker, one private state object, reused across requests
        assert len(seen_states) == 3
        assert all(state is seen_states[0] for state in seen_states)

    def test_route_and_admin_answer_without_the_pool(self, serving_core, pooled):
        """Routing misses and the admin surface never queue: they are
        answered even while the only worker is wedged."""
        wedge = Wedge()

        def route(request):
            if request.target != "/work":
                return HttpResponse(404, body=b"no such endpoint")
            return None

        server, _app, pool = pooled(wedge, route)
        thread, _box = post_in_background(serving_core.client(server))
        try:
            wait_until(lambda: pool.busy_workers == 1)
            other = serving_core.client(server)
            assert other.get("/nope").status == 404
            assert other.get("/healthz").status == 200
        finally:
            wedge.release.set()
            thread.join(5)
        # accounting: the routed 404 took real time and is observed as
        # such (the aio core used to record 0.0 for it)
        samples = samples_of(server)
        assert samples['http_requests_total{method="GET",status="4xx"}'] == 1
        assert samples['http_request_seconds_count{method="GET"}'] == 2
        assert samples['http_request_seconds_min{method="GET"}'] > 0.0

    def test_pool_full_sheds_503_with_retry_after(self, serving_core, pooled):
        wedge = Wedge()
        server, app, pool = pooled(wedge, retry_after=0.25)
        first, _ = post_in_background(serving_core.client(server))
        try:
            # fill the pool deterministically: the first request wedges
            # the worker, and only then is the second queued
            wait_until(lambda: pool.busy_workers == 1)
            second, _ = post_in_background(serving_core.client(server))
            wait_until(lambda: pool.queue_size == 1)
            response = serving_core.client(server).post("/work", b"overflow")
            assert response.status == 503
            assert response.headers.get("Retry-After") == "0.25"
            assert response.headers.get("Connection") == "keep-alive"
        finally:
            wedge.release.set()
            first.join(5)
            second.join(5)
        # the application is told, with the time the shed really took
        # (the aio core used to report 0.0)
        ((target, seconds),) = app.shed_calls
        assert target == "/work" and seconds > 0.0
        samples = samples_of(server)
        assert samples['http_requests_total{method="POST",status="5xx"}'] == 1
        assert samples["serve_shed_total"] == 1
        assert series_sum(samples, "http_handler_errors_total") == 0

    def test_drain_abandoned_request_is_answered_503_not_500(self, serving_core, pooled):
        """Regression: on the threaded core a queued request the pool's
        drain abandoned fell into the generic handler — 500, counted as a
        handler error, not replayable — where the aio core answered 503 +
        Retry-After + close.  One map-exception stage: 503 on both."""
        wedge = Wedge()
        server, app, pool = pooled(wedge)
        first, _ = post_in_background(serving_core.client(server))
        try:
            wait_until(lambda: pool.busy_workers == 1)
            queued, box = post_in_background(serving_core.client(server))
            wait_until(lambda: pool.queue_size == 1)
            stopper = threading.Thread(target=lambda: pool.stop(0.05), daemon=True)
            stopper.start()
            queued.join(5)
        finally:
            wedge.release.set()
            first.join(5)
            stopper.join(5)
        (response,) = box
        assert response.status == 503
        assert response.headers.get("Retry-After") == f"{REJECT_RETRY_AFTER:g}"
        assert response.headers.get("Connection") == "close"
        assert series_sum(samples_of(server), "http_handler_errors_total") == 0
        assert [target for target, _ in app.shed_calls] == ["/work"]

    def test_worker_exception_becomes_500(self, serving_core, pooled):
        def exchange(request, _state):
            raise RuntimeError("worker exploded")

        server, _app, _pool = pooled(exchange)
        client = serving_core.client(server)
        assert client.post("/work", b"x").status == 500
        assert client.post("/work", b"y").status == 500  # connection survived
        assert server.recent_errors[-1]["detail"] == "worker exploded"
        # the pool still sees a failed task (it counts after completing it)
        failed = server.metrics.counter("serve_completed_total", labels={"status": "error"})
        wait_until(lambda: failed.snapshot() == 2)
        assert samples_of(server)["http_requests_in_flight"] == 0


class TestChunkedTransfer:
    def test_chunked_request_with_trailers(self, serving_core):
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(
                b"POST /x HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"6\r\nhello-\r\n5\r\nworld\r\n0\r\nX-Sum: 42\r\n\r\n"
            )
            data = recv_until(sock, lambda d: d.endswith(b"echo:hello-world"))
            assert data.startswith(b"HTTP/1.1 200")
        finally:
            sock.close()

    def test_chunked_request_from_the_client(self, serving_core):
        response = serving_core.client().post("/echo", body=iter([b"alpha-", b"beta"]))
        assert response.body == b"echo:alpha-beta"

    def test_chunked_then_pipelined_plain_request(self, serving_core):
        """Residue after the terminal chunk is the next request; both
        answers come back, in order."""
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(
                b"POST /a HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\none\r\n0\r\n\r\n"
                b"POST /b HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\ntwo"
            )
            data = recv_until(sock, lambda d: d.endswith(b"echo:two"))
            assert data.index(b"echo:one") < data.index(b"echo:two")
        finally:
            sock.close()

    def test_streamed_response_handler(self, serving_core):
        def streaming_handler(request):
            response = HttpResponse(200)
            response.stream = (b"piece-%d," % i for i in range(8))
            return response

        client = serving_core.client(serving_core.serve(streaming_handler))
        response = client.get("/s")
        assert response.status == 200
        assert (response.headers.get("Transfer-Encoding") or "").lower() == "chunked"
        assert b"".join(response.stream) == b"".join(b"piece-%d," % i for i in range(8))
        # keep-alive survives a fully-consumed streamed response
        assert client.get("/t").status == 200

    def test_streamed_response_producer_failure_is_a_recorded_handler_error(
        self, serving_core
    ):
        """Accounting: the head is on the wire, so the peer only sees a
        truncated body — but the failure must reach the error counter,
        ``recent_errors``//varz *and* the trace (the aio core used to
        bump only the counter)."""

        def failing_stream():
            yield b"first,"
            raise ValueError("producer broke")

        def handler(request):
            response = HttpResponse(200)
            response.stream = failing_stream()
            return response

        with obs.recording() as recorder:
            server = serving_core.serve(handler)
            sock = raw_socket(server)
            try:
                sock.sendall(HttpRequest("GET", "/s").to_bytes())
                data = recv_until(sock, lambda d: False)  # until the server closes
            finally:
                sock.close()
            wait_until(lambda: len(server.recent_errors) == 1)
        assert b"first," in data and not data.endswith(b"0\r\n\r\n")  # truncated
        assert server.recent_errors[-1] == {
            "target": "/s", "method": "GET", "error": "ValueError", "detail": "producer broke",
        }
        samples = samples_of(server)
        assert samples['http_handler_errors_total{type="ValueError"}'] == 1
        events = [e for sp in recorder.spans for e in sp.events] + recorder.orphan_events
        assert [e.name for e in events] == ["http.handler_error"]

    def test_unsupported_transfer_encoding_gets_501_and_close(self, serving_core):
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(b"POST /x HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: deflate\r\n\r\n")
            data = recv_until(sock, lambda d: b"\r\n\r\n" in d)
            assert data.startswith(b"HTTP/1.1 501")
            assert b"Connection: close" in data
            assert sock.recv(65536) == b""  # closed after flushing
        finally:
            sock.close()

    def test_te_with_content_length_gets_400(self, serving_core):
        sock = raw_socket(serving_core.server)
        try:
            sock.sendall(
                b"POST /x HTTP/1.1\r\nHost: a\r\n"
                b"Transfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\nabc"
            )
            assert recv_until(sock, lambda d: b"\r\n\r\n" in d).startswith(b"HTTP/1.1 400")
        finally:
            sock.close()


# ----------------------------------------------------------------------
# bulk bodies: one copy in, none out, whatever the segmentation

BULK = random.Random(18).randbytes(3 << 20)


def read_response(sock) -> tuple[bytes, bytes]:
    """One ``Content-Length`` response off a blocking socket: (head, body).

    Reads exactly the response's bytes, so a pipelined next response
    stays in the socket for the next call.
    """
    head = b""
    while not head.endswith(HEADER_END):
        byte = sock.recv(1)
        if not byte:
            return head, b""
        head += byte
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    body = bytearray()
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            break
        body += chunk
    return head, bytes(body)


def send_split(sock, wire: bytes, cuts) -> None:
    """Send ``wire`` as one segment per cut (``TCP_NODELAY``), pausing
    briefly after the early ones so each is its own readable event."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    start = 0
    for n, cut in enumerate([*cuts, len(wire)]):
        sock.sendall(wire[start:cut])
        start = cut
        if n < 12:
            time.sleep(0.002)


def split_plans(wire: bytes) -> dict:
    """Cut points for one request: the odd sizes the framers must survive."""
    head_end = wire.index(HEADER_END) + len(HEADER_END)
    coarse = list(range(head_end + 40, len(wire), (64 << 10) + 1))
    return {
        "1-byte": [*range(1, head_end + 40), *coarse],
        "7-byte": [*range(7, head_end + 40, 7), *coarse],
        "64KiB+1": list(range((64 << 10) + 1, len(wire), (64 << 10) + 1)),
        "inside-head": [head_end // 2],
        "at-head-end": [head_end],
    }


def bulk_echo(request, _state=None):
    return HttpResponse(200, body=b"echo:" + request.body)


@pytest.fixture(params=["inline", "pooled"])
def bulk_server(request, serving_core, pooled):
    """The driver under test serving ``bulk_echo``, pool-less and pooled."""

    def start(exchange=bulk_echo):
        if request.param == "pooled":
            return pooled(exchange, queue_depth=4)[0]
        return serving_core.serve(lambda req: exchange(req, None))

    return start


class TestLargeBodies:
    @pytest.mark.parametrize(
        "plan", ["1-byte", "7-byte", "64KiB+1", "inside-head", "at-head-end"]
    )
    def test_dribbled_body_echoes_byte_identical(self, bulk_server, plan):
        wire = HttpRequest("POST", "/bulk", body=BULK).to_bytes()
        sock = raw_socket(bulk_server())
        try:
            send_split(sock, wire, split_plans(wire)[plan])
            head, body = read_response(sock)
        finally:
            sock.close()
        assert head.startswith(b"HTTP/1.1 200")
        assert body == b"echo:" + BULK

    def test_head_is_parsed_once_however_the_bytes_are_split(self, bulk_server, monkeypatch):
        """Regression: the aio driver re-ran ``parse_request_head`` on every
        readable event until the body was complete (and re-scanned the
        buffer from 0 for the head's end)."""
        from repro.transport import aio
        from repro.transport.http import messages

        parses = []
        real = messages.parse_request_head

        def counting(head):
            parses.append(len(head))
            return real(head)

        monkeypatch.setattr(messages, "parse_request_head", counting)
        monkeypatch.setattr(aio, "parse_request_head", counting)
        wire = HttpRequest("POST", "/bulk", body=BULK).to_bytes()
        sock = raw_socket(bulk_server())
        try:
            for plan in ("7-byte", "64KiB+1"):
                send_split(sock, wire, split_plans(wire)[plan])
                assert read_response(sock)[1] == b"echo:" + BULK
        finally:
            sock.close()
        assert len(parses) == 2  # one per request

    def test_body_is_bytes_and_zero_copy_arrays_are_read_only(self, bulk_server):
        """``request.body`` is the bytes of the landing buffer, read-only, so
        the ``copy=False`` arrays decoded over it cannot be written."""
        seen = {}

        def exchange(request, _state):
            seen["type"] = (type(request.body), request.body.readonly)
            root = BXSAEncoding().decode(request.body).children[0]
            (values,) = [c.values for c in root.children if isinstance(c, ArrayElement)]
            seen["writeable"] = values.flags.writeable
            seen["aliases"] = not values.flags.owndata
            seen["sum"] = float(values.sum())
            return HttpResponse(200, body=b"ok")

        values = np.arange(400_000, dtype="f8")
        payload = BXSAEncoding().encode(DocumentNode([element("d", array("v", values))]))
        wire = HttpRequest("POST", "/bulk", body=payload).to_bytes()
        sock = raw_socket(bulk_server(exchange))
        try:
            send_split(sock, wire, split_plans(wire)["64KiB+1"])
            assert read_response(sock)[1] == b"ok"
        finally:
            sock.close()
        assert seen == {
            "type": (memoryview, True),
            "writeable": False,
            "aliases": True,
            "sum": float(values.sum()),
        }

    def test_a_body_that_came_whole_with_its_head_has_no_array_behind_it(self, serving_core):
        """A 200 B body arrives with its head and owes no read: it is a view
        of one ``bytes`` copy, never a landing buffer; a 1.2 MB body still
        lands in a buffer of its own."""
        owners = []

        def handler(request):
            owners.append(request.body.obj)
            return HttpResponse(200, body=b"echo:" + request.body)

        client = serving_core.client(serving_core.serve(handler))
        small, large = b"s" * 200, BULK[: 1_200_000]
        assert client.post("/x", small).body == b"echo:" + small
        assert client.post("/x", large).body == b"echo:" + large
        assert [type(owner) for owner in owners] == [bytes, np.ndarray]

    def test_small_request_behind_a_large_ones_tail_is_answered_second(self, bulk_server):
        """The sized body read stops at the body's end: a pipelined request
        sharing the last segment is not swallowed."""
        large = HttpRequest("POST", "/bulk", body=BULK).to_bytes()
        small = HttpRequest("POST", "/bulk", body=b"after").to_bytes()
        sock = raw_socket(bulk_server())
        try:
            sock.sendall(large[:-100])
            time.sleep(0.02)
            sock.sendall(large[-100:] + small)
            assert read_response(sock)[1] == b"echo:" + BULK
            assert read_response(sock)[1] == b"echo:after"
        finally:
            sock.close()

    def test_peer_closing_mid_body_is_closed_unanswered_and_uncounted(self, bulk_server):
        server = bulk_server()
        wire = HttpRequest("POST", "/bulk", body=BULK).to_bytes()
        sock = raw_socket(server)
        try:
            sock.sendall(wire[: len(wire) // 3])
            wait_until(lambda: server.metrics.gauge("http_connections_open").snapshot() == 1)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""  # closed, nothing answered
        finally:
            sock.close()
        wait_until(lambda: server.metrics.gauge("http_connections_open").snapshot() == 0)
        samples = samples_of(server)
        assert series_sum(samples, "http_requests_total") == 0
        assert samples["http_requests_in_flight"] == 0

    def test_large_response_to_a_slow_reader_arrives_byte_identical(self, bulk_server):
        """Partial-write continuation across the queued pieces: a reader
        with a small receive buffer that pauses between reads."""
        server = bulk_server()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before connect
            sock.settimeout(5)
            sock.connect(server.address)
            sock.sendall(HttpRequest("POST", "/bulk", body=BULK).to_bytes())
            received = bytearray()
            for _ in range(40):  # a slow start, then drain
                received += sock.recv(1500)
                time.sleep(0.001)
            head_end = received.index(HEADER_END) + len(HEADER_END)
            total = head_end + len(b"echo:") + len(BULK)
            while len(received) < total:
                chunk = sock.recv(1 << 16)
                assert chunk, "server closed mid-response"
                received += chunk
        finally:
            sock.close()
        assert bytes(received[head_end:]) == b"echo:" + BULK

    def test_request_still_arriving_when_the_drain_begins_is_never_started(self, bulk_server):
        """The drain answers what is with the pipeline and starts nothing:
        a pipelined request whose body completes only after ``stop()`` is
        dropped, and its connection closes once the earlier response has
        left.  (Whether that response survives the close is TCP's call —
        a close over unread input resets — so only its prefix is pinned.)"""
        calls = []
        reply = b"r" * (8 << 20)  # more than the kernel will buffer for a reader that is not reading

        def exchange(request, _state):
            calls.append(len(request.body))
            return HttpResponse(200, body=reply)

        server = bulk_server(exchange)
        first = HttpRequest("POST", "/bulk", body=b"first").to_bytes()
        second = HttpRequest("POST", "/bulk", body=BULK[: 200 << 10]).to_bytes()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stopper = threading.Thread(target=server.stop, kwargs={"drain_timeout": 5}, daemon=True)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before connect
            sock.settimeout(5)
            sock.connect(server.address)
            sock.sendall(first + second[:-100])
            received = bytearray(sock.recv(1500))  # the first answer is on its way out
            time.sleep(0.05)  # and the second request's head has been seen
            stopper.start()
            wait_until(lambda: not server._running)
            time.sleep(0.05)  # the loop has begun its drain
            sock.sendall(second[-100:])
            try:
                while chunk := sock.recv(1 << 16):
                    received += chunk
            except ConnectionResetError:
                pass
            stopper.join(5)
        finally:
            sock.close()
        assert not stopper.is_alive()
        assert calls == [len(b"first")]
        head_end = received.index(HEADER_END) + len(HEADER_END)
        assert received.startswith(b"HTTP/1.1 200") and reply.startswith(received[head_end:])
        assert series_sum(samples_of(server), "http_requests_total") == 1

    @pytest.mark.parametrize("declared", [10**15, 2**63, 2**64 + 5])
    def test_hostile_content_length_never_sizes_an_allocation(
        self, bulk_server, monkeypatch, declared
    ):
        """Regression: the threaded driver's connection thread died with an
        uncaught MemoryError / OverflowError (``recv(remaining)``); a loop
        that read by declared size would have taken every connection with
        it.  Reads are capped: what the connection holds is what it has
        received plus at most one read buffer of the ceiling's size (the
        blocking driver parks in ``recv`` holding one, untouched)."""
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        server = bulk_server()
        sent = 256 << 10
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sock = raw_socket(server)
            try:
                sock.sendall(
                    b"POST /bulk HTTP/1.1\r\nHost: a\r\nContent-Length: %d\r\n\r\n" % declared
                    + BULK[:sent]
                )
                time.sleep(0.05)  # let the driver read what was sent
                other = HttpClient(lambda: connect_tcp(*server.address))
                try:
                    assert other.get("/healthz").status == 200
                finally:
                    other.close()
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                sock.close()
        finally:
            tracemalloc.stop()
        assert died == []
        assert held < sent + MAX_READ_BYTES + (1 << 20)
        wait_until(lambda: server.metrics.gauge("http_connections_open").snapshot() == 0)
        assert series_sum(samples_of(server), "http_requests_total") == 1  # the /healthz


    def test_a_body_past_the_read_ceiling_arrives_byte_identical(self, serving_core):
        """17 MiB each way: both the server's and the client's landing
        outgrow the 16 MiB buffer a declared length may size."""
        payload = random.Random(24).randbytes(MAX_READ_BYTES + (1 << 20))
        server = serving_core.serve(lambda request: HttpResponse(200, body=request.body))
        response = serving_core.client(server).post("/bulk", payload)
        assert response.status == 200 and len(response.body) == len(payload)
        assert response.body == payload

    def test_arrays_of_request_n_outlive_request_n_plus_one(self, serving_core):
        """The ``copy=False`` aliasing contract across exchanges: a landing
        buffer is never recycled, and lives exactly as long as a view of it."""
        kept, buffers = [], []

        def keep(request):
            root = BXSAEncoding().decode(request.body).children[0]
            kept.append([c.values for c in root.children if isinstance(c, ArrayElement)][0])
            buffers.append(weakref.ref(request.body.obj))
            return HttpResponse(200, body=b"kept")

        client = serving_core.client(serving_core.serve(keep))
        sent = [np.arange(n, n + 150_000, dtype="f8") for n in (0, 7)]
        for values in sent:  # one keep-alive connection, one landing each
            payload = BXSAEncoding().encode(DocumentNode([element("d", array("v", values))]))
            assert client.post("/bulk", payload).body == b"kept"
        for values, decoded in zip(sent, kept):
            assert not decoded.flags.writeable and not decoded.flags.owndata
            np.testing.assert_array_equal(decoded, values)
        first, second = (buffer() for buffer in buffers)
        assert first is not None and second is not None and first is not second
        del decoded, first, second
        kept.clear()  # the last arrays die: so do the buffers, the connection still open
        wait_until(lambda: gc.collect() is not None and buffers[0]() is buffers[1]() is None)
        assert client.get("/healthz").status == 200


#: A host in a process of its own, so ``VmRSS`` is the host's: it announces
#: its address, then answers each line on stdin with its resident KiB.
RESIDENCY_CHILD = """
import sys
from repro.services.echo import echo_dispatcher
from repro.transport.sockets import TcpListener

listener = TcpListener("127.0.0.1", 0)
if sys.argv[1] == "tcp":
    from repro.core.service import SoapTcpService
    service = SoapTcpService(listener, echo_dispatcher())
else:
    from repro.serve import ServeConfig, SoapServeService
    service = SoapServeService(
        listener, echo_dispatcher(), config=ServeConfig(workers=2, core=sys.argv[1])
    )
service.start()
print("ADDR %s %d" % listener.address, flush=True)
for _ in sys.stdin:
    with open("/proc/self/status", encoding="ascii") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmRSS:")), flush=True)
service.stop()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's procfs")
@pytest.mark.parametrize("host", ["aio", "threaded", "tcp"])
def test_a_declared_length_sizes_no_resident_memory(host):
    """The hostile-length property, about residency: a peer declares
    16 MiB, sends 4 KiB and stalls.  The landing buffer is allocated but
    not touched, so the host's resident memory tracks the bytes received,
    and every other connection is answered."""
    echo = SoapEnvelope.wrap(element("Echo", leaf("n", 1, "int")))
    child = subprocess.Popen(
        [sys.executable, "-c", RESIDENCY_CHILD, host],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
    )
    try:
        _, name, port = child.stdout.readline().split()
        address = (name, int(port))

        def resident_kib() -> int:
            child.stdin.write("rss\n")
            child.stdin.flush()
            return int(child.stdout.readline())

        def answers() -> bool:
            client = (SoapTcpClient if host == "tcp" else SoapHttpClient)(
                lambda: connect_tcp(*address)
            )
            try:
                return client.call(echo).body_root.name.local == "EchoResponse"
            finally:
                client.close()

        assert answers() and answers()  # what a first connection costs is not the peer's
        before = resident_kib()
        hostile = socket.create_connection(address, timeout=5)
        try:
            if host == "tcp":
                head = b"\xb5\x0a\x10application/bxsa" + (16 << 20).to_bytes(4, "big")
            else:
                head = (
                    b"POST /soap HTTP/1.1\r\nHost: a\r\nContent-Type: application/bxsa\r\n"
                    b"Content-Length: %d\r\n\r\n" % (16 << 20)
                )
            hostile.sendall(head + bytes(4096))
            time.sleep(0.2)  # let the host read what was sent, and park
            grown = resident_kib() - before
            assert answers()
        finally:
            hostile.close()
        assert grown < 1024, f"{grown} KiB resident for 4 KiB received"
    finally:
        child.stdin.close()
        child.wait(10)
        child.stdout.close()


# ----------------------------------------------------------------------
# the SOAP host on both cores, and the pieces that have no core


def _soap_dispatcher(started: threading.Event, release: threading.Event) -> Dispatcher:
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request):
        return element("EchoResponse", *request.body_root.children)

    @d.operation("Block")
    def block(request):
        started.set()
        release.wait(10)
        return element("BlockResponse")

    return d


def _soap_post(address, envelope: SoapEnvelope):
    client = HttpClient(lambda: connect_tcp(*address))
    try:
        return client.post(
            "/soap",
            XMLEncoding().encode(envelope.to_document()),
            headers={"Content-Type": XMLEncoding().content_type},
        )
    finally:
        client.close()


@pytest.mark.parametrize("core", sorted(DRIVERS))
def test_soap_shed_is_red_counted_with_its_real_latency(core):
    """Accounting: a shed lands in the RED family with the time it took
    (the aio core used to record 0.0)."""
    started, release = threading.Event(), threading.Event()
    listener = TcpListener()
    service = SoapServeService(
        listener,
        _soap_dispatcher(started, release),
        config=ServeConfig(core=core, workers=1, queue_depth=1, retry_after=0.35),
    ).start()
    block = SoapEnvelope.wrap(element("Block"))
    echo = SoapEnvelope.wrap(element("Echo", leaf("n", 1, "int")))
    threads = [threading.Thread(target=_soap_post, args=(listener.address, block), daemon=True)]
    try:
        threads[0].start()
        assert started.wait(5)
        threads.append(
            threading.Thread(target=_soap_post, args=(listener.address, echo), daemon=True)
        )
        threads[1].start()
        wait_until(lambda: service.pool.queue_size == 1)
        response = _soap_post(listener.address, echo)
        assert response.status == 503
        assert response.headers.get("Retry-After") == "0.35"
    finally:
        release.set()
        for thread in threads:
            thread.join(5)
        service.stop()
    samples = parse_prometheus(render_prometheus(service.metrics))
    shed = {k: v for k, v in samples.items() if 'operation="?"' in k}
    (counted,) = [v for k, v in shed.items() if k.startswith("soap_requests_total")]
    (fastest,) = [v for k, v in shed.items() if k.startswith("soap_request_seconds_min")]
    assert (counted, 'status="shed"' in "".join(shed)) == (1, True)
    assert fastest > 0.0


@pytest.mark.parametrize("core", sorted(DRIVERS))
def test_soap_bulk_reply_gathered_from_the_codec_is_the_one_piece_wire(core):
    """The host hands a warm bulk reply to the driver as the codec's pieces
    (array payloads by reference); the client must see exactly the bytes a
    joined encode would have framed, ``Content-Length`` and all."""
    started, release = threading.Event(), threading.Event()
    listener = TcpListener()
    service = SoapServeService(
        listener, _soap_dispatcher(started, release), config=ServeConfig(core=core, workers=1)
    ).start()
    client = HttpClient(lambda: connect_tcp(*listener.address))
    policy = BXSAEncoding(session=False)
    try:
        for seed in range(3):  # the worker's session: cold, then warm twice
            payload = element(
                "d",
                array("i", np.arange(seed, seed + 50_000, dtype=np.int32)),
                array("v", np.arange(seed, seed + 50_000, dtype=np.float64)),
            )
            request = SoapEnvelope.wrap(element("Echo", payload))
            reply = SoapEnvelope.wrap(element("EchoResponse", payload))
            response = client.post(
                "/soap",
                policy.encode(request.to_document()),
                headers={"Content-Type": policy.content_type},
            )
            assert response.status == 200
            assert response.headers.get("Content-Length") == str(len(response.body))
            assert response.body == policy.encode(reply.to_document())
    finally:
        client.close()
        service.stop()


def test_run_outwaited_by_its_task_answers_503_and_settles_once():
    """``run`` is ``begin`` plus a *bounded* wait: past ``result_timeout``
    the caller gets the replayable 503, and the late completion finds the
    exchange already settled — one response, one count."""
    wedge = Wedge()
    app = PipelineApp(wedge)
    with WorkerPool(workers=1, queue_depth=1) as pool:
        pipeline = RequestPipeline(app, pool=pool, result_timeout=0.05)
        response = pipeline.run(HttpRequest("POST", "/work"))
        wedge.release.set()
        wait_until(lambda: pool.busy_workers == 0)
    assert response.status == 503 and response.headers.get("Connection") == "close"
    samples = parse_prometheus(render_prometheus(pipeline.metrics))
    assert series_sum(samples, "http_requests_total") == 1
    assert samples["http_requests_in_flight"] == 0
    assert len(app.shed_calls) == 1


def test_soap_tcp_service_stop_closes_accepted_channels_and_joins():
    """Regression: ``SoapTcpService.stop()`` burned its 5 s accept join on
    real TCP and left the channels it had accepted, and their threads,
    alive after the service was gone."""
    from repro.core import SoapTcpClient

    started, release = threading.Event(), threading.Event()
    listener = TcpListener()
    service = SoapTcpService(
        listener, _soap_dispatcher(started, release), name="tcp-stop"
    ).start()
    client = SoapTcpClient(lambda: connect_tcp(*listener.address))
    try:
        reply = client.call(SoapEnvelope.wrap(element("Echo", leaf("n", 1, "int"))))
        assert reply.body_root.name.local == "EchoResponse"
        assert [t for t in threading.enumerate() if t.name == "tcp-stop-conn"]
        began = time.monotonic()
        service.stop()  # the client connection is still open
        assert time.monotonic() - began < 1.0
        assert not [t for t in threading.enumerate() if t.name.startswith("tcp-stop")]
    finally:
        client.close()
