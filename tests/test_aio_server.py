"""Tests for the event-driven serving core (`repro.transport.aio`).

The selector loop owns accept, framing and writes; the worker pool owns
execution.  These tests pin the seams: keep-alive sequencing, the admin
surface, shedding (pool-full and connection-cap), drain, the one-shot
lifecycle, and the incremental parser rejecting exactly what the
blocking parser rejects.
"""

import socket
import threading
import time

import pytest

from repro.loadgen import drive_connections
from repro.obs import render_prometheus
from repro.serve.pool import WorkerPool
from repro.transport import MemoryNetwork, TcpListener, connect_tcp
from repro.transport.aio import AsyncHttpServer
from repro.transport.base import TransportError
from repro.transport.http import HttpClient, HttpRequest, HttpResponse
from repro.transport.http.pipeline import RequestPipeline
from tests.conftest import PipelineApp


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


def _echo_handler(request: HttpRequest) -> HttpResponse:
    if request.target == "/boom":
        raise RuntimeError("handler exploded")
    return HttpResponse(200, body=b"echo:" + request.body)


def _pooled_server(listener, pool, exchange, route=None):
    app = PipelineApp(exchange, route)
    return AsyncHttpServer(listener, RequestPipeline(app, pool=pool)), app


def _http_client(listener: TcpListener) -> HttpClient:
    host, port = listener.address
    return HttpClient(lambda: connect_tcp(host, port))


class TestInlineServing:
    def setup_method(self):
        self.listener = TcpListener(backlog=64)
        self.server = AsyncHttpServer(self.listener, _echo_handler).start()

    def teardown_method(self):
        self.server.stop()

    def test_keep_alive_request_sequence(self):
        client = _http_client(self.listener)
        try:
            for i in range(5):
                response = client.post("/x", f"ping-{i}".encode())
                assert response.status == 200
                assert response.body == f"echo:ping-{i}".encode()
        finally:
            client.close()
        # all five rode one connection
        assert self.server.metrics.counter("http_connections_total").snapshot() == 1

    def test_a_small_request_costs_the_loop_one_wake_up(self, monkeypatch):
        """Settled (ROADMAP): a client that sends a small request's head and
        body as two segments costs the server a second wake-up per request.
        The client gathers both into one ``sendmsg``; each request is one
        readable event."""
        wakeups = []
        on_readable = AsyncHttpServer._on_readable

        def counting(server, conn):
            wakeups.append(conn.fd)
            on_readable(server, conn)

        monkeypatch.setattr(AsyncHttpServer, "_on_readable", counting)
        client = _http_client(self.listener)
        try:
            for i in range(5):
                assert client.post("/x", b"x" * 200).body == b"echo:" + b"x" * 200
            assert len(wakeups) == 5
        finally:
            client.close()

    def test_a_head_read_takes_little_of_the_body_behind_it(self, monkeypatch):
        """The selector loop's counterpart of ``BufferedChannel.recv_until``:
        a read while no body is owed is sized for a head, so what it takes
        past the head — the landing's first bytes — is under 4 KiB (a
        64 KiB read took ~64 KiB of a bulk body; DESIGN.md §10)."""
        from repro.transport import aio

        firsts = []

        class Recorded(aio.Landing):
            __slots__ = ()

            def __init__(self, declared, first=b""):
                firsts.append(len(first))
                super().__init__(declared, first)

        monkeypatch.setattr(aio, "Landing", Recorded)
        body = b"x" * (1 << 20)
        client = _http_client(self.listener)
        try:
            assert client.post("/x", body).body == b"echo:" + body
        finally:
            client.close()
        assert len(firsts) == 1 and 0 < firsts[0] < 4096, firsts

    def test_admin_surface_answers_inline(self):
        client = _http_client(self.listener)
        try:
            assert client.post("/x", b"warm").status == 200
            metrics = client.get("/metrics")
            assert metrics.status == 200
            assert b"http_requests_total" in bytes(metrics.body)
            health = client.get("/healthz")
            assert health.status == 200
            assert b'"status": "ok"' in bytes(health.body)
            varz = client.get("/varz")
            assert varz.status == 200
        finally:
            client.close()

    def test_handler_exception_becomes_500_and_connection_survives(self):
        client = _http_client(self.listener)
        try:
            response = client.get("/boom")
            assert response.status == 500
            assert response.body == b"internal server error"
            assert client.post("/x", b"after").status == 200  # same connection
        finally:
            client.close()
        assert len(self.server.recent_errors) == 1

    def test_malformed_head_gets_400_and_close(self):
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            sock.sendall(b"GARBAGE\r\n\r\n")
            data = sock.recv(65536)
            assert data.startswith(b"HTTP/1.1 400")
            assert b"Connection: close" in data
            assert sock.recv(65536) == b""  # server closed after flushing
        finally:
            sock.close()

    def test_conflicting_content_length_gets_400(self):
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            sock.sendall(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello"
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 400")
        finally:
            sock.close()

    def test_pipelined_requests_answered_in_order(self):
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            burst = b"".join(
                HttpRequest("POST", "/x", body=f"p{i}".encode()).to_bytes()
                for i in range(3)
            )
            sock.sendall(burst)
            data = b""
            deadline = time.monotonic() + 5
            while data.count(b"HTTP/1.1 200") < 3 and time.monotonic() < deadline:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            bodies = [data.index(f"echo:p{i}".encode()) for i in range(3)]
            assert bodies == sorted(bodies)
        finally:
            sock.close()


class TestLifecycle:
    def test_restart_raises(self):
        listener = TcpListener()
        server = AsyncHttpServer(listener, _echo_handler).start()
        server.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            server.start()

    def test_stop_before_start_then_start_raises(self):
        server = AsyncHttpServer(TcpListener(), _echo_handler)
        server.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            server.start()

    def test_memory_listener_rejected_with_clear_error(self):
        net = MemoryNetwork()
        with pytest.raises(TransportError, match="socket-backed"):
            AsyncHttpServer(net.listen("web"), _echo_handler)

    def test_stop_closes_every_connection(self):
        listener = TcpListener()
        server = AsyncHttpServer(listener, _echo_handler).start()
        socks = [socket.create_connection(listener.address, timeout=5) for _ in range(4)]
        try:
            wait_until(lambda: server.open_connections == 4)
            server.stop()
            assert server.open_connections == 0
            for sock in socks:
                sock.settimeout(5)
                assert sock.recv(16) == b""  # peer closed
        finally:
            for sock in socks:
                sock.close()


class TestConnectionCap:
    def test_cap_rejects_with_503_and_close(self):
        listener = TcpListener()
        server = AsyncHttpServer(listener, _echo_handler, max_connections=1).start()
        keeper = _http_client(listener)
        try:
            assert keeper.get("/x").status == 200  # the one slot is held
            extra = _http_client(listener)
            try:
                response = extra.get("/x")
                assert response.status == 503
                assert response.headers.get("Retry-After") is not None
                assert response.headers.get("Connection") == "close"
            finally:
                extra.close()
            samples = render_prometheus(server.metrics)
            assert "http_connections_rejected_total 1" in samples
        finally:
            keeper.close()
            server.stop()

    def test_slot_frees_when_connection_closes(self):
        """The cap-at-boundary race: a slot released by a closing
        connection must become usable, never spuriously rejected."""
        listener = TcpListener()
        server = AsyncHttpServer(listener, _echo_handler, max_connections=1).start()
        try:
            for _ in range(5):
                client = _http_client(listener)
                try:
                    assert client.get("/x").status == 200
                finally:
                    client.close()
                wait_until(lambda: server.open_connections == 0)
            assert (
                server.metrics.counter("http_connections_rejected_total").snapshot()
                == 0
            )
        finally:
            server.stop()


class TestPooledServing:
    def test_pooled_roundtrip_and_worker_state(self):
        seen_states = []

        def pool_handler(request, state):
            seen_states.append(state)
            return HttpResponse(200, body=b"pooled:" + request.body)

        listener = TcpListener()
        with WorkerPool(workers=1, queue_depth=8, worker_state_factory=dict) as pool:
            server = _pooled_server(listener, pool, pool_handler)[0].start()
            client = _http_client(listener)
            try:
                for i in range(3):
                    response = client.post("/work", f"r{i}".encode())
                    assert response.status == 200
                    assert response.body == f"pooled:r{i}".encode()
            finally:
                client.close()
                server.stop()
        # one worker, one private state object, reused across requests
        assert len(seen_states) == 3
        assert all(state is seen_states[0] for state in seen_states)

    def test_admin_stays_inline_when_pool_is_wedged(self):
        release = threading.Event()

        def wedged(request, _state):
            release.wait(10)
            return HttpResponse(200, body=b"late")

        listener = TcpListener()
        pool = WorkerPool(workers=1, queue_depth=1)
        pool.start()
        server = _pooled_server(listener, pool, wedged)[0].start()
        blocked = _http_client(listener)
        thread = threading.Thread(
            target=lambda: blocked.post("/work", b"x"), daemon=True
        )
        thread.start()
        try:
            wait_until(lambda: pool.busy_workers == 1)
            admin = _http_client(listener)
            try:
                assert admin.get("/healthz").status == 200  # inline, no pool
            finally:
                admin.close()
        finally:
            release.set()
            thread.join(5)
            blocked.close()
            server.stop()
            pool.stop()

    def test_pool_full_sheds_503_with_retry_after_and_on_shed(self):
        release = threading.Event()

        def wedged(request, _state):
            release.wait(10)
            return HttpResponse(200, body=b"late")

        listener = TcpListener()
        pool = WorkerPool(workers=1, queue_depth=1, retry_after=0.25)
        pool.start()
        server, app = _pooled_server(listener, pool, wedged)
        server.start()
        clients = [_http_client(listener) for _ in range(2)]
        threads = []
        try:
            # fill the pool deterministically: first request wedges the
            # worker, and only then is the second queued — a concurrent
            # pair could race the worker's dequeue and shed early
            first = threading.Thread(
                target=lambda: clients[0].post("/work", b"x"), daemon=True
            )
            threads.append(first)
            first.start()
            wait_until(lambda: pool.busy_workers == 1)
            second = threading.Thread(
                target=lambda: clients[1].post("/work", b"x"), daemon=True
            )
            threads.append(second)
            second.start()
            wait_until(
                lambda: pool.metrics.gauge("serve_queue_depth").snapshot() == 1
            )
            extra = _http_client(listener)
            try:
                response = extra.post("/work", b"overflow")
                assert response.status == 503
                assert response.headers.get("Retry-After") == "0.25"
            finally:
                extra.close()
            assert [target for target, _ in app.shed_calls] == ["/work"]
        finally:
            release.set()
            for t in threads:
                t.join(5)
            for c in clients:
                c.close()
            server.stop()
            pool.stop()

    def test_inline_router_answers_without_the_pool(self):
        def pool_handler(request, _state):
            return HttpResponse(200, body=b"pooled")

        def router(request):
            if request.target != "/work":
                return HttpResponse(404, body=b"no such endpoint")
            return None

        listener = TcpListener()
        with WorkerPool(workers=1, queue_depth=4) as pool:
            server = _pooled_server(listener, pool, pool_handler, router)[0].start()
            client = _http_client(listener)
            try:
                assert client.get("/nope").status == 404
                assert client.post("/work", b"x").body == b"pooled"
            finally:
                client.close()
                server.stop()

    def test_stop_drains_in_flight_pooled_requests(self):
        entered = threading.Event()

        def slow(request, _state):
            entered.set()
            time.sleep(0.2)
            return HttpResponse(200, body=b"drained")

        listener = TcpListener()
        pool = WorkerPool(workers=1, queue_depth=4)
        pool.start()
        server = _pooled_server(listener, pool, slow)[0].start()
        client = _http_client(listener)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(client.post("/work", b"x").status),
            daemon=True,
        )
        thread.start()
        try:
            assert entered.wait(5)
            server.stop(drain_timeout=5)
            thread.join(5)
            assert results == [200]
        finally:
            client.close()
            pool.stop()


class TestConnectionDriver:
    def test_many_connections_exact_accounting(self):
        listener = TcpListener(backlog=128)
        server = AsyncHttpServer(
            listener, _echo_handler, max_connections=128
        ).start()
        try:
            request_bytes = HttpRequest("POST", "/x", body=b"drive").to_bytes()
            result = drive_connections(
                listener.address,
                request_bytes,
                connections=64,
                requests_per_connection=3,
            )
            assert result.established == 64
            assert result.offered == 192
            assert result.completed == 192
            assert result.shed == 0 and result.failed == 0
            assert result.goodput_rps > 0
            assert len(result.latencies) == 192
        finally:
            server.stop()

    def test_cap_overflow_counts_as_failed_connections(self):
        """Connections the server rejects at its cap fail their whole
        quota (the 503 arrives on a closing connection)."""
        listener = TcpListener(backlog=64)
        server = AsyncHttpServer(listener, _echo_handler, max_connections=8).start()
        try:
            request_bytes = HttpRequest("POST", "/x", body=b"o").to_bytes()
            result = drive_connections(
                listener.address,
                request_bytes,
                connections=16,
                requests_per_connection=2,
            )
            assert result.offered == 32
            assert result.completed + result.shed + result.failed == 32
            assert result.completed >= 16  # the 8 accepted conns all finish
        finally:
            server.stop()

    def test_paced_rate_spreads_requests(self):
        listener = TcpListener(backlog=64)
        server = AsyncHttpServer(listener, _echo_handler, max_connections=64).start()
        try:
            request_bytes = HttpRequest("POST", "/x", body=b"r").to_bytes()
            result = drive_connections(
                listener.address,
                request_bytes,
                connections=8,
                requests_per_connection=2,
                rate=200.0,
            )
            assert result.completed == 16
            # 16 requests at 200/s arrive over >= ~75ms by schedule
            assert result.duration_seconds >= 0.05
        finally:
            server.stop()


class TestChunkedTransfer:
    """Chunked Transfer-Encoding through the event-driven core."""

    def setup_method(self):
        self.listener = TcpListener(backlog=64)
        self.server = AsyncHttpServer(self.listener, _echo_handler).start()

    def teardown_method(self):
        self.server.stop()

    def _recv_response(self, sock) -> bytes:
        data = b""
        while b"\r\n\r\n" not in data:
            data += sock.recv(65536)
        return data

    def test_chunked_request_with_trailers(self):
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            sock.sendall(
                b"POST /x HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"6\r\nhello-\r\n5\r\nworld\r\n0\r\nX-Sum: 42\r\n\r\n"
            )
            data = self._recv_response(sock)
            assert data.startswith(b"HTTP/1.1 200")
            assert b"echo:hello-world" in data
        finally:
            sock.close()

    def test_chunked_then_pipelined_plain_request(self):
        """Residue after the terminal chunk is the next request; the
        selector loop must keep both answers in order."""
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            sock.sendall(
                b"POST /a HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\none\r\n0\r\n\r\n"
                b"POST /b HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\ntwo"
            )
            data = b""
            while data.count(b"HTTP/1.1 200") < 2 or not data.endswith(b"echo:two"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            assert data.index(b"echo:one") < data.index(b"echo:two")
        finally:
            sock.close()

    def test_streamed_response_handler(self):
        def streaming_handler(request):
            response = HttpResponse(200)
            response.stream = (b"piece-%d," % i for i in range(8))
            return response

        listener = TcpListener(backlog=16)
        server = AsyncHttpServer(listener, streaming_handler).start()
        client = _http_client(listener)
        try:
            response = client.get("/s")
            assert response.status == 200
            assert (response.headers.get("Transfer-Encoding") or "").lower() == "chunked"
            body = b"".join(response.stream)
            assert body == b"".join(b"piece-%d," % i for i in range(8))
            # keep-alive survives a fully-consumed streamed response
            assert client.get("/t").status == 200
        finally:
            client.close()
            server.stop()

    def test_unsupported_transfer_encoding_gets_501_and_close(self):
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            sock.sendall(
                b"POST /x HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: deflate\r\n\r\n"
            )
            data = self._recv_response(sock)
            assert data.startswith(b"HTTP/1.1 501")
            assert b"Connection: close" in data
            assert sock.recv(65536) == b""  # closed after flushing
        finally:
            sock.close()

    def test_te_with_content_length_gets_400(self):
        sock = socket.create_connection(self.listener.address, timeout=5)
        try:
            sock.sendall(
                b"POST /x HTTP/1.1\r\nHost: a\r\n"
                b"Transfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\nabc"
            )
            assert self._recv_response(sock).startswith(b"HTTP/1.1 400")
        finally:
            sock.close()
