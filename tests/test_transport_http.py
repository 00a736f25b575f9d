"""Unit and integration tests for the from-scratch HTTP stack."""

import threading

import pytest

from repro.obs.exposition import render_prometheus
from repro.serve.pool import WorkerPool
from repro.transport import MemoryNetwork, TcpListener, connect_tcp, memory_pipe
from repro.transport.base import BufferedChannel, recv_into, send_pieces
from repro.transport.http.messages import BodyPieces, drain_stream
from repro.transport.http.pipeline import RequestPipeline
from repro.transport.http import (
    HttpClient,
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    read_request,
    read_response,
)


class TestMessageCodec:
    def test_request_roundtrip(self):
        req = HttpRequest("POST", "/soap")
        req.headers.set("Content-Type", "text/xml")
        req.body = b"<r/>"
        a, b = memory_pipe()
        a.send_all(req.to_bytes())
        parsed = read_request(BufferedChannel(b))
        assert parsed.method == "POST"
        assert parsed.target == "/soap"
        assert parsed.headers.get("content-type") == "text/xml"
        assert parsed.body == b"<r/>"

    def test_response_roundtrip(self):
        resp = HttpResponse(200, body=b"hello")
        a, b = memory_pipe()
        a.send_all(resp.to_bytes())
        parsed = read_response(BufferedChannel(b))
        assert parsed.status == 200
        assert parsed.reason == "OK"
        assert parsed.body == b"hello"

    def test_messages_compare_by_identity(self):
        """No field-wise ``==``: comparing would read a received chunked
        body off its channel, and headers have no equality of their own."""
        response, twin = HttpResponse(200, body=b"x"), HttpResponse(200, body=b"x")
        request, other = HttpRequest("GET", "/"), HttpRequest("GET", "/")
        assert response == response and response != twin
        assert request == request and request != other
        assert len({response, twin, request, other}) == 4  # hashable, by identity
        a, b = memory_pipe()
        a.send_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n")
        received = read_response(BufferedChannel(b))
        assert received != twin and received.stream is not None  # still on the wire
        assert received.body == b"x"

    def test_body_pieces_frame_as_one_length_delimited_body(self):
        """A body kept as its producer's pieces: ``Content-Length`` is the
        sum, ``iter_wire`` yields them unjoined, the peer cannot tell."""
        pieces = [b"head-", memoryview(b"payload"), b"-tail"]
        resp = HttpResponse(200, body=BodyPieces(pieces))
        head, *body = resp.iter_wire()
        assert b"Content-Length: 17" in head
        assert all(sent is piece for sent, piece in zip(body, pieces))
        a, b = memory_pipe()
        for piece in resp.iter_wire():
            a.send_all(piece)
        parsed = read_response(BufferedChannel(b))
        assert parsed.body == b"head-payload-tail" == bytes(resp.body)
        assert type(parsed.body) is memoryview and parsed.body.readonly

    def test_header_case_insensitive(self):
        req = HttpRequest("GET", "/")
        req.headers.set("X-Thing", "1")
        assert req.headers.get("x-thing") == "1"
        req.headers.set("x-THING", "2")
        assert req.headers.get("X-Thing") == "2"
        assert len([k for k, _ in req.headers.items() if k.lower() == "x-thing"]) == 1

    def test_keep_alive_defaults(self):
        assert HttpRequest("GET", "/").keep_alive is True
        req = HttpRequest("GET", "/", version="HTTP/1.0")
        assert req.keep_alive is False
        req2 = HttpRequest("GET", "/")
        req2.headers.set("Connection", "close")
        assert req2.keep_alive is False

    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /\r\n\r\n",  # missing version
            b"GET / HTTP/2.0\r\n\r\n",  # unsupported version
            b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\nG\r\n",
        ],
    )
    def test_malformed_requests_rejected(self, raw):
        a, b = memory_pipe()
        a.send_all(raw)
        a.close()
        with pytest.raises(HttpError):
            read_request(BufferedChannel(b))

    def test_body_requires_full_content_length(self):
        from repro.transport import TransportClosed

        a, b = memory_pipe()
        a.send_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
        a.close()
        with pytest.raises(TransportClosed):
            read_request(BufferedChannel(b))

    def test_conflicting_duplicate_content_length_rejected(self):
        """Repeated Content-Length with differing values is the classic
        request-smuggling shape: two parsers framing the stream
        differently.  Regression: the old parser silently took the first
        value and treated the leftover bytes as the next request."""
        a, b = memory_pipe()
        a.send_all(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhelloXY"
        )
        with pytest.raises(HttpError, match="conflicting Content-Length"):
            read_request(BufferedChannel(b))

    def test_agreeing_duplicate_content_length_collapsed(self):
        """Repeats that agree are recombined (RFC 9110 section 8.6), not
        rejected — proxies in the wild do produce them."""
        a, b = memory_pipe()
        a.send_all(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
        )
        parsed = read_request(BufferedChannel(b))
        assert parsed.body == b"hello"

    def test_conflicting_content_length_in_response_rejected(self):
        a, b = memory_pipe()
        a.send_all(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nokok"
        )
        with pytest.raises(HttpError, match="conflicting Content-Length"):
            read_response(BufferedChannel(b))


def _echo_handler(request: HttpRequest) -> HttpResponse:
    if request.target == "/missing":
        return HttpResponse(404, body=b"not here")
    if request.target == "/boom":
        raise RuntimeError("handler exploded")
    resp = HttpResponse(200, body=request.body or request.target.encode())
    resp.headers.set("Content-Type", request.headers.get("Content-Type") or "text/plain")
    return resp


class TestClientServerOverMemory:
    def setup_method(self):
        self.net = MemoryNetwork()
        self.server = HttpServer(self.net.listen("web"), _echo_handler).start()
        self.client = HttpClient(lambda: self.net.connect("web"))

    def teardown_method(self):
        self.client.close()
        self.server.stop()

    def test_get(self):
        resp = self.client.get("/hello")
        assert resp.ok
        assert resp.body == b"/hello"

    def test_post_echo(self):
        resp = self.client.post("/echo", b"payload bytes")
        assert resp.body == b"payload bytes"

    def test_persistent_connection_reused(self):
        for i in range(5):
            assert self.client.get(f"/r{i}").body == f"/r{i}".encode()

    def test_404(self):
        resp = self.client.get("/missing")
        assert resp.status == 404
        assert not resp.ok

    def test_handler_exception_becomes_500(self):
        resp = self.client.get("/boom")
        assert resp.status == 500
        # the body is deliberately generic: exception detail stays server-side
        assert resp.body == b"internal server error"
        assert b"handler exploded" not in bytes(resp.body)
        assert b"RuntimeError" not in bytes(resp.body)
        # ...where it is still observable
        assert self.server.recent_errors[-1]["detail"] == "handler exploded"
        assert self.server.recent_errors[-1]["error"] == "RuntimeError"

    def test_connection_close_honoured(self):
        resp = self.client.request("GET", "/x", headers={"Connection": "close"})
        assert resp.ok
        # next request transparently reconnects
        assert self.client.get("/y").ok

    def test_concurrent_clients(self):
        errors = []

        def worker(n):
            try:
                client = HttpClient(lambda: self.net.connect("web"))
                for i in range(10):
                    resp = client.post("/w", f"{n}:{i}".encode())
                    assert resp.body == f"{n}:{i}".encode()
                client.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []

    def test_large_body(self):
        body = bytes(range(256)) * 4096  # 1 MiB
        resp = self.client.post("/big", body)
        assert resp.body == body


class TestClientServerOverSockets:
    def test_real_tcp_roundtrip(self):
        listener = TcpListener()
        port = listener.port
        server = HttpServer(listener, _echo_handler).start()
        try:
            client = HttpClient(lambda: connect_tcp("127.0.0.1", port))
            resp = client.post("/sock", b"over real tcp")
            assert resp.body == b"over real tcp"
            client.close()
        finally:
            server.stop()


class TestChunkedTransfer:
    """HTTP/1.1 chunked Transfer-Encoding through the threaded stack."""

    def setup_method(self):
        self.net = MemoryNetwork()

    def _serve(self, handler, **kwargs):
        server = HttpServer(self.net.listen("web"), handler, **kwargs).start()
        client = HttpClient(lambda: self.net.connect("web"))
        return server, client

    def test_chunked_request_buffered_for_plain_handler(self):
        """A chunked body is read whole through ``request.body``, so
        ordinary handlers keep seeing it as one buffer."""
        server, client = self._serve(_echo_handler)
        try:
            resp = client.post("/echo", body=iter([b"alpha-", b"beta-", b"gamma"]))
            assert resp.status == 200
            assert resp.body == b"alpha-beta-gamma"
        finally:
            client.close()
            server.stop()

    def test_streamed_request_and_response_end_to_end(self):
        """Iterable client body, handler reading ``request.stream``, chunked
        response read through ``response.stream``: no side ever holds the
        message whole, and keep-alive survives."""
        seen = []

        def handler(request):
            total = 0
            for piece in request.stream if request.stream is not None else ():
                total += len(piece)
            seen.append((dict(request.trailers.items()) if request.trailers else {}, total))
            response = HttpResponse(200)
            response.stream = (b"out-%d" % i for i in range(4))
            return response

        server, client = self._serve(handler)
        try:
            resp = client.request(
                "POST",
                "/up",
                body=iter([b"x" * 7000 for _ in range(10)]),
                trailers={"X-Checksum": "abc"},
            )
            assert resp.status == 200
            assert b"".join(resp.stream) == b"out-0out-1out-2out-3"
            # the connection is reusable afterwards: framing stayed exact
            assert client.get("/again").status == 200
        finally:
            client.close()
            server.stop()
        assert seen[0] == ({"X-Checksum": "abc"}, 70000)

    def test_unread_streamed_body_is_drained_for_keep_alive(self):
        """A streaming handler that ignores the request body must not
        poison the connection: the server drains the rest itself."""

        def handler(request):
            return HttpResponse(204)

        server, client = self._serve(handler)
        try:
            first = client.post("/ignored", body=iter([b"y" * 5000] * 4))
            assert first.status == 204
            # a second exchange frames correctly only if the unread
            # chunked body left the channel before this request's head
            assert client.get("/next").status == 204
        finally:
            client.close()
            server.stop()

    def test_unsupported_transfer_encoding_gets_501_and_close(self):
        server, _client = self._serve(_echo_handler)
        try:
            channel = BufferedChannel(self.net.connect("web"))
            channel.send_all(
                b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n"
            )
            response = read_response(channel)
            assert response.status == 501
            assert (response.headers.get("Connection") or "").lower() == "close"
        finally:
            server.stop()

    def test_te_with_content_length_gets_400(self):
        server, _client = self._serve(_echo_handler)
        try:
            channel = BufferedChannel(self.net.connect("web"))
            channel.send_all(
                b"POST / HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n"
            )
            assert read_response(channel).status == 400
        finally:
            server.stop()

    def test_chunked_pipelining_residue_preserved(self):
        """Bytes past the terminal chunk belong to the next request; the
        reader must push them back, not swallow them."""
        server, _client = self._serve(_echo_handler)
        try:
            channel = BufferedChannel(self.net.connect("web"))
            channel.send_all(
                b"POST /one HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
                b"POST /two HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi"
            )
            assert read_response(channel).body == b"hello"
            assert read_response(channel).body == b"hi"
        finally:
            server.stop()

    def test_chunked_response_streams_to_the_caller_as_it_arrives(self):
        """The framing decides: a chunked response is ``response.stream``
        with no flag, and its first piece is the caller's before the
        producer makes the second."""
        first_read = threading.Event()

        def pieces():
            yield b"first,"
            assert first_read.wait(5), "the client waited for the whole body"
            yield b"second"

        def handler(request):
            response = HttpResponse(200)
            response.stream = pieces()
            return response

        server, client = self._serve(handler)
        try:
            response = client.get("/s")
            stream = iter(response.stream)
            head = b""
            while head != b"first,":
                head += next(stream)
            first_read.set()
            assert b"".join(stream) == b"second"
            assert client.get("/t").status == 200
        finally:
            first_read.set()
            client.close()
            server.stop()

    def test_an_unread_chunked_response_is_drained_before_the_next_request(self):
        def handler(request):
            response = HttpResponse(200, body=b"plain:" + request.target.encode())
            if request.target == "/s":
                response.stream = (b"piece-%d," % i for i in range(64))
            return response

        server, client = self._serve(handler)
        try:
            assert client.get("/s").stream is not None  # left unread
            assert client.get("/t").body == b"plain:/t"
            assert bytes(client.get("/s").body).startswith(b"piece-0,piece-1,")
            assert client.get("/u").body == b"plain:/u"
            # every request rode the one connection
            assert server.metrics.counter("http_connections_total").snapshot() == 1
        finally:
            client.close()
            server.stop()

    def test_an_unread_chunked_close_response_drops_its_connection_first(self):
        def handler(request):
            response = HttpResponse(200, body=b"plain")
            if request.target == "/s":
                response.stream = iter([b"a" * 5000] * 8)
                response.headers.set("Connection", "close")
            return response

        server, client = self._serve(handler)
        try:
            assert client.get("/s").stream is not None  # left unread
            assert client.get("/t").body == b"plain"
            assert server.metrics.counter("http_connections_total").snapshot() == 2
        finally:
            client.close()
            server.stop()

    def test_body_pieces_leave_by_reference_in_one_gathered_send(self):
        """A caller's ``BodyPieces`` is a declared-length body: head and the
        caller's own pieces go to one ``send_pieces``, never joined."""
        pieces = [b"head-", memoryview(b"payload" * 40), bytearray(b"-tail")]
        sends = []

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def send_pieces(self, wire):
                sends.append(("send_pieces", list(wire)))
                send_pieces(self.inner, wire)

            def send_all(self, data):
                sends.append(("send_all", data))
                self.inner.send_all(data)

            def recv(self, max_bytes=65536):
                return self.inner.recv(max_bytes)

            def recv_into(self, view):
                return recv_into(self.inner, view)

            def close(self):
                self.inner.close()

        server = HttpServer(self.net.listen("web"), _echo_handler).start()
        client = HttpClient(lambda: Recording(self.net.connect("web")))
        try:
            response = client.post("/echo", BodyPieces(pieces))
            assert response.body == b"".join(pieces)
        finally:
            client.close()
            server.stop()
        [(kind, wire)] = sends
        assert kind == "send_pieces"
        head, *body = wire
        assert b"Content-Length: 290" in head and b"chunked" not in head
        assert len(body) == 3 and all(sent is piece for sent, piece in zip(body, pieces))

    def test_a_pooled_worker_never_reads_a_chunked_request_off_the_wire(self, monkeypatch):
        """A pool worker never waits on a peer: the admit stage reads a
        chunked body whole, on the connection thread, before it queues."""
        readers = []
        real_recv = BufferedChannel.recv

        def spying_recv(self, max_bytes=65536):
            readers.append(threading.current_thread().name)
            return real_recv(self, max_bytes)

        monkeypatch.setattr(BufferedChannel, "recv", spying_recv)
        seen = []

        def handler(request):
            seen.append((threading.current_thread().name, request.stream))
            return HttpResponse(200, body=request.body)

        pool = WorkerPool(workers=2, queue_depth=4, name="pooled").start()
        server = HttpServer(
            self.net.listen("web"), RequestPipeline(handler, pool=pool)
        ).start()
        client = HttpClient(lambda: self.net.connect("web"))
        try:
            for _ in range(3):
                response = client.post("/up", body=iter([b"x" * 7000] * 10))
                assert response.body == b"x" * 70000
        finally:
            client.close()
            server.stop()
            pool.stop()
        assert [name.startswith("pooled-worker-") for name, _ in seen] == [True] * 3
        assert all(stream is None for _, stream in seen)  # landed before it queued
        assert readers and not [name for name in readers if name.startswith("pooled-worker-")]

    def test_a_received_chunked_body_is_read_once_one_way(self):
        a, b = memory_pipe()
        wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\none\r\n0\r\n\r\n"
        a.send_all(wire * 2)
        channel = BufferedChannel(b)
        streamed = read_request(channel)
        assert list(streamed.stream) == [b"one"]
        with pytest.raises(HttpError, match="as a stream"):
            streamed.body
        whole = read_request(channel)
        assert whole.body == b"one" and whole.stream is None

    def test_a_chunked_body_that_failed_to_read_fails_again(self):
        a, b = memory_pipe()
        a.send_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n")
        request = read_request(BufferedChannel(b))
        with pytest.raises(HttpError, match="bad chunk size"):
            request.body
        with pytest.raises(HttpError, match="framing is lost"):
            drain_stream(request)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_a_malformed_chunked_request_gets_400_and_close(self, pooled):
        """Whether the handler or the admit stage meets the bad chunk, the
        body boundary is lost: 400, ``Connection: close``, and closed."""
        pool = WorkerPool(workers=1, queue_depth=2).start() if pooled else None
        handler = RequestPipeline(_echo_handler, pool=pool) if pooled else _echo_handler
        server = HttpServer(self.net.listen("web"), handler).start()
        try:
            channel = BufferedChannel(self.net.connect("web"))
            channel.send_all(
                b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
            )
            response = read_response(channel)
            assert response.status == 400 and b"bad chunk size" in bytes(response.body)
            assert response.headers.get("Connection") == "close"
            assert channel.recv(65536) == b""
            channel.close()
        finally:
            server.stop()
            if pool is not None:
                pool.stop()

    def test_a_peer_gone_mid_chunked_body_is_not_a_handler_error(self):
        """The admit stage reads the body on the connection thread; a peer
        that breaks off mid-body is the client's failure, as on the loop."""
        import time

        pool = WorkerPool(workers=1, queue_depth=2).start()
        server = HttpServer(
            self.net.listen("web"), RequestPipeline(_echo_handler, pool=pool)
        ).start()
        try:
            channel = BufferedChannel(self.net.connect("web"))
            channel.send_all(
                b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"
            )
            channel.close()
            gauge = server.metrics.gauge("http_connections_open")
            deadline = time.monotonic() + 5
            while server.metrics.counter("http_connections_total").snapshot() < 1 or (
                gauge.snapshot() > 0
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            server.stop()
            pool.stop()
        assert not server.recent_errors
        assert "http_handler_errors_total" not in render_prometheus(server.metrics)
