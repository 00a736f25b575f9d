"""Event-driven HTTP/1.1 driver: one selector loop, thousands of
keep-alive connections.

The threaded :class:`~repro.transport.http.server.HttpServer` spends one
thread per connection; past a few hundred mostly-idle keep-alive
connections the interpreter pays for stacks and context switches that do
no work.  This module replaces *only* the I/O discipline:

* **Event loop for I/O** — a single daemon thread owns a
  :mod:`selectors` loop that accepts non-blockingly, frames HTTP/1.1
  requests incrementally (shared grammar:
  :func:`~repro.transport.http.messages.parse_request_head` +
  :func:`~repro.transport.http.messages.declared_body_length`), and
  writes responses with partial-write continuation.  An idle keep-alive
  connection costs one registered file descriptor and a small buffer —
  not a thread.
* **The pipeline for everything else** — a complete request goes to
  :meth:`RequestPipeline.begin
  <repro.transport.http.pipeline.RequestPipeline.begin>`; its callback
  delivers the response directly when it fires on the loop thread
  (admin, routed, inline or shed requests) and through a completion
  queue plus a wakeup socketpair when it fires on a pool worker.  The
  loop thread never blocks on a result.

:class:`AsyncHttpServer` takes the same constructor arguments as
``HttpServer`` and differs only in needing a socket-backed listener; what
a request means — admin surface, admission, shedding, error mapping,
metrics — is the pipeline's, identically on both drivers.

``tools/lint.py`` confines ``selectors`` usage to this module and to the
ladder client that measures it (:mod:`repro.loadgen.ladder`), the same way
it confines thread spawning to the pool.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.serve.pool import after_task
from repro.transport.base import HEAD_READ_BYTES, Landing, TransportError, drop_sent
from repro.transport.http.messages import (
    HEADER_END,
    ChunkedDecoder,
    HttpError,
    HttpRequest,
    HttpResponse,
    _parse_headers,
    body_framing,
    chunk_pieces,
    declared_body_length,
    error_response,
    last_chunk,
    parse_request_head,
)
from repro.transport.http.pipeline import RequestPipeline, connection_limit_response
from repro.transport.http.server import DEFAULT_MAX_CONNECTIONS, DriverBase
from repro.transport.sockets import MAX_SEND_PIECES

#: Ceiling on a request head (start line + headers); matches the 1 MiB
#: ``recv_until`` cap of the blocking server's BufferedChannel.
MAX_HEAD_BYTES = 1 << 20

#: Pause reading a connection whose input buffer holds this much
#: unprocessed pipelined data while a request is already in flight.
MAX_PIPELINE_BYTES = 1 << 20

_ACCEPT = "accept"
_WAKEUP = "wakeup"


class _Body:
    """A ``Content-Length`` body in flight: head parsed, bytes still owed.

    Received by the one :class:`~repro.transport.base.Landing`, the way
    the blocking driver's reads are: in place, at most what is owed.
    """

    __slots__ = ("head", "landing")

    def __init__(self, head: tuple, landing: Landing) -> None:
        self.head = head  # (method, target, version, headers)
        self.landing = landing

    def request(self) -> HttpRequest:
        method, target, version, headers = self.head
        return HttpRequest(method, target, headers, self.landing.body(), version)


class _Conn:
    """Per-connection state owned exclusively by the loop thread."""

    __slots__ = (
        "sock",
        "fd",
        "inbuf",
        "scan",
        "body",
        "outbuf",
        "events",
        "busy",
        "close_after_flush",
        "peer_eof",
        "closed",
        "chunked",
        "body_iter",
        "body_trailers",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.scan = 0  # inbuf offset the search for the head's end resumes at
        self.body: _Body | None = None  # mid-flight length-framed request
        # wire pieces not yet written, in order; the front one becomes a
        # memoryview when a write stops inside it.  A list, not a deque:
        # an idle connection must cost no more than the empty bytearray
        # this replaced, and a response is a handful of pieces
        self.outbuf: list = []
        self.events = 0  # selector interest; 0 means not registered
        self.busy = False  # a request is with the pipeline
        self.close_after_flush = False
        self.peer_eof = False
        self.closed = False
        # mid-flight chunked request (head parsed, body incomplete):
        # ``(head, ChunkedDecoder, decoded parts)``
        self.chunked: tuple | None = None
        # streamed response being written: pull-on-drain body producer
        self.body_iter = None
        self.body_trailers = None


class AsyncHttpServer(DriverBase):
    """Serve ``handler`` over a selector loop instead of per-conn threads.

    Requires a socket-backed listener (one exposing ``raw_socket``, e.g.
    :class:`~repro.transport.sockets.TcpListener`) — in-memory pipes have
    no file descriptor to select on.

    A bare handler (or a pipeline without a pool) is answered inline on
    the loop thread — fine for admin sidecars and trivial handlers.  A
    :class:`~repro.transport.http.pipeline.RequestPipeline` built with a
    ``pool`` runs its exchanges on the workers; admin targets and routed
    requests are still answered on the loop, so they work even when the
    pool is saturated.
    """

    def __init__(
        self,
        listener,
        handler: Callable[[HttpRequest], HttpResponse] | RequestPipeline,
        *,
        name: str = "aio-server",
        metrics: MetricsRegistry | None = None,
        admin: bool = True,
        drain_timeout: float = 5.0,
        max_connections: int | None = DEFAULT_MAX_CONNECTIONS,
        readiness: Callable[[], tuple[bool, dict]] | None = None,
    ) -> None:
        raw = getattr(listener, "raw_socket", None)
        if raw is None:
            raise TransportError(
                "AsyncHttpServer needs a socket-backed listener exposing "
                "raw_socket (e.g. TcpListener); in-memory pipes have no "
                "file descriptor to select on"
            )
        super().__init__(
            listener, handler, name, metrics, admin, readiness, drain_timeout, max_connections
        )
        self._lsock: socket.socket = raw
        self._sel: selectors.BaseSelector | None = None
        self._thread: threading.Thread | None = None
        self._conns: dict[int, _Conn] = {}
        # completion hand-off: worker threads append here and poke the
        # wakeup socket; only the loop thread pops
        self._done: deque = deque()
        self._waker_r: socket.socket | None = None
        self._waker_w: socket.socket | None = None
        self._draining = False
        self._drain_deadline = 0.0
        self._force_close = False
        self._in_flight = 0  # requests with the pipeline; loop thread only
        self._reject_payload = connection_limit_response().to_bytes()

    # ------------------------------------------------------------------
    # lifecycle

    def _launch(self) -> None:
        self._pipeline.started_at = time.monotonic()
        self._lsock.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._lsock, selectors.EVENT_READ, _ACCEPT)
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        self._sel.register(self._waker_r, selectors.EVENT_READ, _WAKEUP)
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Stop accepting, drain in-flight requests, close every connection.

        The loop closes the listener, lets requests already with the
        pipeline finish (writing their responses) within the drain budget,
        closes idle connections immediately, and force-closes whatever
        remains when the budget expires.
        """
        if not self._running:
            self._stopped = True
            return
        self._running = False
        self._stopped = True
        budget = drain_timeout if drain_timeout is not None else self._drain_timeout
        self._drain_deadline = time.monotonic() + budget
        self._wake()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=budget + 2.0)
            if thread.is_alive():  # pragma: no cover - defensive
                self._force_close = True
                self._wake()
                thread.join(timeout=2.0)
        self._thread = None

    # ------------------------------------------------------------------
    # the loop

    def _wake(self) -> None:
        waker = self._waker_w
        if waker is None:
            return
        try:
            waker.send(b"\x01")
        except (BlockingIOError, OSError):
            pass  # a full pipe already guarantees a pending wakeup

    def _run(self) -> None:
        sel = self._sel
        assert sel is not None
        # loop health on /metrics: how long one iteration of event
        # processing runs without touching the selector (scheduling delay
        # any ready connection eats), and how much work each wakeup found
        loop_lag = self.metrics.gauge("aio_loop_lag_seconds")
        ready_depth = self.metrics.gauge("aio_ready_queue_depth")
        busy_start = time.perf_counter()
        try:
            while True:
                self._drain_completions()
                if not self._running and not self._draining:
                    self._begin_drain()
                if self._force_close:
                    return
                if self._draining:
                    if not self._conns and self._in_flight == 0:
                        return
                    remaining = self._drain_deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    timeout = min(0.05, remaining)
                else:
                    timeout = 0.5
                loop_lag.set(time.perf_counter() - busy_start)
                events = sel.select(timeout)
                busy_start = time.perf_counter()
                ready_depth.set(len(events) + len(self._done))
                for key, mask in events:
                    data = key.data
                    if data is _ACCEPT:
                        self._on_accept()
                    elif data is _WAKEUP:
                        self._drain_wakeup()
                    else:
                        conn = data
                        if conn.closed:
                            continue
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._flush(conn)
        finally:
            self._teardown()

    def _begin_drain(self) -> None:
        self._draining = True
        sel = self._sel
        try:
            sel.unregister(self._lsock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._listener.close()
        except (TransportError, OSError):
            pass
        # idle connections owe nothing; close them now
        for conn in list(self._conns.values()):
            if conn.body is not None:
                # a request still arriving is never started: its bytes now
                # fall to ``_advance``, which parses nothing while draining
                conn.body = None
                conn.close_after_flush = True
            if not conn.busy and not conn.outbuf and conn.body_iter is None:
                self._close_conn(conn)

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        sel = self._sel
        if sel is not None:
            try:
                sel.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for waker in (self._waker_r, self._waker_w):
            if waker is not None:
                try:
                    waker.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        self._waker_r = self._waker_w = None

    def _drain_wakeup(self) -> None:
        waker = self._waker_r
        if waker is None:
            return
        while True:
            try:
                if not waker.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - defensive
                return

    # ------------------------------------------------------------------
    # accept / read / write

    def _on_accept(self) -> None:
        while True:
            try:
                sock, _peer = self._lsock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # not a TCP socket (e.g. AF_UNIX); fine
            if (
                self._max_connections is not None
                and len(self._conns) >= self._max_connections
            ):
                self._reject(sock)
                continue
            conn = _Conn(sock)
            self._conns[conn.fd] = conn
            self._connections_open.inc()
            self._connections_total.add()
            self._sel.register(sock, selectors.EVENT_READ, conn)
            conn.events = selectors.EVENT_READ

    def _reject(self, sock: socket.socket) -> None:
        """503 + Retry-After from the loop itself — same contract as the
        threaded accept loop's cap rejection."""
        self.metrics.counter("http_connections_rejected_total").add()
        try:
            sock.send(self._reject_payload)
        except OSError:
            pass  # the peer is gone; nothing owed to it
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def _on_readable(self, conn: _Conn) -> None:
        body = conn.body
        try:
            # a declared body lands in place, by what it still owes; the
            # peer's claim sizes neither a read nor resident memory
            if body is None:
                data = conn.sock.recv(HEAD_READ_BYTES)
            else:
                data = body.landing.fill(conn.sock)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            conn.peer_eof = True
            if not conn.busy and not conn.outbuf and conn.body_iter is None:
                self._close_conn(conn)
            else:
                self._update_interest(conn)
            return
        if body is None:
            conn.inbuf += data
        elif body.landing.missing:
            return
        else:
            conn.body = None
            self._dispatch(conn, body.request())
        self._advance(conn)

    def _advance(self, conn: _Conn) -> None:
        """Parse as many complete requests out of ``inbuf`` as the
        one-in-flight discipline allows, dispatching each.

        A streamed response still being written (``body_iter``) blocks
        dispatch the same way ``busy`` does — a pipelined response
        serialized into ``outbuf`` mid-stream would interleave with the
        chunks being pulled.  A head is parsed exactly once, however its
        bytes were split: a request whose body is still owed leaves
        ``inbuf`` for ``conn.body`` (or ``conn.chunked``) with its head.
        """
        inbuf = conn.inbuf
        while not conn.busy and not conn.closed and conn.body_iter is None:
            if self._draining:
                if not conn.outbuf:
                    self._close_conn(conn)
                    return
                break
            if conn.chunked is not None:
                if not self._advance_chunked(conn):
                    break
                continue
            idx = inbuf.find(HEADER_END, conn.scan)
            if idx < 0:
                if len(inbuf) > MAX_HEAD_BYTES:
                    self._abort(conn, HttpError("request head exceeds 1 MiB"))
                    return
                # resume where this search stopped: a head dribbled a byte
                # at a time costs O(n), not O(n^2)
                conn.scan = max(0, len(inbuf) - len(HEADER_END) + 1)
                break
            conn.scan = 0
            try:
                head = parse_request_head(bytes(inbuf[:idx]))
                mode, length = body_framing(head[3])
            except HttpError as exc:
                self._abort(conn, exc)
                return
            start = idx + len(HEADER_END)
            if mode == "chunked":
                # head consumed; the body is framed incrementally by the
                # one ChunkedDecoder (messages.py owns the grammar)
                del inbuf[:start]
                conn.chunked = (head, ChunkedDecoder(), [])
                continue
            # what came with the head is the body's first bytes
            with memoryview(inbuf) as arrived:
                body = _Body(head, Landing(length, arrived[start : start + length]))
            del inbuf[: start + length]
            if body.landing.missing:
                conn.body = body
                break
            self._dispatch(conn, body.request())
        self._update_interest(conn)

    def _advance_chunked(self, conn: _Conn) -> bool:
        """Feed buffered bytes into the in-flight chunked body.

        Returns True when the request completed and was dispatched,
        False when more bytes are needed (or the connection died).
        """
        (method, target, version, headers), chunker, parts = conn.chunked
        data = bytes(conn.inbuf)
        conn.inbuf.clear()
        try:
            parts += chunker.feed(data)
        except HttpError as exc:
            self._abort(conn, exc)
            return False
        if not chunker.done:
            return False
        conn.inbuf += chunker.residue  # pipelined next request
        # no declared length to land into: the body is the view of its join
        request = HttpRequest(method, target, headers, memoryview(b"".join(parts)), version)
        request.trailers = chunker.trailers
        conn.chunked = None
        self._dispatch(conn, request)
        return True

    def _abort(self, conn: _Conn, exc: HttpError) -> None:
        """Unserviceable framing: answer ``exc.status`` (400 malformed,
        501 unsupported transfer coding) and close once it is flushed."""
        conn.inbuf.clear()
        conn.scan = 0
        conn.chunked = None
        conn.close_after_flush = True
        conn.outbuf.append(error_response(exc, close=True).to_bytes())
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        out = conn.outbuf
        while True:
            if not out and conn.body_iter is not None:
                self._pull_body(conn)
                if conn.closed:
                    return
            if not out:
                break
            try:
                if len(out) == 1:
                    sent = conn.sock.send(out[0])
                else:
                    sent = conn.sock.sendmsg(out[:MAX_SEND_PIECES])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent <= 0:  # pragma: no cover - defensive
                break
            drop_sent(out, sent)
        if not out and conn.body_iter is None and (
            conn.close_after_flush or (conn.peer_eof and not conn.busy)
        ):
            self._close_conn(conn)
            return
        self._update_interest(conn)

    def _pull_body(self, conn: _Conn) -> None:
        """Refill ``outbuf`` from the streamed response body.

        Pull-on-drain: the producer is asked for its next piece only when
        the already-queued bytes have left (or at least entered the
        socket buffer), so a slow client holds back the producer instead
        of ballooning ``outbuf`` with the whole message.  A piece is
        queued by reference between its size line and its CRLF.
        """
        try:
            while not conn.outbuf:
                piece = next(conn.body_iter, None)
                if piece is None:
                    conn.outbuf.append(last_chunk(conn.body_trailers))
                    conn.body_iter = None
                    conn.body_trailers = None
                    return
                conn.outbuf += chunk_pieces(piece)
        except Exception:  # noqa: BLE001 - producer failed mid-body (the
            # pipeline has recorded it); the head is on the wire, so no
            # error status can be sent — the truncated chunked body marks
            # the message bad for the peer
            self._close_conn(conn)

    def _update_interest(self, conn: _Conn) -> None:
        if conn.closed:
            return
        desired = 0
        if not conn.peer_eof and len(conn.inbuf) < MAX_PIPELINE_BYTES:
            desired |= selectors.EVENT_READ
        if conn.outbuf or conn.body_iter is not None:
            desired |= selectors.EVENT_WRITE
        if desired == conn.events:
            return
        sel = self._sel
        try:
            if not desired:
                sel.unregister(conn.sock)
            elif conn.events:
                sel.modify(conn.sock, desired, conn)
            else:
                sel.register(conn.sock, desired, conn)
        except (KeyError, ValueError, OSError):  # pragma: no cover - defensive
            self._close_conn(conn)
            return
        conn.events = desired

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.events:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
            conn.events = 0
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self._conns.pop(conn.fd, None) is not None:
            self._connections_open.dec()

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, conn: _Conn, request: HttpRequest) -> None:
        conn.busy = True
        self._in_flight += 1
        # the answer needs this one bit of the request, not the request:
        # whatever waits for a response (the pool's queue item, the
        # completion hand-off) must not keep the request body alive
        keep_alive = request.keep_alive
        self._pipeline.begin(
            request, lambda response: self._on_answer(conn, keep_alive, response)
        )

    def _on_answer(self, conn: _Conn, keep_alive: bool, response: HttpResponse) -> None:
        """The pipeline's callback: deliver here, or hand off to the loop.

        It fires on the loop thread (inside :meth:`_dispatch`) for a
        request answered without the pool, and on a worker otherwise —
        a worker only queues the answer and pokes the loop.
        """
        if threading.current_thread() is self._thread:
            self._deliver(conn, keep_alive, response)
        else:
            self._done.append((conn, keep_alive, response))
            # poked once the worker holds nothing of the exchange: the loop
            # could otherwise send this reply, land the next request and
            # hold a third payload before the worker's frames unwind
            after_task(self._wake)

    def _drain_completions(self) -> None:
        while True:
            try:
                conn, keep_alive, response = self._done.popleft()
            except IndexError:
                return
            self._deliver(conn, keep_alive, response)
            if not conn.closed and not conn.busy:
                self._advance(conn)  # a pipelined request may be buffered

    def _deliver(self, conn: _Conn, keep_alive: bool, response: HttpResponse) -> None:
        self._in_flight -= 1
        conn.busy = False
        if not conn.closed:
            self._enqueue_response(conn, keep_alive, response)

    def _enqueue_response(
        self, conn: _Conn, keep_alive: bool, response: HttpResponse
    ) -> None:
        keep = (
            keep_alive
            and not self._draining
            and (response.headers.get("Connection") or "").lower() != "close"
        )
        response.headers.set("Connection", "keep-alive" if keep else "close")
        if not keep:
            conn.close_after_flush = True
        if response.stream is not None:
            # head now, body pulled chunk-by-chunk as the socket drains —
            # the client sees first bytes before the producer finishes
            conn.outbuf.append(response.head_bytes())
            conn.body_iter = iter(response.stream)
            conn.body_trailers = response.trailers
        else:
            # head and body by reference: nothing joins or copies a
            # payload between the codec and the socket
            conn.outbuf += response.iter_wire()
        self._flush(conn)

    @property
    def open_connections(self) -> int:
        return len(self._conns)
