"""Threaded HTTP/1.1 driver over any listener: one thread per connection.

One thread accepts; one thread per connection frames requests, hands each
to the :class:`~repro.transport.http.pipeline.RequestPipeline` (its
blocking ``run`` — this driver has a thread to park) and writes the
answer, until the client stops keeping the connection alive.  What a
request *means* — admin surface, routing, admission, tracing, error
mapping, metrics — is the pipeline's; this module owns sockets, framing,
scheduling and drain.  It is the only driver that serves in-memory
listeners (the harness).

Concurrency is bounded: at most ``max_connections`` connection threads
exist at once (default :data:`DEFAULT_MAX_CONNECTIONS`); a connection
past the cap is answered ``503`` + ``Retry-After`` from the accept loop
and closed — never a silent drop, never an unbounded thread spawn.

Shutdown drains: ``stop()`` shuts the listener (waking the accept thread
at once), closes connections idle between requests, lets in-flight
requests finish — answered ``Connection: close`` — within the drain
budget (``drain_timeout``, overridable per ``stop()`` call), force-closes
what lingers past it and joins the threads, so a stopped server leaves no
request half-written and no thread behind.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.transport.base import BufferedChannel, Listener, TransportError, prime_allocator
from repro.transport.http.messages import (
    HttpError,
    HttpRequest,
    HttpResponse,
    drain_stream,
    error_response,
    read_request,
)
from repro.transport.http.pipeline import (
    ADMIN_TARGETS,
    RequestPipeline,
    connection_limit_response,
)

#: Default ceiling on concurrent connection threads.  The seed spawned one
#: thread per connection without bound — a connection flood grew threads
#: until the interpreter fell over.  Past the cap a new connection gets a
#: clean ``503`` + ``Retry-After`` and is closed, never a silent drop.
DEFAULT_MAX_CONNECTIONS = 256


class DriverBase:
    """What the two I/O drivers share: constructor contract and lifecycle.

    ``handler`` is a ready :class:`RequestPipeline` (carrying its own name,
    registry, admin surface and readiness probe) or a bare handler /
    application object, wrapped in one built from the driver's kwargs.
    A driver is one-shot: ``stop()`` closes the listener, so a restart
    would silently reuse stale connection bookkeeping on a dead socket —
    starting after a stop raises instead of limping.  Subclasses provide
    ``_launch()`` (start the serving thread) and ``stop()``.
    """

    def __init__(
        self, listener, handler, name, metrics, admin, readiness, drain_timeout, max_connections
    ) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 (or None for no cap)")
        self._listener = listener
        if not isinstance(handler, RequestPipeline):
            handler = RequestPipeline(
                handler, name=name, metrics=metrics, admin=admin, readiness=readiness
            )
        self._pipeline = handler
        self._name = name
        self.metrics = handler.metrics
        self.recent_errors = handler.recent_errors
        self._drain_timeout = drain_timeout
        self._max_connections = max_connections
        self._running = False
        self._stopped = False

    def start(self):
        """Start serving in a daemon thread; returns self."""
        if self._running:
            raise RuntimeError("server already running")
        if self._stopped:
            raise RuntimeError(
                "server cannot be restarted: stop() closed its listener; "
                f"create a new {type(self).__name__} on a fresh listener instead"
            )
        self._running = True
        self._pipeline.started_at = time.monotonic()
        # process-wide, once: keeps glibc from trimming the heap after
        # every bulk exchange (see prime_allocator for what it costs)
        prime_allocator()
        self._launch()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class HttpServer(DriverBase):
    """Serve ``handler`` over every connection accepted from ``listener``."""

    def __init__(
        self,
        listener: Listener,
        handler: Callable[[HttpRequest], HttpResponse] | RequestPipeline,
        *,
        name: str = "http-server",
        metrics: MetricsRegistry | None = None,
        admin: bool = True,
        drain_timeout: float = 5.0,
        max_connections: int | None = DEFAULT_MAX_CONNECTIONS,
        stream_bodies: bool = False,
        readiness: Callable[[], tuple[bool, dict]] | None = None,
    ) -> None:
        super().__init__(
            listener, handler, name, metrics, admin, readiness, drain_timeout, max_connections
        )
        #: With ``stream_bodies`` request bodies are not buffered: the
        #: handler receives ``request.stream`` yielding pieces off the
        #: wire as the client sends them — required to process a message
        #: larger than memory.  The connection thread drains whatever the
        #: handler leaves unread, preserving keep-alive framing.
        self._stream_bodies = stream_bodies
        self._accept_thread: threading.Thread | None = None
        # connection bookkeeping: threads are joined on stop(); channels
        # parked between requests (``_idle``) are closed as the drain
        # begins, the rest force-closed if the drain timeout expires first
        self._conn_lock = threading.Lock()
        self._conn_threads: list[threading.Thread] = []
        self._conn_channels: dict[int, BufferedChannel] = {}
        self._idle: dict[int, BufferedChannel] = {}

    # ------------------------------------------------------------------

    def _launch(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=self._name, daemon=True
        )
        self._accept_thread.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Stop accepting, drain connections, join their threads.

        ``drain_timeout`` overrides the constructor's drain budget for
        this stop — embedders (and tests) shutting down under load can
        bound how long they will wait for in-flight requests before the
        lingering channels are force-closed.
        """
        self._running = False
        self._stopped = True
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        budget = drain_timeout if drain_timeout is not None else self._drain_timeout
        deadline = time.monotonic() + budget
        with self._conn_lock:
            threads = list(self._conn_threads)
            idle = list(self._idle.values())
        # idle connections owe nothing: closing them fails their parked
        # reads now, so the drain budget is spent only on in-flight requests
        self._close_channels(idle)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        # past the drain budget: force-close what is still open so blocked
        # reads fail and their threads exit (daemonic either way, but a
        # clean join keeps tests and embedders deterministic)
        with self._conn_lock:
            lingering = list(self._conn_channels.values())
        self._close_channels(lingering)
        # closed channels fail the blocked reads almost immediately, so a
        # single shared budget suffices — never a per-thread wait, which
        # would make stop() O(connections) under load
        final_deadline = time.monotonic() + 1.0
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=max(0.0, final_deadline - time.monotonic()))

    @staticmethod
    def _close_channels(channels) -> None:
        for channel in channels:
            try:
                channel.close()
            except TransportError:
                pass  # peer already torn down; cleanup is complete

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                channel = self._listener.accept()
            except TransportError:
                return  # listener closed
            buffered = BufferedChannel(channel)
            with self._conn_lock:
                # prune finished threads so a long-lived server's list
                # does not grow with every connection it ever served
                self._conn_threads = [t for t in self._conn_threads if t.is_alive()]
                at_cap = (
                    self._max_connections is not None
                    and len(self._conn_channels) >= self._max_connections
                )
                if not at_cap:
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(buffered,),
                        name=f"{self._name}-conn",
                        daemon=True,
                    )
                    self._conn_threads.append(thread)
                    self._conn_channels[id(buffered)] = buffered
            if at_cap:
                self._reject_connection(buffered)
                continue
            try:
                thread.start()
            except Exception:  # noqa: BLE001 - thread spawn can fail under
                # resource pressure; the channel must not keep its slot
                with self._conn_lock:
                    self._conn_channels.pop(id(buffered), None)
                    if thread in self._conn_threads:
                        self._conn_threads.remove(thread)
                self.metrics.counter("http_connections_rejected_total").add()
                self._close_channels([buffered])

    def _reject_connection(self, channel: BufferedChannel) -> None:
        """Turn away a connection past the cap: 503 + Retry-After, close.

        The rejection is written from the accept loop itself — no thread
        is spawned for a connection we will not serve.
        """
        self.metrics.counter("http_connections_rejected_total").add()
        try:
            channel.send_all(connection_limit_response().to_bytes())
        except TransportError:
            pass  # the peer is gone; nothing owed to it
        finally:
            self._close_channels([channel])

    def _serve_connection(self, channel: BufferedChannel) -> None:
        m = self.metrics
        open_gauge = m.gauge("http_connections_open")
        open_gauge.inc()
        m.counter("http_connections_total").add()
        key = id(channel)
        try:
            while self._serve_one(channel, key):
                pass
        finally:
            open_gauge.dec()
            with self._conn_lock:
                self._conn_channels.pop(key, None)
            self._close_channels([channel])

    def _serve_one(self, channel: BufferedChannel, key: int) -> bool:
        """Read, run and answer one request; True keeps the connection.

        Its own frame on purpose: the request, the response and the last
        wire piece die with it, so nothing payload-sized rides along while
        the thread parks in the next read.
        """
        with self._conn_lock:
            if not self._running:
                return False  # draining: never park a read stop() must break
            self._idle[key] = channel
        try:
            request = read_request(channel, stream_body=self._stream_bodies)
        except HttpError as exc:
            # framing the server understands enough to refuse — an
            # unsupported Transfer-Encoding earns its 501 (and bad framing
            # its 400) before the connection closes, instead of a silent
            # reset the client cannot act on
            try:
                channel.send_all(error_response(exc, close=True).to_bytes())
            except TransportError:
                pass
            return False  # body boundary unknown: never reuse
        except TransportError:
            return False  # client went away between requests
        finally:
            with self._conn_lock:
                self._idle.pop(key, None)
        response = self._pipeline.run(request)
        keep = (
            request.keep_alive
            and self._running
            and (response.headers.get("Connection") or "").lower() != "close"
        )
        response.headers.set("Connection", "keep-alive" if keep else "close")
        try:
            # piece-by-piece: a streamed response's first bytes go out
            # before its producer has generated the rest
            for piece in response.iter_wire():
                channel.send_all(piece)
            # a streaming handler may not have read the whole request
            # body; the rest must leave the channel before the next
            # request head can be framed
            drain_stream(request)
        except TransportError:
            return False  # client went away mid-response
        except Exception:  # noqa: BLE001 - a streaming body producer
            # failing mid-write cannot be turned into an error status (the
            # head is on the wire; the pipeline has recorded the failure);
            # the truncated chunked body tells the peer the message is bad
            return False
        return keep


def make_admin_server(
    listener: Listener, metrics: MetricsRegistry, *, name: str = "admin"
) -> HttpServer:
    """A server that answers *only* the admin endpoints.

    For hosts whose traffic does not ride HTTP (the SOAP/TCP service, the
    GridFTP server) but that still want a ``/metrics``·``/healthz``
    sidecar exposing their registry.
    """
    body = ("admin surface only: " + " ".join(ADMIN_TARGETS)).encode()

    def not_found(_request: HttpRequest) -> HttpResponse:
        return HttpResponse(404, body=body)

    return HttpServer(listener, not_found, name=name, metrics=metrics, admin=True)
