"""Threaded HTTP/1.1 driver over any listener: one thread per connection.

The threads are a :class:`~repro.transport.host.ConnectionHost`'s — accept
thread, one thread per connection, the cap, drain and join; this module
supplies what happens on a connection: it frames requests, hands each to
the :class:`~repro.transport.http.pipeline.RequestPipeline` (its blocking
``run`` — this driver has a thread to park) and writes the answer, until
the client stops keeping the connection alive.  What a request *means* —
admin surface, routing, admission, tracing, error mapping, metrics — is
the pipeline's.  It is the only driver that serves in-memory listeners
(the harness), and the only one whose inline handler may stream a chunked
request body; the connection thread drains what it leaves unread.

Concurrency is bounded: at most ``max_connections`` connection threads
exist at once (default :data:`DEFAULT_MAX_CONNECTIONS`); a connection
past the cap is answered ``503`` + ``Retry-After`` from the accept loop
and closed — never a silent drop, never an unbounded thread spawn.

Shutdown drains by the host's stop rule; a request in flight when it
begins is answered ``Connection: close``, so a stopped server leaves no
request half-written and no thread behind.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.transport.base import BufferedChannel, Listener, TransportError
from repro.transport.host import ConnectionHost, OneShot
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


class DriverBase(OneShot):
    """What the two I/O drivers share: constructor contract and lifecycle.

    ``handler`` is a ready :class:`RequestPipeline` (carrying its own name,
    registry, admin surface and readiness probe) or a bare handler /
    application object, wrapped in one built from the driver's kwargs.
    A driver is one-shot (:class:`~repro.transport.host.OneShot`):
    subclasses provide ``_launch()`` — stamp the pipeline's ``started_at``,
    start the serving thread — and ``stop()``.
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
        # bound once: every accept and close updates them.  A refusal's
        # counter is looked up when one happens, so /metrics lists it
        # only after the first
        self._connections_open = self.metrics.gauge("http_connections_open")
        self._connections_total = self.metrics.counter("http_connections_total")
        self.recent_errors = handler.recent_errors
        self._drain_timeout = drain_timeout
        self._max_connections = max_connections


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
        readiness: Callable[[], tuple[bool, dict]] | None = None,
    ) -> None:
        super().__init__(
            listener, handler, name, metrics, admin, readiness, drain_timeout, max_connections
        )
        self._host = ConnectionHost(
            listener,
            self._serve_connection,
            name=name,
            drain_timeout=drain_timeout,
            max_connections=max_connections,
            refuse=self._refuse_connection,
        )

    # the host's connection bookkeeping, read by the lifecycle tests
    _conn_threads = property(lambda self: self._host._conn_threads)
    _conn_channels = property(lambda self: self._host._conn_channels)

    # ------------------------------------------------------------------

    def _launch(self) -> None:
        self._pipeline.started_at = time.monotonic()
        self._host.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Stop accepting, drain connections, join their threads — the
        host's stop rule; ``drain_timeout`` overrides the constructor's
        budget for this stop."""
        self._running = False
        self._stopped = True
        self._host.stop(drain_timeout)

    # ------------------------------------------------------------------

    def _refuse_connection(self, channel: BufferedChannel) -> None:
        """Turn away a connection the host will not serve: 503 + Retry-After."""
        self.metrics.counter("http_connections_rejected_total").add()
        try:
            channel.send_all(connection_limit_response().to_bytes())
        except TransportError:
            pass  # the peer is gone; nothing owed to it

    def _serve_connection(self, channel: BufferedChannel) -> None:
        self._connections_open.inc()
        self._connections_total.add()
        try:
            while self._serve_one(channel):
                pass
        finally:
            self._connections_open.dec()

    def _serve_one(self, channel: BufferedChannel) -> bool:
        """Read, run and answer one request; True keeps the connection.

        Its own frame on purpose: the request, the response and the last
        wire piece die with it, so nothing payload-sized rides along while
        the thread parks in the next read.
        """
        try:
            request = self._host.receive(channel, read_request)
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
            return False  # client went away between requests, or draining
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
            # what an inline handler left of a chunked request body must
            # leave the channel before the next request head is framed
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
