"""The request pipeline: what serving one HTTP request *means*, written once.

A driver (:class:`~repro.transport.http.server.HttpServer`, a thread per
connection; :class:`~repro.transport.aio.AsyncHttpServer`, one selector
loop) owns sockets, framing, scheduling and drain.  Every decision about
a framed request is a stage here, over one per-request context:

1. **admin-route** — ``/metrics``·``/healthz``·``/readyz``·``/varz``, never
   queued, so the surface answers while the pool is saturated;
2. **app-route** — the application's ``route(request)``: the response to a
   request that needs no exchange (the SOAP host's 404/405), else ``None``;
3. **extract-trace-context** — a malformed or duplicate trace header means
   a fresh root, never an error;
4. **admit** — inline on the calling thread, or ``WorkerPool.submit`` when
   the pipeline has a pool (a chunked body is read first: a worker never
   waits on a peer); a refused admission is the shed;
5. **exchange** — the application's ``exchange(request, worker_state)``
   under the ``http.serve`` root span, on the thread admit chose;
6. **map-exception** — what a stage raised → the status the client sees;
7. **finalize-metrics** — the answered request is counted, once.

:meth:`RequestPipeline.begin` takes a completion callback (a selector loop
must never block on a result); :meth:`RequestPipeline.run` is ``begin``
plus a wait, for a driver with a thread to park.  An *application* is a
plain ``HttpRequest -> HttpResponse`` callable, or an object with
``route`` and ``exchange`` that may also define ``shed(request, seconds)``
to account a request turned away with a 503 (the SOAP host RED-counts it).

``tools/lint.py`` confines the admin targets, the ``http.serve`` span
name, the generic 500 body and ``busy_response`` calls to this module, so
no second copy of a stage can grow back in a driver or a host.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from typing import Callable

from repro import obs
from repro.obs import propagation
from repro.obs.exposition import render_prometheus, render_varz
from repro.obs.metrics import MetricsRegistry
from repro.serve.pool import AdmissionQueueFull, PoolStopped, WorkerPool
from repro.transport.base import TransportError
from repro.transport.http.messages import (
    HttpError,
    HttpRequest,
    HttpResponse,
    busy_response,
    error_response,
)

#: ``/readyz`` is readiness (503 when the embedder's readiness probe —
#: e.g. worker-pool admission-queue occupancy — says "stop routing here"),
#: the signal load balancers gate on; the federation balancer probes it.
READINESS_TARGET = "/readyz"
#: Reserved admin targets (GET only); everything else goes to the
#: application.  ``/healthz`` is liveness: 200 while the process serves.
ADMIN_TARGETS = ("/metrics", "/healthz", READINESS_TARGET, "/varz")

#: ``Retry-After`` hint, seconds, on a refusal that carries no hint of its
#: own: a drain-abandoned request here, a capped-out connection in the
#: drivers' accept paths.
REJECT_RETRY_AFTER = 1.0


def connection_limit_response() -> HttpResponse:
    """What a driver's accept path writes to a connection past its cap: the
    one refusal decided before a request is framed, so never a stage."""
    return busy_response(
        REJECT_RETRY_AFTER, b"connection limit reached, retry later", close=True
    )


class _Exchange:
    """One request's context, handed from stage to stage."""

    __slots__ = ("request", "done", "start", "trace", "settled")

    def __init__(self, request: HttpRequest, done: Callable[[HttpResponse], None]) -> None:
        self.request = request
        self.done = done
        self.start = time.perf_counter()
        self.trace = None
        self.settled = False


class RequestPipeline:
    """Serve ``app`` requests: routing, admission, tracing, errors, metrics."""

    def __init__(
        self,
        app,
        *,
        name: str = "http-server",
        metrics: MetricsRegistry | None = None,
        admin: bool = True,
        readiness: Callable[[], tuple[bool, dict]] | None = None,
        pool: WorkerPool | None = None,
        result_timeout: float = 30.0,
    ) -> None:
        if callable(app):
            self._route = lambda _request: None
            self._exchange = lambda request, _state: app(request)
            self._shed = None
        else:
            self._route = app.route
            self._exchange = app.exchange
            self._shed = getattr(app, "shed", None)
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # bound once, as the pool's are (label names in the sorted order
        # the ``labels={...}`` accessors give them)
        self._in_flight = self.metrics.gauge("http_requests_in_flight")
        self._requests = self.metrics.counter_family("http_requests_total", ("method", "status"))
        self._seconds = self.metrics.histogram_family("http_request_seconds", ("method",))
        self._admin = admin
        #: Optional readiness probe ``() -> (ready, detail)`` behind
        #: ``GET /readyz``; without one the server is always ready.
        self._readiness = readiness
        self._pool = pool
        #: Ceiling on :meth:`run`'s wait for a pooled result, seconds.
        self._result_timeout = result_timeout
        #: Set by the driver's ``start()``; feeds ``uptime_seconds``.
        self.started_at: float | None = None
        #: Most recent handler failures (server-side detail only).
        self.recent_errors: deque[dict] = deque(maxlen=32)
        # a run() whose wait timed out and the late worker both try to
        # settle the same exchange; exactly one may
        self._settle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the two entry points

    def begin(self, request: HttpRequest, done: Callable[[HttpResponse], None]) -> _Exchange:
        """Start serving ``request``; ``done(response)`` fires exactly once.

        ``done`` runs before this returns when the request was answered on
        the calling thread (routed, exchanged inline, shed), and on a pool
        worker otherwise — the caller must not assume which.
        """
        ctx = _Exchange(request, done)
        request.received_at = ctx.start
        self._in_flight.inc()
        try:
            outcome = self._route_admin(request)
            if outcome is None:
                outcome = self._route(request)
            if outcome is None:
                ctx.trace = propagation.extract_headers(request.headers)
                outcome = self._admit(ctx)
        except Exception as exc:  # noqa: BLE001 - server must not die
            outcome = exc
        if outcome is not None:
            self._finalize(ctx, outcome)
        return ctx

    def run(self, request: HttpRequest) -> HttpResponse:
        """Blocking form: :meth:`begin` plus a wait for its callback."""
        answered: queue.SimpleQueue = queue.SimpleQueue()
        ctx = self.begin(request, answered.put)
        try:
            return answered.get(timeout=self._result_timeout)
        except queue.Empty:
            # the wait was shorter than the task; answer "come back
            # later" now and let the late completion find the exchange
            # already settled
            self._finalize(ctx, PoolStopped("timed out waiting for a pooled task's result"))
            return answered.get()

    # ------------------------------------------------------------------
    # stages

    def _admit(self, ctx: _Exchange) -> HttpResponse | None:
        """Run the exchange here, or queue it; ``None`` means queued."""
        if self._pool is None:
            return self._run_exchange(ctx, None)
        try:
            ctx.request.body  # noqa: B018 - reads a chunked body still on the wire
        except TransportError as exc:  # bad framing, a peer gone: not the handler's
            return error_response(HttpError(f"request body unreadable: {exc}"), close=True)
        completion = self._pool.submit(lambda state: self._run_exchange(ctx, state))
        completion.add_done_callback(lambda c: self._settle_pooled(ctx, c))
        return None

    def _run_exchange(self, ctx: _Exchange, state) -> HttpResponse:
        request = ctx.request
        with obs.span(
            "http.serve",
            kind="logical",
            context=ctx.trace,
            method=request.method,
            target=request.target,
        ) as sp, obs.use_context(ctx.trace):
            # a raise leaves the span marked ``error`` and, on a worker,
            # the pool counting the task failed; it is mapped at finalize
            response = self._exchange(request, state)
            sp.set("status", response.status)
        return response

    def _settle_pooled(self, ctx: _Exchange, completion) -> None:
        """A pooled exchange finished (worker thread) or was abandoned."""
        try:
            outcome = completion.result(0)
        except Exception as exc:  # noqa: BLE001 - the exchange's, or PoolStopped
            outcome = exc
        self._finalize(ctx, outcome)

    def _map_exception(self, request: HttpRequest, exc: Exception) -> HttpResponse:
        if isinstance(exc, HttpError):
            # a chunked body still (partly) on the wire cannot be framed past
            return error_response(exc, close=request.stream is not None)
        if isinstance(exc, AdmissionQueueFull):
            retry_after = exc.retry_after if exc.retry_after is not None else REJECT_RETRY_AFTER
            return busy_response(retry_after, b"server overloaded: admission queue full")
        if isinstance(exc, PoolStopped):
            # refused at the door of a stopping pool, abandoned by its
            # drain, or outwaited by run(): all replayable elsewhere, so
            # the hint plus a closed connection, never a 500
            return busy_response(REJECT_RETRY_AFTER, b"server is draining", close=True)
        # the client gets a generic body: internals (exception type,
        # message, paths) are server-side information
        self._record_handler_error(request, exc)
        return HttpResponse(500, body=b"internal server error")

    def _finalize(self, ctx: _Exchange, outcome: HttpResponse | Exception) -> None:
        """Count the answered request once, then hand it to the driver;
        ``outcome`` is the response or what a stage raised instead of one."""
        with self._settle_lock:
            if ctx.settled:
                return
            ctx.settled = True
        request = ctx.request
        response = outcome
        if not isinstance(outcome, HttpResponse):
            response = self._map_exception(request, outcome)
        elapsed = time.perf_counter() - ctx.start
        self._in_flight.dec()
        self._requests.labels(
            method=request.method, status=f"{response.status // 100}xx"
        ).add()
        self._seconds.labels(method=request.method).observe(elapsed)
        if self._shed is not None and isinstance(outcome, (AdmissionQueueFull, PoolStopped)):
            try:
                self._shed(request, elapsed)
            except Exception:  # noqa: BLE001 - accounting must not lose the response
                pass
        if response.stream is not None:
            response.stream = self._watch_stream(request, response.stream)
        ctx.done(response)

    def _watch_stream(self, request: HttpRequest, stream):
        """Yield a streamed body through; record its producer failing.

        The head is on the wire by then, so no error status can be sent —
        the driver truncates the chunked body, which marks the message bad
        for the peer — but the failure is still a handler error.
        """
        try:
            yield from stream
        except Exception as exc:  # noqa: BLE001 - recorded, then the driver's to handle
            self._record_handler_error(request, exc)
            raise

    def _record_handler_error(self, request: HttpRequest, exc: Exception) -> None:
        self.metrics.counter(
            "http_handler_errors_total", labels={"type": type(exc).__name__}
        ).add()
        detail = {
            "target": request.target,
            "method": request.method,
            "error": type(exc).__name__,
            "detail": str(exc),
        }
        self.recent_errors.append(detail)
        # the detail also lands in the active trace (when one is recording)
        obs.event("http.handler_error", **detail)

    # ------------------------------------------------------------------
    # admin surface

    def _route_admin(self, request: HttpRequest) -> HttpResponse | None:
        if not self._admin or request.target not in ADMIN_TARGETS:
            return None
        if request.method != "GET":
            return HttpResponse(405, body=b"admin endpoints accept GET only")
        if request.target == "/metrics":
            body = render_prometheus(self.metrics).encode("utf-8")
            response = HttpResponse(200, body=body)
            response.headers.set("Content-Type", "text/plain; version=0.0.4")
            return response
        if request.target == "/healthz":
            return _json_response(200, {
                "status": "ok",
                "server": self.name,
                "uptime_seconds": self.uptime_seconds,
                "connections_open": self.metrics.gauge("http_connections_open").snapshot(),
                "requests_in_flight": self._in_flight.snapshot(),
            })
        if request.target == READINESS_TARGET:
            ready, detail = True, {}
            if self._readiness is not None:
                try:
                    ready, detail = self._readiness()
                except Exception as exc:  # noqa: BLE001 - a broken probe is "not ready"
                    ready, detail = False, {"probe_error": type(exc).__name__}
            payload = {
                "status": "ready" if ready else "saturated",
                "server": self.name,
                "uptime_seconds": self.uptime_seconds,
            }
            payload.update(detail)
            response = _json_response(200 if ready else 503, payload)
            if not ready:
                retry_after = detail.get("retry_after")
                if retry_after is not None:
                    response.headers.set("Retry-After", f"{float(retry_after):.3f}")
            return response
        # /varz
        return _json_response(200, render_varz(
            self.metrics,
            name=self.name,
            uptime_seconds=self.uptime_seconds,
            recent_errors=list(self.recent_errors),
        ))

    @property
    def uptime_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at


def _json_response(status: int, payload: dict) -> HttpResponse:
    response = HttpResponse(status, body=json.dumps(payload, default=str).encode("utf-8"))
    response.headers.set("Content-Type", "application/json")
    return response
