"""Service hosts: run a dispatcher behind a TCP or HTTP binding.

What a server does with one SOAP message is written once, in
:func:`repro.core.exchange.serve_exchange`; a host supplies a binding's
framing, the dispatcher as ``handle``, a policy cache and the RED count.
:class:`SoapHttpService`, the one SOAP-over-HTTP host, supplies ``route``
(404/405) and ``exchange`` to the shared
:class:`~repro.transport.http.pipeline.RequestPipeline` and runs inline on
the threaded driver (:class:`repro.serve.SoapServeService` is the same host
with a worker pool and a choice of driver); :class:`SoapTcpService` is the
length-prefixed binding on a :class:`~repro.transport.host.ConnectionHost`.

Both hosts are content-type negotiating: a single host serves XML and BXSA
clients simultaneously, answering each in the encoding it spoke — the
"generic" server the paper's §5.1 architecture diagram implies.

Both hosts RED-count every SOAP exchange into their
:class:`~repro.obs.MetricsRegistry` (``.metrics``) as
``soap_requests_total{operation,encoding,binding,status}`` plus a
``soap_request_seconds`` latency histogram.  The HTTP host shares its
registry with the underlying :class:`HttpServer`, so ``GET /metrics`` on
the same port scrapes SOAP and HTTP series together; the TCP host's
registry can be exposed on a sidecar via
:func:`repro.transport.http.server.make_admin_server`.

Operation labels are guarded: only operations the dispatcher actually
registers get their own series — anything else (typos, probes) lands in
the shared ``"?"`` series, so clients cannot explode label cardinality.
"""

from __future__ import annotations

import time

from repro.core.dispatcher import Dispatcher
from repro.core.exchange import Served, serve_exchange
from repro.core.policies import EncodingPolicy, NegotiatedPolicies, XMLEncoding
from repro.obs.metrics import MetricsRegistry
from repro.transport.base import BufferedChannel, Listener
from repro.transport.host import ConnectionHost
from repro.transport.http.messages import BodyPieces, HttpRequest, HttpResponse
from repro.transport.http.server import HttpServer

#: Label names of the service-level RED families, in the sorted order the
#: ``labels={...}`` accessors give them (the latency histogram has no status).
RED_LABELS = ("binding", "encoding", "operation", "status")


class _RedRecorder:
    """Per-host helper recording one SOAP exchange into the RED family."""

    def __init__(self, metrics: MetricsRegistry, dispatcher: Dispatcher, binding: str) -> None:
        # bound once: both are touched by every exchange
        self._requests = metrics.counter_family("soap_requests_total", RED_LABELS)
        self._seconds = metrics.histogram_family("soap_request_seconds", RED_LABELS[:3])
        self._dispatcher = dispatcher
        self._binding = binding
        self._known: set[str] | None = None

    def operation_label(self, envelope) -> str:
        try:
            local = envelope.body_root.name.local
        except ValueError:
            return "?"
        if self._known is None:
            self._known = {op.rsplit("}", 1)[-1] for op in self._dispatcher.operations()}
        return local if local in self._known else "?"

    def record(self, served: Served, seconds: float) -> None:
        # an unresolvable type was answered in the host's default encoding,
        # which is not what the client spoke
        encoding = "?" if served.status == "unsupported_media" else served.content_type
        self._requests.labels(
            binding=self._binding,
            encoding=encoding,
            operation=served.operation,
            status=served.status,
        ).add()
        # the worst request's trace id rides along as an exemplar, linking
        # the metric series back to the trace that explains it
        self._seconds.labels(
            binding=self._binding, encoding=encoding, operation=served.operation
        ).observe(seconds, exemplar=served.trace_id)


class SoapTcpService(ConnectionHost):
    """SOAP over the raw TCP binding, persistent connections, threaded
    (``start``/``stop``/``with`` and the drain are the connection host's)."""

    def __init__(
        self,
        listener: Listener,
        dispatcher: Dispatcher,
        *,
        encoding: EncodingPolicy | None = None,
        security=None,
        name: str = "soap-tcp",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(listener, self._serve_connection, name=name)
        # resolved here, as ``SoapServeService`` resolves its driver: the
        # binding loads with the host that speaks it, by ``start()``
        from repro.transport.tcp_binding import serve_messages

        self._serve_messages = serve_messages
        self._dispatcher = dispatcher
        self._encoding = encoding if encoding is not None else XMLEncoding()
        self._security = security
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._red = _RedRecorder(self.metrics, dispatcher, "tcp")

    def _serve_connection(self, channel: BufferedChannel) -> None:
        # one cache per connection: its exchanges run one at a time
        policies = NegotiatedPolicies(self._encoding)

        def answer(payload: bytes, content_type: str):
            start = time.perf_counter()
            served = serve_exchange(
                payload,
                content_type,
                self._dispatcher.dispatch,
                policies,
                security=self._security,
                label=self._red.operation_label,
                span="soap.serve",
            )
            self._red.record(served, time.perf_counter() - start)
            return served.body, served.content_type

        open_gauge = self.metrics.gauge("soap_tcp_connections_open")
        open_gauge.inc()
        try:
            self._serve_messages(channel, self.receive, answer)
        finally:
            open_gauge.dec()


class SoapHttpService:
    """SOAP over the HTTP binding (POST /soap): the one SOAP/HTTP host.

    An application of the request pipeline: :meth:`route` answers routing
    misses, :meth:`exchange` runs one exchange, :meth:`shed` RED-counts
    what the pipeline turned away.  This is the pool-less configuration,
    inline on the threaded driver; :class:`repro.serve.SoapServeService`
    overrides :meth:`_make_server` to put a pool and either driver under
    the same three methods.
    """

    def __init__(
        self,
        listener: Listener,
        dispatcher: Dispatcher,
        *,
        encoding: EncodingPolicy | None = None,
        security=None,
        target: str = "/soap",
        name: str = "soap-http",
        metrics: MetricsRegistry | None = None,
        admin: bool = True,
    ) -> None:
        self._listener = listener
        self._dispatcher = dispatcher
        self._encoding = encoding if encoding is not None else XMLEncoding()
        self._security = security
        self._target = target
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._red = _RedRecorder(self.metrics, dispatcher, "http")
        self._server = self._make_server(listener, name, admin)

    def _make_server(self, listener: Listener, name: str, admin: bool):
        # one registry for both layers: GET /metrics on this port scrapes
        # the SOAP RED series and the HTTP server's own series together
        return HttpServer(listener, self, name=name, metrics=self.metrics, admin=admin)

    def start(self) -> "SoapHttpService":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()

    def __enter__(self) -> "SoapHttpService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the pipeline application

    def route(self, request: HttpRequest) -> HttpResponse | None:
        """Answer routing misses; ``None`` sends the request to :meth:`exchange`."""
        if request.target != self._target:
            return HttpResponse(404, body=b"no such endpoint")
        if request.method != "POST":
            return HttpResponse(405, body=b"SOAP endpoints accept POST only")
        return None

    def exchange(self, request: HttpRequest, policies: NegotiatedPolicies | None) -> HttpResponse:
        """One SOAP exchange, RED-counted; ``policies`` is the pool worker's
        warm cache, or ``None`` when the exchange runs inline."""
        if policies is None:
            # inline, connection threads run exchanges side by side and
            # share only the host's own policy, as they always have: a
            # foreign content type gets a policy of its own per message
            policies = NegotiatedPolicies(self._encoding)
        content_type = request.headers.get("Content-Type") or "text/xml"
        served = serve_exchange(
            request.body,
            content_type,
            self._dispatcher.dispatch,
            policies,
            security=self._security,
            label=self._red.operation_label,
        )
        # from the pipeline taking the request, so the RED latency includes
        # any queue wait: it is what the client saw
        self._red.record(served, time.perf_counter() - request.received_at)
        if served.status == "unsupported_media":
            # HTTP has a refusal of its own for this, before SOAP is involved
            return HttpResponse(400, body=f"unsupported content type {content_type}".encode())
        body = served.body
        # SOAP 1.1 over HTTP: faults ride a 500
        response = HttpResponse(
            200 if served.status == "ok" else 500,
            body=BodyPieces(body) if isinstance(body, list) else body,
        )
        response.headers.set("Content-Type", served.content_type)
        return response

    def shed(self, _request: HttpRequest, seconds: float) -> None:
        """RED-count a request the pipeline turned away with a 503."""
        self._red.record(Served(b"", "?", "?", "shed", None), seconds)
