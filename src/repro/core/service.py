"""Service hosts: run a dispatcher behind a TCP or HTTP binding.

There is one SOAP-over-HTTP host, :class:`SoapHttpService`: it supplies
``route`` (404/405) and ``exchange`` (one SOAP exchange) to the shared
:class:`~repro.transport.http.pipeline.RequestPipeline` and runs inline
on the threaded driver; :class:`repro.serve.SoapServeService` is the same
host configured with a worker pool and a choice of driver.

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

import threading
import time

from repro import obs
from repro.core.dispatcher import Dispatcher
from repro.core.engine import SoapEngine
from repro.core.envelope import SoapEnvelope
from repro.core.fault import CLIENT_FAULT, SoapFault
from repro.core.policies import EncodingPolicy, XMLEncoding, encoding_for_content_type
from repro.obs import propagation
from repro.obs.metrics import MetricsRegistry
from repro.transport.base import Listener, TransportError
from repro.transport.http.messages import BodyPieces, HttpRequest, HttpResponse
from repro.transport.http.server import HttpServer
from repro.transport.tcp_binding import TcpServerBinding

#: Label names of the service-level RED family (fixed at first use).
RED_LABELS = ("operation", "encoding", "binding", "status")


class _RedRecorder:
    """Per-host helper recording one SOAP exchange into the RED family."""

    def __init__(self, metrics: MetricsRegistry, dispatcher: Dispatcher, binding: str) -> None:
        self._metrics = metrics
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

    def record(self, operation: str, encoding: str, status: str, seconds: float) -> None:
        self._metrics.counter(
            "soap_requests_total",
            labels={
                "operation": operation,
                "encoding": encoding,
                "binding": self._binding,
                "status": status,
            },
        ).add()
        # the worst request's trace id rides along as an exemplar, linking
        # the metric series back to the trace that explains it
        self._metrics.histogram(
            "soap_request_seconds",
            labels={
                "operation": operation,
                "encoding": encoding,
                "binding": self._binding,
            },
        ).observe(seconds, exemplar=obs.current_trace_id())

    @staticmethod
    def status_for(fault: SoapFault) -> str:
        return "client_fault" if fault.code == CLIENT_FAULT else "server_fault"


def run_soap_http_exchange(
    request: HttpRequest,
    dispatcher: Dispatcher,
    red: _RedRecorder,
    resolve_encoding,
    security=None,
) -> tuple[HttpResponse, str, str, str]:
    """One SOAP-over-HTTP exchange → (response, operation, encoding, status).

    The core of the HTTP host: inline on the driver's thread for
    :class:`SoapHttpService`, on a pool worker for its pooled
    configuration (:class:`repro.serve.SoapServeService`) — same wire
    behaviour, different execution discipline.

    ``resolve_encoding`` maps a bare content type to the
    :class:`EncodingPolicy` that answers it (raising :class:`ValueError`
    for unsupported types); callers choose the policy's lifetime — per
    message, per service, or per worker (the warm-session reuse path).
    """
    content_type = (request.headers.get("Content-Type") or "text/xml").split(";")[0].strip()

    try:
        encoding = resolve_encoding(content_type)
    except ValueError:
        response = HttpResponse(
            400, body=f"unsupported content type {content_type}".encode()
        )
        return response, "?", "?", "unsupported_media"

    try:
        envelope = SoapEnvelope.from_document(encoding.decode(request.body))
    except Exception as exc:  # malformed payload → client fault
        fault = SoapFault("soap:Client", f"cannot parse request: {exc}")
        response = _soap_fault_response(fault, encoding, security)
        return response, "?", encoding.content_type, "client_fault"

    operation = red.operation_label(envelope)
    try:
        if security is not None:
            security.verify(envelope)
        response = dispatcher.dispatch(envelope)
    except SoapFault as fault:
        return (
            _soap_fault_response(fault, encoding, security),
            operation,
            encoding.content_type,
            red.status_for(fault),
        )

    if security is not None:
        security.sign(response)
    resp = HttpResponse(200, body=_encode_body(encoding, response.to_document()))
    resp.headers.set("Content-Type", encoding.content_type)
    return resp, operation, encoding.content_type, "ok"


def _encode_body(encoding: EncodingPolicy, document):
    """The response body: ``encoding.encode``'s bytes, or — from a policy
    that can gather (``encode_pieces``) and has a bulk payload to hand
    over by reference — the pieces, for the driver to write one by one."""
    gather = getattr(encoding, "encode_pieces", None)
    if gather is None:
        return encoding.encode(document)
    pieces = gather(document)
    return pieces[0] if len(pieces) == 1 else BodyPieces(pieces)


def _soap_fault_response(
    fault: SoapFault, encoding: EncodingPolicy, security=None
) -> HttpResponse:
    envelope = SoapEnvelope.wrap(fault.to_element())
    if security is not None:
        security.sign(envelope)
    body = encoding.encode(envelope.to_document())
    # SOAP 1.1 over HTTP: faults ride a 500.
    resp = HttpResponse(500, body=body)
    resp.headers.set("Content-Type", encoding.content_type)
    return resp


class SoapTcpService:
    """SOAP over the raw TCP binding, persistent connections, threaded."""

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
        self._listener = listener
        self._dispatcher = dispatcher
        self._encoding = encoding if encoding is not None else XMLEncoding()
        self._security = security
        self._name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._red = _RedRecorder(self.metrics, dispatcher, "tcp")
        self._running = False
        self._thread: threading.Thread | None = None
        # accepted connections, so stop() can close and join them
        self._conn_lock = threading.Lock()
        self._conns: dict[threading.Thread, object] = {}

    def start(self) -> "SoapTcpService":
        if self._running:
            raise RuntimeError("service already running")
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, name=self._name, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every accepted channel, join the threads."""
        self._running = False
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        with self._conn_lock:
            conns = dict(self._conns)
        for channel in conns.values():
            try:
                channel.close()  # fails the connection thread's blocked read
            except TransportError:
                pass
        deadline = time.monotonic() + 1.0
        for thread in conns:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "SoapTcpService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                channel = self._listener.accept()
            except TransportError:
                return
            thread = threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name=f"{self._name}-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._conns[thread] = channel
            thread.start()

    def _serve_connection(self, channel) -> None:
        engine = SoapEngine(self._encoding, TcpServerBinding(channel), self._security)
        red = self._red
        self.metrics.gauge("soap_tcp_connections_open").inc()
        try:
            while True:
                start = time.perf_counter()
                try:
                    request, content_type = engine.receive()
                except TransportError:
                    return  # client finished
                except SoapFault as fault:
                    red.record(
                        "?", "?", red.status_for(fault), time.perf_counter() - start
                    )
                    engine.reply_fault(fault)
                    continue
                encoding_label = content_type.split(";")[0].strip()
                operation = red.operation_label(request)
                # the engine has no HTTP headers: here the trace context
                # arrives as the envelope's SOAP header block
                ctx = propagation.extract_envelope(request)
                with obs.span(
                    "soap.serve", kind="logical", context=ctx, operation=operation
                ), obs.use_context(ctx):
                    try:
                        response = self._dispatcher.dispatch(request)
                    except SoapFault as fault:
                        red.record(
                            operation,
                            encoding_label,
                            red.status_for(fault),
                            time.perf_counter() - start,
                        )
                        engine.reply_fault(fault, content_type)
                        continue
                    engine.reply(response, content_type)
                    red.record(
                        operation, encoding_label, "ok", time.perf_counter() - start
                    )
        finally:
            self.metrics.gauge("soap_tcp_connections_open").dec()
            with self._conn_lock:
                self._conns.pop(threading.current_thread(), None)
            channel.close()


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

    def exchange(self, request: HttpRequest, codecs) -> HttpResponse:
        """One SOAP exchange, RED-counted; ``codecs`` is the pool worker's
        warm encodings, or ``None`` when the exchange runs inline."""
        resolve = codecs.resolve if codecs is not None else self._resolve_encoding
        response, operation, encoding_label, status = run_soap_http_exchange(
            request, self._dispatcher, self._red, resolve, self._security
        )
        # from the pipeline taking the request, so the RED latency includes
        # any queue wait: it is what the client saw
        elapsed = time.perf_counter() - request.received_at
        self._red.record(operation, encoding_label, status, elapsed)
        return response

    def shed(self, _request: HttpRequest, seconds: float) -> None:
        """RED-count a request the pipeline turned away with a 503."""
        self._red.record("?", "?", "shed", seconds)

    def _resolve_encoding(self, content_type: str) -> EncodingPolicy:
        if content_type == self._encoding.content_type:
            return self._encoding
        return encoding_for_content_type(content_type)
