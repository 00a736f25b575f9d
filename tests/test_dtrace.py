"""Cross-process distributed tracing, end to end.

The tentpole invariant: a client exchange against a live server (either
serving core) yields two per-process trace files that
:func:`repro.obs.analyze.join_traces` assembles into ONE tree — one
trace id, server spans parented under the client's wire spans, wire
time non-negative, segments reconciling, a RED exemplar naming the
trace.  Plus the abuse cases: malformed, oversized or duplicate trace
headers must never fail a request — the server just starts a fresh
root.
"""

import pytest

from repro import obs
from repro.core.dispatcher import Dispatcher
from repro.core.envelope import SoapEnvelope
from repro.core.policies import XMLEncoding
from repro.harness.dtrace import run_distributed_trace_demo
from repro.obs import TraceRecorder, propagation, trace_dict
from repro.obs.analyze import join_traces
from repro.serve import ServeConfig, SoapServeService
from repro.transport import MemoryNetwork
from repro.transport.base import BufferedChannel
from repro.transport.http.client import HttpClient
from repro.transport.http.messages import read_response
from repro.transport.sockets import TcpListener, connect_tcp
from repro.xdm import element, leaf


def _echo_dispatcher():
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request):
        return element("EchoResponse", *request.body_root.children)

    return d


def _soap_body() -> bytes:
    envelope = SoapEnvelope.wrap(element("Echo", leaf("n", 1, "int")))
    return XMLEncoding().encode(envelope.to_document())


def _raw_request(body: bytes, trace_headers: list[str]) -> bytes:
    lines = [
        "POST /soap HTTP/1.1",
        "Host: test",
        "Content-Type: text/xml",
        f"Content-Length: {len(body)}",
    ]
    lines += [f"X-Repro-Trace: {value}" for value in trace_headers]
    lines += ["Connection: close", "", ""]
    return "\r\n".join(lines).encode() + body


class TestEndToEnd:
    @pytest.mark.parametrize("core", ["threaded", "aio"])
    def test_assembled_trace_holds_invariants(self, core):
        result = run_distributed_trace_demo(core=core)
        assert result["ok"], result["problems"]
        join = result["join"]
        assert len(join["trace_ids"]) == 1
        assert len(join["links"]) == 3
        for link in join["links"]:
            assert link["client_service"] == "client"
            assert link["server_service"] == "serve"
            assert link["wire_seconds"] >= 0
            assert link["trace_id"] == result["trace_id"]

    def test_trace_files_written_and_joinable(self, tmp_path):
        result = run_distributed_trace_demo(core="threaded", trace_dir=str(tmp_path))
        assert result["ok"], result["problems"]
        assert result["client_trace"] is not None
        from repro.obs.analyze import load_documents

        docs = [
            load_documents(result["client_trace"])[0],
            load_documents(result["server_trace"])[0],
        ]
        assert docs[0]["meta"]["service"] == "client"
        assert docs[1]["meta"]["service"] == "serve"
        rejoined = join_traces(docs)
        assert rejoined["ok"]

    def test_streamed_markers_ride_the_trace(self):
        result = run_distributed_trace_demo(core="threaded", streamed_markers=True)
        assert result["ok"], result["problems"]


class TestHeaderRobustness:
    """Hostile or broken trace headers never fail the request."""

    BAD_HEADERS = [
        ["not-a-context"],
        ["f" * 200],  # oversized
        ["1" * 32 + "-" + "0" * 16 + "-01-XY"],  # non-hex origin
        ["0" * 32 + "-" + "0" * 16 + "-01-ab"],  # zero trace id
        # duplicates: each individually valid, together ambiguous
        [
            "1" * 32 + "-" + "1" * 16 + "-01-aabbccdd",
            "2" * 32 + "-" + "2" * 16 + "-01-aabbccdd",
        ],
    ]

    def _serve_spans(self, recorder):
        return [sp for sp in recorder.spans if sp.name == "http.serve"]

    @pytest.mark.parametrize("headers", BAD_HEADERS)
    def test_threaded_core_starts_fresh_root(self, headers):
        recorder = TraceRecorder(service="serve", origin="aa000001")
        previous = obs.set_recorder(recorder)
        net = MemoryNetwork()
        service = SoapServeService(
            net.listen("svc"), _echo_dispatcher(), config=ServeConfig(workers=1)
        ).start()
        try:
            channel = net.connect("svc")
            channel.send_all(_raw_request(_soap_body(), headers))
            response = read_response(BufferedChannel(channel))
            channel.close()
        finally:
            service.stop()
            obs.set_recorder(previous)
        assert response.status == 200
        (serve,) = self._serve_spans(recorder)
        # fresh root: no remote join keys, locally-derived trace id
        assert "trace.remote_origin" not in serve.attributes
        assert serve.parent_id is None
        assert serve.trace_id not in (0, int("1" * 32, 16), int("2" * 32, 16))

    @pytest.mark.parametrize("headers", BAD_HEADERS)
    def test_aio_core_starts_fresh_root(self, headers):
        recorder = TraceRecorder(service="serve", origin="aa000002")
        previous = obs.set_recorder(recorder)
        listener = TcpListener()
        host, port = listener.address
        service = SoapServeService(
            listener,
            _echo_dispatcher(),
            config=ServeConfig(core="aio", workers=1),
        ).start()
        try:
            channel = connect_tcp(host, port)
            channel.send_all(_raw_request(_soap_body(), headers))
            response = read_response(BufferedChannel(channel))
            channel.close()
        finally:
            service.stop()
            obs.set_recorder(previous)
        assert response.status == 200
        (serve,) = self._serve_spans(recorder)
        assert "trace.remote_origin" not in serve.attributes
        assert serve.trace_id not in (0, int("1" * 32, 16), int("2" * 32, 16))

    def test_well_formed_header_joins(self):
        """Sanity for the suite above: a good header DOES join."""
        recorder = TraceRecorder(service="serve", origin="aa000003")
        previous = obs.set_recorder(recorder)
        net = MemoryNetwork()
        service = SoapServeService(
            net.listen("svc"), _echo_dispatcher(), config=ServeConfig(workers=1)
        ).start()
        ctx = propagation.TraceContext(0xFEED, 42, True, "11223344")
        try:
            channel = net.connect("svc")
            channel.send_all(
                _raw_request(_soap_body(), [propagation.format_context(ctx)])
            )
            response = read_response(BufferedChannel(channel))
            channel.close()
        finally:
            service.stop()
            obs.set_recorder(previous)
        assert response.status == 200
        (serve,) = self._serve_spans(recorder)
        assert serve.trace_id == 0xFEED
        assert serve.attributes["trace.remote_origin"] == "11223344"
        assert serve.attributes["trace.remote_span"] == 42


class TestSpanShapeAcrossCores:
    """One request pipeline opens the server-side spans, so the driver
    underneath cannot change what a trace of one exchange looks like."""

    @staticmethod
    def _span_tree(core):
        recorder = TraceRecorder(service="serve", origin="aa0000c0")
        previous = obs.set_recorder(recorder)
        listener = TcpListener()
        service = SoapServeService(
            listener, _echo_dispatcher(), config=ServeConfig(core=core, workers=1)
        ).start()
        try:
            with obs.thread_recorder(None):  # the client side records nothing
                channel = connect_tcp(*listener.address)
                channel.send_all(_raw_request(_soap_body(), []))
                response = read_response(BufferedChannel(channel))
                channel.close()
        finally:
            service.stop()
            obs.set_recorder(previous)
        assert response.status == 200

        def subtree(span):
            children = [sp for sp in recorder.spans if sp.parent_id == span.span_id]
            return (span.name, span.kind, sorted(subtree(child) for child in children))

        return sorted(subtree(sp) for sp in recorder.spans if sp.parent_id is None)

    def test_one_exchange_has_the_same_span_tree_on_both_cores(self):
        threaded, aio = self._span_tree("threaded"), self._span_tree("aio")
        assert threaded == aio
        # and it is the tree the pipeline promises: one server-side root
        # per request, the SOAP work nested under it
        ((root, kind, children),) = threaded
        assert (root, kind) == ("http.serve", "logical")
        assert children


class _SteppedClock:
    """Deterministic clock: each read advances by ``step``."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _client_server_docs():
    """A minimal linked pair of per-process trace documents.

    Deterministic clocks keep the client span strictly longer than the
    server span, so the happy path has positive wire time by construction.
    """
    client = TraceRecorder(service="client", origin="c0000001", clock=_SteppedClock(0.010))
    with client.span("http.request") as client_span:
        pass
    server = TraceRecorder(service="serve", origin="50000001", clock=_SteppedClock(0.001))
    ctx = propagation.TraceContext(
        client_span.trace_id, client_span.span_id, True, "c0000001"
    )
    with server.span("http.serve", context=ctx):
        pass
    return (
        trace_dict(client),
        trace_dict(server),
        client_span,
    )


class TestJoinTraces:
    def test_happy_path_links_and_annotates(self):
        client_doc, server_doc, client_span = _client_server_docs()
        result = join_traces([client_doc, server_doc])
        assert result["ok"], result["problems"]
        assert len(result["links"]) == 1
        link = result["links"][0]
        assert link["client_span"] == client_span.span_id
        assert link["wire_seconds"] >= 0
        # the server root was adopted under the client span
        assert any(
            child["name"] == "http.serve"
            for root in result["roots"]
            for child in _all_spans(root)
        )

    def test_unresolved_remote_parent_is_a_problem(self):
        _, server_doc, _ = _client_server_docs()
        result = join_traces([server_doc])
        assert not result["ok"]
        assert any("not found" in p for p in result["problems"])

    def test_trace_id_mismatch_is_a_problem(self):
        client_doc, server_doc, _ = _client_server_docs()
        server_doc["spans"][0]["trace_id"] = "f" * 32
        result = join_traces([client_doc, server_doc])
        assert not result["ok"]
        assert any("does not match" in p for p in result["problems"])

    def test_negative_wire_time_is_a_problem(self):
        client_doc, server_doc, _ = _client_server_docs()
        server_doc["spans"][0]["seconds"] = (
            client_doc["spans"][0].get("seconds", 0.0) + 1.0
        )
        result = join_traces([client_doc, server_doc])
        assert not result["ok"]
        assert any("negative wire time" in p for p in result["problems"])


def _all_spans(root):
    yield root
    for child in root.get("children", ()):
        yield from _all_spans(child)


class TestAioLoopHealth:
    def test_loop_gauges_on_metrics_endpoint(self):
        listener = TcpListener()
        host, port = listener.address
        service = SoapServeService(
            listener,
            _echo_dispatcher(),
            config=ServeConfig(core="aio", workers=1),
        ).start()
        try:
            client = HttpClient(lambda: connect_tcp(host, port))
            try:
                client.request("POST", "/soap", body=_soap_body())
                response = client.request("GET", "/metrics")
            finally:
                client.close()
        finally:
            service.stop()
        assert response.status == 200
        body = str(response.body, "utf-8")
        assert "aio_loop_lag_seconds" in body
        assert "aio_ready_queue_depth" in body
