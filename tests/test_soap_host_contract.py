"""One SOAP host contract: every case on both bindings.

What a server does with one SOAP message is one function,
:func:`repro.core.engine.serve_exchange`, and every accept loop is one
class, :class:`repro.transport.host.ConnectionHost`.  This suite holds the
hosts to that: each exchange case runs against ``SoapTcpService`` and
``SoapHttpService`` through the ``soap_host`` fixture (``tests/conftest.py``,
memory transport), and the lifecycle cases run against every host that
derives from the connection host.

The per-binding classes that predate it (``test_core_engine.py``,
``test_core_security.py``, ``test_robustness.py::TestEngineFailureInjection``)
stay under their ids; what they check on one binding is checked here on
both.  :class:`~repro.core.TcpIntermediary` forwards over the TCP binding
by construction, so the hop cases front a TCP backend only.
"""

import gc
import itertools
import socket
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from tests.conftest import SoapHost, parse_prometheus, wait_until

from repro import obs
from repro.core import (
    BXSAEncoding,
    Dispatcher,
    SoapEnvelope,
    SoapFault,
    SoapTcpClient,
    SoapTcpService,
    TcpIntermediary,
    XMLEncoding,
    encoding_for_content_type,
)
from repro.core.security import HmacSigningPolicy, SecretKey
from repro.obs import TraceRecorder
from repro.obs.exposition import render_prometheus
from repro.services.echo import echo_dispatcher
from repro.transport import MemoryNetwork, TcpListener, TransportError, memory_pipe, write_message
from repro.xdm import array, element, leaf
from repro.xdm.path import children_named

ENCODINGS = {"xml": XMLEncoding, "bxsa": BXSAEncoding}
OTHER = {"xml": BXSAEncoding, "bxsa": XMLEncoding}


def make_dispatcher() -> Dispatcher:
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request):
        return element("EchoResponse", *request.body_root.children)

    @d.operation("Crash")
    def crash(request):
        raise RuntimeError("unexpected bug")

    @d.operation("Unencodable")
    def unencodable(request):
        # a lone surrogate: no encoding policy can put it on the wire
        return element("UnencodableResponse", leaf("s", "\ud800", "string"))

    return d


def echo_request(n: int = 1) -> SoapEnvelope:
    return SoapEnvelope.wrap(element("Echo", leaf("n", n, "int")))


def fault_in(payload: bytes, content_type: str) -> SoapFault:
    """The fault a raw reply carries, decoded with the policy it names."""
    envelope = SoapEnvelope.from_document(encoding_for_content_type(content_type).decode(payload))
    found = SoapFault.find_in(envelope.body_children)
    assert found is not None, "the reply is not a fault envelope"
    return SoapFault.from_element(found)


def red_series(service) -> dict:
    """``soap_requests_total`` samples keyed by their label set, ``binding`` dropped."""
    out = {}
    for key, value in parse_prometheus(render_prometheus(service.metrics)).items():
        if key.startswith("soap_requests_total{"):
            labels = key[len("soap_requests_total{") : -1].split(",")
            out[tuple(label for label in labels if not label.startswith("binding="))] = value
    return out


class UncaughtInThreads:
    """``threading.excepthook`` captured for the length of a ``with``."""

    def __enter__(self):
        self.seen = []
        self._previous = threading.excepthook
        threading.excepthook = lambda args: self.seen.append(args.exc_type.__name__)
        return self.seen

    def __exit__(self, *exc):
        threading.excepthook = self._previous


# ---------------------------------------------------------------------------
# the exchange


class TestExchange:
    @pytest.mark.parametrize("spoken", sorted(ENCODINGS))
    def test_echo_in_each_encoding_against_a_host_defaulting_to_the_other(self, soap_host, spoken):
        soap_host.serve(make_dispatcher(), encoding=OTHER[spoken]())
        client = soap_host.client(encoding=ENCODINGS[spoken]())
        values = np.arange(5.0)
        request = SoapEnvelope.wrap(element("Echo", leaf("n", 7, "int"), array("v", values)))
        root = client.call(request).body_root
        assert children_named(root, "n")[0].value == 7
        np.testing.assert_array_equal(np.asarray(children_named(root, "v")[0].values), values)
        # and on the wire the answer is in the encoding the client spoke
        policy = ENCODINGS[spoken]()
        _payload, content_type = soap_host.post(
            policy.encode(echo_request().to_document()), policy.content_type
        )
        assert content_type == policy.content_type

    def test_unknown_operation_is_a_client_fault(self, soap_host):
        soap_host.serve(make_dispatcher())
        with pytest.raises(SoapFault, match="no such operation") as info:
            soap_host.client().call(SoapEnvelope.wrap(element("Nope")))
        assert info.value.code == "soap:Client"

    def test_handler_raising_is_a_server_fault(self, soap_host):
        soap_host.serve(make_dispatcher())
        with pytest.raises(SoapFault, match="RuntimeError: unexpected bug") as info:
            soap_host.client().call(SoapEnvelope.wrap(element("Crash")))
        assert info.value.code == "soap:Server"

    def test_undecodable_payload_is_answered_in_the_encoding_the_client_spoke(self, soap_host):
        """Divergence (b): the TCP host used to answer ``text/xml`` and
        RED-label ``encoding="?"`` where the HTTP host answered in kind."""
        service = soap_host.serve(make_dispatcher())  # defaults to XML
        payload, content_type = soap_host.post(b"this is not BXSA", "application/bxsa")
        assert content_type == "application/bxsa"
        fault = fault_in(payload, content_type)
        assert fault.code == "soap:Client" and "decode" in fault.string
        assert red_series(service) == {
            ('encoding="application/bxsa"', 'operation="?"', 'status="client_fault"'): 1
        }

    def test_bad_envelope_is_a_client_fault_in_kind(self, soap_host):
        service = soap_host.serve(make_dispatcher())
        policy = BXSAEncoding()
        not_an_envelope = policy.encode(element("Echo", leaf("n", 1, "int")))
        payload, content_type = soap_host.post(not_an_envelope, policy.content_type)
        assert content_type == policy.content_type
        assert fault_in(payload, content_type).code == "soap:Client"
        assert red_series(service) == {
            ('encoding="application/bxsa"', 'operation="?"', 'status="client_fault"'): 1
        }

    def test_signature_verify_failure_is_a_signed_fault_in_kind(self, soap_host):
        key = SecretKey.generate()
        service = soap_host.serve(make_dispatcher(), security=HmacSigningPolicy(key))
        policy = BXSAEncoding()
        unsigned = policy.encode(echo_request().to_document())
        payload, content_type = soap_host.post(unsigned, policy.content_type)
        assert content_type == policy.content_type
        envelope = SoapEnvelope.from_document(policy.decode(payload))
        HmacSigningPolicy(key).verify(envelope)  # the fault itself is signed
        fault = SoapFault.from_element(SoapFault.find_in(envelope.body_children))
        assert "not signed" in fault.string
        # the request decoded, so the series names its operation
        assert red_series(service) == {
            ('encoding="application/bxsa"', 'operation="Echo"', 'status="server_fault"'): 1
        }

    def test_unsupported_content_type_is_refused_in_the_bindings_own_way(self, soap_host):
        """The one case the bindings answer differently by design: TCP has
        only SOAP to say it with (a fault in the host's default encoding),
        HTTP refuses the media type before SOAP is involved."""
        service = soap_host.serve(make_dispatcher())
        payload, content_type = soap_host.post(b"{}", "application/json")
        if soap_host.binding == "tcp":
            assert content_type == "text/xml"
            assert fault_in(payload, content_type).code == "soap:Client"
        else:
            assert bytes(payload).startswith(b"unsupported content type")
        assert red_series(service) == {
            ('encoding="?"', 'operation="?"', 'status="unsupported_media"'): 1
        }

    @pytest.mark.parametrize("spoken", sorted(ENCODINGS))
    def test_unencodable_reply_is_a_server_fault_and_the_connection_stays(self, soap_host, spoken):
        """Divergence (a): the reply's encode failure killed the TCP host's
        connection thread (the client saw the connection drop), and left
        the HTTP host answering a bare 500 the client blamed on itself."""
        service = soap_host.serve(make_dispatcher())
        client = soap_host.client(encoding=ENCODINGS[spoken]())
        with UncaughtInThreads() as uncaught:
            with pytest.raises(SoapFault, match="surrogates not allowed") as info:
                client.call(SoapEnvelope.wrap(element("Unencodable")))
            assert info.value.code == "soap:Server"
            # a second, healthy call on the same connection
            assert client.call(echo_request()).body_root.name.local == "EchoResponse"
        assert uncaught == []
        assert soap_host.connects == 1
        content_type = ENCODINGS[spoken].content_type
        assert red_series(service) == {
            (f'encoding="{content_type}"', 'operation="Unencodable"', 'status="server_fault"'): 1,
            (f'encoding="{content_type}"', 'operation="Echo"', 'status="ok"'): 1,
        }

    def test_server_span_joins_the_callers_trace(self, soap_host):
        recorder = TraceRecorder(service="contract", origin="aa0000c1")
        previous = obs.set_recorder(recorder)
        try:
            soap_host.serve(make_dispatcher())
            soap_host.client(encoding=BXSAEncoding()).call(echo_request())
        finally:
            soap_host.close()
            obs.set_recorder(previous)
        by_id = {span.span_id: span for span in recorder.spans}
        (served,) = [span for span in recorder.spans if span.name == soap_host.serve_span]
        (call,) = [span for span in recorder.spans if span.name == "client.call"]
        assert served.trace_id == call.trace_id
        ancestors = []
        span = served
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            ancestors.append(span.name)
        assert ancestors[-1] == "client.call", ancestors
        # and the dispatch ran under the server span, not beside it
        encode = [span for span in recorder.spans if span.name == "bxsa.encode"]
        assert any(span.parent_id == served.span_id for span in encode)


    def test_arrays_a_handler_kept_outlive_the_next_exchange(self, soap_host):
        """The ``copy=False`` aliasing contract across exchanges, on both
        bindings: what request N decoded is read-only, aliases the buffer
        request N landed in, is still what was sent after request N + 1 has
        landed on the same connection, and frees that buffer when it dies."""
        kept = []
        d = make_dispatcher()

        @d.operation("Keep")
        def keep(request):
            kept.append(children_named(request.body_root, "v")[0].values)
            return element("KeepResponse")

        soap_host.serve(d, encoding=BXSAEncoding())
        client = soap_host.client(encoding=BXSAEncoding())
        sent = [np.arange(n, n + 150_000, dtype="f8") for n in (0, 7)]
        for values in sent:
            client.call(SoapEnvelope.wrap(element("Keep", array("v", values))))
        assert soap_host.connects == 1
        buffers = []
        for values, decoded in zip(sent, kept):
            assert not decoded.flags.writeable and not decoded.flags.owndata
            np.testing.assert_array_equal(decoded, values)
            base = decoded
            while not isinstance(base, memoryview):
                base = base.base
            assert base.readonly
            buffers.append(weakref.ref(base.obj))
        assert buffers[0]() is not buffers[1]()  # a landing buffer is never recycled
        del decoded, base
        kept.clear()
        wait_until(lambda: gc.collect() is not None and buffers[0]() is buffers[1]() is None)
        client.call(echo_request())  # the connection outlived them


def test_bulk_echo_on_the_tcp_binding_stays_within_the_copy_budget():
    """``tools/copy_budget.py``'s count, on the binding it does not drive:
    the traced peak of one warm 1.2 MB ``Echo`` through ``SoapTcpService``
    over loopback, the client allocating nothing (its frame is built before
    the trace starts, its receive buffer is preallocated)."""
    from tests.test_copy_budget import load_tool

    copy_budget = load_tool("copy_budget")
    def framed(payload, content_type) -> bytes:
        frame = bytearray()

        class Capture:
            send_all = staticmethod(frame.extend)

        write_message(Capture(), payload, content_type)
        return bytes(frame)

    wire, length = copy_budget.build_request()
    frame = framed(wire[-length:], BXSAEncoding.content_type)
    policy = BXSAEncoding(session=False)
    small = framed(policy.encode(echo_request().to_document()), policy.content_type)
    receive = memoryview(bytearray(2 * len(frame)))
    head = 2 + 1 + len(BXSAEncoding.content_type) + 4

    def exchange(sock, message) -> None:
        sock.sendall(message)
        got, total = 0, head
        while got < total:
            n = sock.recv_into(receive[got:])
            assert n, "the host closed mid-reply"
            got += n
            if got >= head:
                total = head + int.from_bytes(receive[head - 4 : head], "big")

    listener = TcpListener("127.0.0.1", 0)
    gc.collect()
    tracemalloc.start()
    try:
        service = SoapTcpService(listener, echo_dispatcher()).start()
        try:
            floor = tracemalloc.get_traced_memory()[0]
            sock = socket.create_connection(listener.address, timeout=10)
            try:
                peaks = []
                for _ in range(8):  # the connection's codec session: cold, then warm
                    # the small exchange is a barrier: answering it, the
                    # connection thread has let go of the bulk one before
                    exchange(sock, small)
                    tracemalloc.reset_peak()
                    exchange(sock, frame)
                    peaks.append((tracemalloc.get_traced_memory()[1] - floor) / length)
            finally:
                sock.close()
        finally:
            service.stop()
    finally:
        tracemalloc.stop()
    assert max(peaks[4:]) <= copy_budget.PEAK_BUDGET, peaks


def test_red_series_agree_label_for_label_across_bindings():
    """The same traffic leaves the same ``soap_requests_total`` series on
    both bindings, ``binding`` aside — one exchange labels them."""
    series = {}
    for binding in ("tcp", "http"):
        host = SoapHost(binding)
        try:
            service = host.serve(make_dispatcher())
            for spoken in sorted(ENCODINGS):
                client = host.client(encoding=ENCODINGS[spoken]())
                client.call(echo_request())
                for operation in ("Nope", "Crash", "Unencodable"):
                    with pytest.raises(SoapFault):
                        client.call(SoapEnvelope.wrap(element(operation)))
            host.post(b"this is not BXSA", "application/bxsa")
            host.post(b"{}", "application/json")
        finally:
            host.close()
        series[binding] = red_series(service)
    assert series["tcp"] == series["http"]
    # ten exchanges; the undecodable payload shares the BXSA "Nope" series
    assert len(series["tcp"]) == 9 and sum(series["tcp"].values()) == 10


# ---------------------------------------------------------------------------
# an intermediary hop in front (the TCP binding: see the module docstring)


class TestIntermediaryHop:
    def setup_method(self):
        self.host = SoapHost("tcp")
        self.backend = self.host.serve(make_dispatcher(), "backend", encoding=BXSAEncoding())
        self.hop = TcpIntermediary(
            self.host.net.listen("front"),
            lambda: self.host.net.connect("backend"),
            inbound_encoding=XMLEncoding(),
            outbound_encoding=BXSAEncoding(),
            name="hop",
        ).start()

    def teardown_method(self):
        self.host.close()  # the clients, then the backend
        self.hop.stop()

    @pytest.mark.parametrize("spoken", sorted(ENCODINGS))
    def test_forwards_and_answers_in_the_encoding_the_client_spoke(self, spoken):
        client = self.host.client("front", encoding=ENCODINGS[spoken]())
        assert client.call(echo_request(3)).body_root.name.local == "EchoResponse"
        with pytest.raises(SoapFault, match="RuntimeError: unexpected bug"):
            client.call(SoapEnvelope.wrap(element("Crash")))  # the backend's fault, relayed
        assert self.hop.forwarded == 1

    def test_undecodable_request_is_answered_by_the_hop_in_kind(self):
        payload, content_type = self.host.post(b"this is not BXSA", "application/bxsa", "front")
        assert content_type == "application/bxsa"
        assert fault_in(payload, content_type).code == "soap:Client"
        assert self.hop.forwarded == 0

    def test_next_hop_gone_is_a_server_fault_not_a_dead_thread(self):
        client = self.host.client("front")
        client.call(echo_request())
        self.backend.stop()  # the hop's outbound connection dies with it
        with UncaughtInThreads() as uncaught:
            with pytest.raises(SoapFault) as info:
                client.call(echo_request())
        assert info.value.code == "soap:Server"
        assert uncaught == []

    def test_hop_span_joins_the_callers_trace_and_parents_the_backend(self):
        recorder = TraceRecorder(service="contract", origin="aa0000c2")
        previous = obs.set_recorder(recorder)
        try:
            self.host.client("front").call(echo_request())
        finally:
            self.teardown_method()
            obs.set_recorder(previous)
        by_id = {span.span_id: span for span in recorder.spans}

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                names.append(span.name)
            return names

        (forward,) = [span for span in recorder.spans if span.name == "soap.forward"]
        (served,) = [span for span in recorder.spans if span.name == "soap.serve"]
        assert "client.call" in ancestors(forward)
        assert "soap.forward" in ancestors(served)


# ---------------------------------------------------------------------------
# lifecycle: stop means stopped, on every host the connection host carries


def _threads_named(prefix: str) -> list:
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


class TestStopMeansStopped:
    def test_tcp_service_lets_an_exchange_in_flight_finish_and_be_written(self):
        """``stop()`` used to cut the connection under a handler still
        running; now the reply is written inside the drain budget."""
        started, release = threading.Event(), threading.Event()
        d = Dispatcher()

        @d.operation("Slow")
        def slow(request):
            started.set()
            assert release.wait(5)
            return element("SlowResponse")

        net = MemoryNetwork()
        service = SoapTcpService(net.listen("svc"), d, name="drain-tcp").start()
        client = SoapTcpClient(lambda: net.connect("svc"))
        replies, errors = [], []

        def call():
            try:
                replies.append(client.call(SoapEnvelope.wrap(element("Slow"))))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        try:
            assert started.wait(5)
            threading.Timer(0.05, release.set).start()
            began = time.monotonic()
            service.stop()  # returns once the exchange in flight has drained
            assert time.monotonic() - began < 4.0
            caller.join(5)
            assert not caller.is_alive()
        finally:
            release.set()
            client.close()
        assert errors == []
        assert [reply.body_root.name.local for reply in replies] == ["SlowResponse"]
        assert _threads_named("drain-tcp") == []

    def test_intermediary_closes_both_channels_of_an_idle_hop(self):
        """Divergence (c): ``stop()`` returned with the hop thread and both
        its channels alive until the *client* hung up."""
        net = MemoryNetwork()
        backend = SoapTcpService(net.listen("backend"), make_dispatcher(), name="c-backend").start()
        hop = TcpIntermediary(
            net.listen("front"),
            lambda: net.connect("backend"),
            inbound_encoding=XMLEncoding(),
            outbound_encoding=XMLEncoding(),
            name="c-hop",
        ).start()
        client = SoapTcpClient(lambda: net.connect("front"))
        open_on_backend = backend.metrics.gauge("soap_tcp_connections_open")
        try:
            client.call(echo_request())
            assert open_on_backend.snapshot() == 1  # the hop's outbound connection
            began = time.monotonic()
            hop.stop()  # the client connection is still open
            assert time.monotonic() - began < 1.0
            assert _threads_named("c-hop") == []
            # the outbound channel closed with the inbound one
            wait_until(lambda: open_on_backend.snapshot() == 0)
        finally:
            client.close()
            backend.stop()

    def test_notification_sink_closes_a_connection_that_never_spoke(self):
        from repro.services.eventing import NotificationSink

        net = MemoryNetwork()
        sink = NotificationSink(net.listen("sink"), lambda _id, _event: None, name="c-sink").start()
        silent = net.connect("sink")
        try:
            # one thread accepting, one parked on the silent peer
            wait_until(lambda: len(_threads_named("c-sink")) == 2)
            began = time.monotonic()
            sink.stop()
            assert time.monotonic() - began < 1.0
            assert _threads_named("c-sink") == []
            assert silent.recv() == b""  # and the peer sees the close
        finally:
            silent.close()

    def test_gridftp_server_wakes_a_sender_parked_on_an_undialled_rendezvous(self):
        from repro.gridftp import GridFTPClient, GridFTPServer, HostCredential, StripeTimeout

        net = MemoryNetwork()
        counter = itertools.count()

        def data_listener_factory():
            name = f"d{next(counter)}"
            return name, net.listen(name)

        credential = HostCredential.generate()
        server = GridFTPServer(net.listen("g"), data_listener_factory, credential, name="c-gftp")
        server.publish("/f.bin", b"\xab" * 4096)
        server.start()
        blackholes = []

        def blackhole_connect(_address):  # dials nowhere: the sender never gets its peer
            a, b = memory_pipe()
            blackholes.append(b)
            return a

        client = GridFTPClient(
            lambda: net.connect("g"), blackhole_connect, credential, stripe_timeout=0.1
        )
        try:
            with pytest.raises(StripeTimeout):
                client.retrieve("/f.bin", 1)
            assert _threads_named("c-gftp-data")  # parked in accept() on the rendezvous
            began = time.monotonic()
            server.stop()  # the control connection is still open, the transfer in flight
            assert time.monotonic() - began < 1.0
            assert _threads_named("c-gftp") == []
        finally:
            for end in blackholes:
                end.close()  # releases the client's abandoned stripe worker
            client.close()

    def test_a_stopped_host_cannot_be_started_again(self):
        net = MemoryNetwork()
        service = SoapTcpService(net.listen("svc"), make_dispatcher()).start()
        with pytest.raises(RuntimeError, match="already running"):
            service.start()
        service.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            service.start()
        with pytest.raises(TransportError):
            net.connect("svc")
