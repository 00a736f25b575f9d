"""Integration tests: the generic SOAP engine over every policy combination."""

import numpy as np
import pytest

from repro.core import (
    BXSAEncoding,
    Dispatcher,
    ServiceProxy,
    SoapEngine,
    SoapEnvelope,
    SoapFault,
    SoapHttpClient,
    SoapHttpService,
    SoapTcpClient,
    SoapTcpService,
    TcpIntermediary,
    XMLEncoding,
)
from repro.transport import MemoryNetwork
from repro.xdm import ArrayElement, array, element, leaf
from repro.xdm.path import children_named


def make_dispatcher() -> Dispatcher:
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request: SoapEnvelope):
        return element("EchoResponse", *request.body_root.children)

    @d.operation("Sum")
    def total(request: SoapEnvelope):
        values = children_named(request.body_root, "values")[0].values
        return element("SumResponse", leaf("total", float(values.sum()), "double"))

    @d.operation("Fail")
    def fail(request: SoapEnvelope):
        raise SoapFault("soap:Server", "deliberate failure", "details here")

    @d.operation("Crash")
    def crash(request: SoapEnvelope):
        raise RuntimeError("unexpected bug")

    return d


ENCODINGS = [XMLEncoding, BXSAEncoding]


class TestTcpService:
    def setup_method(self):
        self.net = MemoryNetwork()
        self.service = SoapTcpService(self.net.listen("svc"), make_dispatcher()).start()

    def teardown_method(self):
        self.service.stop()

    def client(self, encoding_cls):
        return SoapTcpClient(lambda: self.net.connect("svc"), encoding=encoding_cls())

    @pytest.mark.parametrize("encoding_cls", ENCODINGS)
    def test_echo_roundtrip(self, encoding_cls):
        client = self.client(encoding_cls)
        request = SoapEnvelope.wrap(
            element("Echo", leaf("n", 7, "int"), array("v", np.arange(5.0)))
        )
        response = client.call(request)
        root = response.body_root
        assert root.name.local == "EchoResponse"
        assert children_named(root, "n")[0].value == 7
        np.testing.assert_array_equal(
            np.asarray(children_named(root, "v")[0].values), np.arange(5.0)
        )
        client.close()

    @pytest.mark.parametrize("encoding_cls", ENCODINGS)
    def test_typed_computation(self, encoding_cls):
        client = self.client(encoding_cls)
        request = SoapEnvelope.wrap(element("Sum", array("values", np.arange(100.0))))
        response = client.call(request)
        assert children_named(response.body_root, "total")[0].value == float(
            np.arange(100.0).sum()
        )
        client.close()

    @pytest.mark.parametrize("encoding_cls", ENCODINGS)
    def test_fault_propagates(self, encoding_cls):
        client = self.client(encoding_cls)
        with pytest.raises(SoapFault) as info:
            client.call(SoapEnvelope.wrap(element("Fail")))
        assert info.value.code == "soap:Server"
        assert info.value.string == "deliberate failure"
        assert info.value.detail == "details here"
        client.close()

    def test_unexpected_exception_becomes_fault(self):
        client = self.client(XMLEncoding)
        with pytest.raises(SoapFault, match="RuntimeError"):
            client.call(SoapEnvelope.wrap(element("Crash")))
        client.close()

    def test_unknown_operation_is_client_fault(self):
        client = self.client(XMLEncoding)
        with pytest.raises(SoapFault, match="no such operation"):
            client.call(SoapEnvelope.wrap(element("Nope")))
        client.close()

    def test_mixed_encoding_clients_one_server(self):
        """The same server answers XML and BXSA clients, each in kind."""
        xml_client = self.client(XMLEncoding)
        bxsa_client = self.client(BXSAEncoding)
        for client in (xml_client, bxsa_client):
            resp = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 1, "int"))))
            assert resp.body_root.name.local == "EchoResponse"
        xml_client.close()
        bxsa_client.close()

    def test_persistent_connection_many_calls(self):
        client = self.client(BXSAEncoding)
        for i in range(20):
            resp = client.call(SoapEnvelope.wrap(element("Echo", leaf("i", i, "int"))))
            assert children_named(resp.body_root, "i")[0].value == i
        client.close()

    def test_zero_copy_arrays_on_receive(self):
        """BXSA decode hands back views over the received buffer."""
        client = self.client(BXSAEncoding)
        resp = client.call(
            SoapEnvelope.wrap(element("Echo", array("v", np.arange(1000.0))))
        )
        arr_node = children_named(resp.body_root, "v")[0]
        assert isinstance(arr_node, ArrayElement)
        assert arr_node.values.base is not None  # a view, not a copy
        client.close()


class TestHttpService:
    def setup_method(self):
        self.net = MemoryNetwork()
        self.service = SoapHttpService(self.net.listen("web"), make_dispatcher()).start()

    def teardown_method(self):
        self.service.stop()

    def client(self, encoding_cls):
        return SoapHttpClient(lambda: self.net.connect("web"), encoding=encoding_cls())

    @pytest.mark.parametrize("encoding_cls", ENCODINGS)
    def test_echo_over_http(self, encoding_cls):
        client = self.client(encoding_cls)
        resp = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 2.5, "double"))))
        assert children_named(resp.body_root, "x")[0].value == 2.5
        client.close()

    @pytest.mark.parametrize("encoding_cls", ENCODINGS)
    def test_fault_over_http_rides_500(self, encoding_cls):
        client = self.client(encoding_cls)
        with pytest.raises(SoapFault, match="deliberate"):
            client.call(SoapEnvelope.wrap(element("Fail")))
        client.close()

    def test_wrong_endpoint_404(self):
        from repro.transport import TransportError

        client = SoapHttpClient(lambda: self.net.connect("web"), target="/other")
        with pytest.raises(TransportError):
            client.call(SoapEnvelope.wrap(element("Echo")))
        client.close()


class TestProxy:
    def test_invoke_sugar(self):
        net = MemoryNetwork()
        with SoapTcpService(net.listen("svc"), make_dispatcher()):
            proxy = ServiceProxy(
                SoapTcpClient(lambda: net.connect("svc"), encoding=BXSAEncoding())
            )
            result = proxy.invoke("Sum", array("values", np.array([1.0, 2.0, 3.0])))
            assert result.name.local == "SumResponse"
            assert children_named(result, "total")[0].value == 6.0
            proxy.close()


class TestIntermediary:
    def test_xml_clients_bxsa_backbone(self):
        """Clients speak XML; the inter-hop protocol is BXSA (§5.1)."""
        net = MemoryNetwork()
        backend = SoapTcpService(
            net.listen("backend"), make_dispatcher(), encoding=BXSAEncoding()
        ).start()
        hop = TcpIntermediary(
            net.listen("front"),
            lambda: net.connect("backend"),
            inbound_encoding=XMLEncoding(),
            outbound_encoding=BXSAEncoding(),
        ).start()
        try:
            client = SoapTcpClient(lambda: net.connect("front"), encoding=XMLEncoding())
            request = SoapEnvelope.wrap(element("Echo", array("v", np.arange(16.0))))
            response = client.call(request)
            np.testing.assert_array_equal(
                np.asarray(children_named(response.body_root, "v")[0].values),
                np.arange(16.0),
            )
            assert hop.forwarded == 1
            client.close()
        finally:
            hop.stop()
            backend.stop()

    def test_fault_relayed_through_hop(self):
        net = MemoryNetwork()
        backend = SoapTcpService(net.listen("backend"), make_dispatcher()).start()
        hop = TcpIntermediary(
            net.listen("front"),
            lambda: net.connect("backend"),
            inbound_encoding=BXSAEncoding(),
            outbound_encoding=XMLEncoding(),
        ).start()
        try:
            client = SoapTcpClient(lambda: net.connect("front"), encoding=BXSAEncoding())
            with pytest.raises(SoapFault, match="deliberate"):
                client.call(SoapEnvelope.wrap(element("Fail")))
            client.close()
        finally:
            hop.stop()
            backend.stop()


class TestSendGathers:
    def test_a_warm_bxsa_client_hands_the_policy_pieces_to_the_binding(self):
        """Both halves of the engine send through one gather step: cold or
        warm, a bulk request reaches the binding as the policy's pieces,
        its array by reference, not joined into one buffer."""

        class Recording:
            name = "recording"

            def __init__(self):
                self.payloads = []

            def send_request(self, payload, content_type):
                self.payloads.append(payload)
                return 0

            def receive_response(self):
                raise AssertionError("one-way")

        binding = Recording()
        engine = SoapEngine(BXSAEncoding(), binding)
        values = np.arange(100_000, dtype=np.float64)
        envelope = SoapEnvelope.wrap(element("Echo", array("values", values)))
        sizes = [engine.send(envelope) for _ in range(2)]
        cold, warm = binding.payloads
        for pieces in (cold, warm):
            assert type(pieces) is list and len(pieces) > 1
            assert any(np.shares_memory(np.frombuffer(p, "u1"), values) for p in pieces)
        wire = BXSAEncoding().encode(envelope.to_document())
        assert b"".join(warm) == b"".join(cold) == wire
        assert sizes == [len(wire)] * 2
