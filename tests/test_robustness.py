"""Failure injection and fuzzing across the stack.

These tests assert the failure *mode*, not just the absence of success:
malformed input anywhere in the stack must surface as the documented
exception type — never a crash, never a hang, and (server-side) never a
dead service.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BXSAEncoding,
    SoapEnvelope,
    SoapFault,
    SoapTcpClient,
    SoapTcpService,
    XMLEncoding,
)
from repro.netcdf import NetCDFFormatError, read_dataset_bytes, write_dataset_bytes
from repro.services import echo_dispatcher
from repro.transport import (
    MemoryNetwork,
    TransportClosed,
    TransportError,
    memory_pipe,
    write_message,
)
from repro.transport.base import BufferedChannel
from repro.transport.http.messages import HttpError, read_request, read_response
from repro.workloads.lead import lead_dataset
from repro.xdm import element, leaf
from repro.xmlcodec import XMLParseError, parse_document

_fuzz = settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)


class TestHttpFuzz:
    @given(st.binary(min_size=1, max_size=300))
    @_fuzz
    def test_request_parser_never_crashes(self, blob):
        a, b = memory_pipe()
        a.send_all(blob)
        a.close()
        try:
            read_request(BufferedChannel(b))
        except (HttpError, TransportError):
            pass

    @given(st.binary(min_size=1, max_size=300))
    @_fuzz
    def test_response_parser_never_crashes(self, blob):
        a, b = memory_pipe()
        a.send_all(blob)
        a.close()
        try:
            read_response(BufferedChannel(b))
        except (HttpError, TransportError):
            pass

    @given(st.text(max_size=120).filter(lambda s: "\r\n" not in s))
    @_fuzz
    def test_almost_http_headers(self, junk):
        a, b = memory_pipe()
        a.send_all(f"GET / HTTP/1.1\r\n{junk}\r\n\r\n".encode("utf-8", "replace"))
        a.close()
        try:
            read_request(BufferedChannel(b))
        except (HttpError, TransportError):
            pass


class TestNetCDFFuzz:
    @given(st.binary(max_size=400))
    @_fuzz
    def test_reader_never_crashes_on_garbage(self, blob):
        try:
            read_dataset_bytes(blob)
        except NetCDFFormatError:
            pass

    @given(st.data())
    @_fuzz
    def test_bitflipped_valid_files(self, data):
        """A valid file with one flipped header byte parses or rejects —
        no exception type other than NetCDFFormatError escapes."""
        blob = bytearray(write_dataset_bytes(lead_dataset(8).to_netcdf()))
        # flip within the header region (data-region flips just change values)
        position = data.draw(st.integers(0, min(120, len(blob) - 1)))
        bit = data.draw(st.integers(0, 7))
        blob[position] ^= 1 << bit
        try:
            read_dataset_bytes(bytes(blob))
        except NetCDFFormatError:
            pass
        except (KeyError, ValueError, OverflowError, MemoryError) as exc:
            raise AssertionError(f"leaked raw exception {type(exc).__name__}: {exc}")

    def test_negative_dimension_length_is_a_format_error(self):
        blob = bytearray(write_dataset_bytes(lead_dataset(8).to_netcdf()))
        # sign-flip the MSB of the first dimension's big-endian length
        blob[28] ^= 0x80
        with pytest.raises(NetCDFFormatError):
            read_dataset_bytes(bytes(blob))


class TestXMLFuzz:
    @given(st.text(max_size=200))
    @_fuzz
    def test_parser_never_crashes_on_text(self, junk):
        try:
            parse_document(junk)
        except XMLParseError:
            pass

    @given(st.data())
    @_fuzz
    def test_mutated_valid_documents(self, data):
        from repro.xmlcodec import serialize

        xml = serialize(lead_dataset(4).to_document())
        position = data.draw(st.integers(0, len(xml) - 1))
        replacement = data.draw(st.characters(blacklist_categories=("Cs",)))
        mutated = xml[:position] + replacement + xml[position + 1 :]
        try:
            parse_document(mutated)
        except XMLParseError:
            pass


class TestEngineFailureInjection:
    def setup_method(self):
        self.net = MemoryNetwork()
        self.service = SoapTcpService(self.net.listen("svc"), echo_dispatcher()).start()

    def teardown_method(self):
        self.service.stop()

    def _healthy_call(self):
        client = SoapTcpClient(lambda: self.net.connect("svc"), encoding=BXSAEncoding())
        response = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 1, "int"))))
        client.close()
        assert response.body_root.name.local == "EchoResponse"

    def test_garbage_bytes_do_not_kill_service(self):
        channel = self.net.connect("svc")
        channel.send_all(b"\x00\x01\x02 garbage that is not a framed message")
        channel.close()
        self._healthy_call()  # the service must still answer others

    def test_valid_frame_bad_payload_returns_fault(self):
        from repro.core import encoding_for_content_type
        from repro.transport import read_message

        channel = self.net.connect("svc")
        write_message(channel, b"this is not BXSA", "application/bxsa")
        payload, ctype = read_message(channel)
        # the reply must be a decodable fault (in whatever encoding the
        # server chose for the failure report)
        fault_env = SoapEnvelope.from_document(
            encoding_for_content_type(ctype).decode(payload)
        )
        fault = SoapFault.find_in(fault_env.body_children)
        assert fault is not None
        assert "decode" in SoapFault.from_element(fault).string
        channel.close()
        self._healthy_call()

    def test_unsupported_content_type_faults_not_hangs(self):
        from repro.transport import read_message

        channel = self.net.connect("svc")
        write_message(channel, b"{}", "application/json")
        payload, ctype = read_message(channel)
        # server cannot speak json; it answers with its default encoding
        fault_env = SoapEnvelope.from_document(XMLEncoding().decode(payload))
        assert SoapFault.find_in(fault_env.body_children) is not None
        channel.close()

    def test_client_disconnect_mid_request_keeps_service_alive(self):
        channel = self.net.connect("svc")
        # send half a message then vanish
        payload = BXSAEncoding().encode(
            SoapEnvelope.wrap(element("Echo")).to_document()
        )
        frame = bytearray()

        class Capture:
            def send_all(self, data):
                frame.extend(data)

        write_message(Capture(), payload, "application/bxsa")
        channel.send_all(bytes(frame[: len(frame) // 2]))
        channel.close()
        self._healthy_call()

    def test_truncated_response_raises_transport_closed(self):
        """A server that dies mid-response must surface TransportClosed."""
        net = MemoryNetwork()
        listener = net.listen("half")

        def evil_server():
            channel = listener.accept()
            from repro.transport import read_message

            read_message(channel)  # consume the request
            channel.send_all(b"\xb5\x0a")  # magic only, then die
            channel.close()

        thread = threading.Thread(target=evil_server, daemon=True)
        thread.start()
        client = SoapTcpClient(lambda: net.connect("half"), encoding=XMLEncoding())
        with pytest.raises(TransportError):
            client.call(SoapEnvelope.wrap(element("Echo")))
        client.close()
        thread.join(timeout=5)

    def test_concurrent_clients_with_one_malicious(self):
        errors = []

        def good(n):
            try:
                client = SoapTcpClient(
                    lambda: self.net.connect("svc"), encoding=BXSAEncoding()
                )
                for i in range(5):
                    client.call(SoapEnvelope.wrap(element("Echo", leaf("i", i, "int"))))
                client.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def bad():
            channel = self.net.connect("svc")
            channel.send_all(b"\xff" * 64)
            channel.close()

        threads = [threading.Thread(target=good, args=(n,)) for n in range(3)]
        threads.append(threading.Thread(target=bad))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []


class TestCrossEndian:
    def test_big_endian_client_little_endian_server(self):
        """A BE-encoding client interoperates with a host-order server —
        BXSA's per-frame byte order at work through the whole stack."""
        from repro.xbs import BIG_ENDIAN

        net = MemoryNetwork()
        with SoapTcpService(net.listen("svc"), echo_dispatcher()):
            client = SoapTcpClient(
                lambda: net.connect("svc"), encoding=BXSAEncoding(BIG_ENDIAN)
            )
            from repro.xdm import array
            from repro.xdm.path import children_named

            values = np.array([1.5, -2.25, 3e300])
            response = client.call(
                SoapEnvelope.wrap(element("Echo", array("v", values)))
            )
            echoed = children_named(response.body_root, "v")[0].values
            np.testing.assert_array_equal(np.asarray(echoed, dtype="f8"), values)
            client.close()


class TestMmapDecode:
    def test_decode_from_memory_mapped_file(self, tmp_path):
        """The paper's ArrayElement memory-mapped I/O property: decode a
        BXSA document straight from an mmap with zero-copy array views."""
        import mmap

        from repro.bxsa import decode, encode
        from repro.xdm import array

        values = np.arange(100_000, dtype="f8")
        blob = encode(element("d", array("v", values)))
        path = tmp_path / "doc.bxsa"
        path.write_bytes(blob)

        import gc

        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                node = decode(memoryview(mapped))
                arr = node.children[0].values
                # the array data lives in the mapping, not in a copy
                assert arr.base is not None
                np.testing.assert_array_equal(arr[:5], values[:5])
                total = float(arr.sum())
            finally:
                # zero-copy views pin the mapping; drop them before closing
                del arr, node
                gc.collect()
                mapped.close()
        assert total == float(values.sum())


# ---------------------------------------------------------------------------
# fault injection & resilience (PR 1)


class TestFaultScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        from repro.netsim.faults import FaultProfile, FaultSchedule

        profile = FaultProfile(
            name="mix", reset_rate=0.2, truncate_rate=0.1, stall_rate=0.1, slow_read_rate=0.2
        )
        a, b = FaultSchedule(profile, seed=42), FaultSchedule(profile, seed=42)
        for schedule in (a, b):
            for _ in range(200):
                schedule.next_send_fault()
                schedule.next_recv_fault()
        assert a.injected == b.injected
        assert a.faults_injected == b.faults_injected

    def test_different_seed_different_schedule(self):
        from repro.netsim.faults import FaultProfile, FaultSchedule

        profile = FaultProfile(name="r", reset_rate=0.3)
        draws = []
        for seed in (1, 2):
            schedule = FaultSchedule(profile, seed=seed)
            draws.append([schedule.next_recv_fault() for _ in range(100)])
        assert draws[0] != draws[1]

    def test_max_faults_budget_guarantees_clean_tail(self):
        from repro.netsim.faults import FaultProfile, FaultSchedule

        schedule = FaultSchedule(FaultProfile(name="always", reset_rate=1.0, max_faults=3))
        faults = [schedule.next_recv_fault() for _ in range(10)]
        assert faults[:3] == ["reset"] * 3 and faults[3:] == [None] * 7

    def test_lossless_profile_never_faults(self):
        from repro.netsim.faults import LOSSLESS, FaultSchedule

        schedule = FaultSchedule(LOSSLESS, seed=0)
        assert all(
            schedule.next_send_fault() is None and schedule.next_recv_fault() is None
            for _ in range(100)
        )


class TestFaultingChannel:
    def test_reset_on_send_closes_and_raises(self):
        from repro.netsim.faults import FaultProfile, FaultSchedule, FaultingChannel, InjectedReset

        a, b = memory_pipe()
        schedule = FaultSchedule(FaultProfile(name="r", reset_rate=1.0, max_faults=1))
        faulty = FaultingChannel(a, schedule)
        with pytest.raises(InjectedReset):
            faulty.send_all(b"hello")
        # the peer observes a close, exactly like a real RST-then-EOF
        assert b.recv() == b""

    def test_truncate_delivers_prefix_then_closes(self):
        from repro.netsim.faults import FaultProfile, FaultSchedule, FaultingChannel, InjectedFault

        a, b = memory_pipe()
        schedule = FaultSchedule(FaultProfile(name="t", truncate_rate=1.0, max_faults=1))
        faulty = FaultingChannel(a, schedule)
        with pytest.raises(InjectedFault):
            faulty.send_all(b"0123456789")
        delivered = b.recv()
        assert 0 < len(delivered) < 10 and b"0123456789".startswith(delivered)

    def test_injected_faults_are_transport_errors(self):
        from repro.netsim.faults import InjectedFault, InjectedReset

        assert issubclass(InjectedFault, TransportError)
        assert issubclass(InjectedReset, TransportClosed)


class TestResilientSoapInvoke:
    """The ISSUE's acceptance gate: a BXSA/TCP and an HTTP-binding SOAP
    invoke each complete under an injected connection-reset schedule,
    within a bounded retry budget."""

    RESETS = 2

    def _profile(self):
        from repro.netsim.faults import FaultProfile

        return FaultProfile(name="resets", reset_rate=1.0, max_faults=self.RESETS)

    def _retry(self):
        from repro.transport import RetryPolicy

        return RetryPolicy(max_attempts=self.RESETS + 2, base_backoff=0.0, jitter=0.0)

    def test_bxsa_tcp_invoke_survives_resets(self):
        from repro.netsim.faults import FaultSchedule, faulty_connect

        net = MemoryNetwork()
        with SoapTcpService(net.listen("svc"), echo_dispatcher(), encoding=BXSAEncoding()):
            schedule = FaultSchedule(self._profile(), seed=3)
            connects = []
            def connect():
                connects.append(1)
                return net.connect("svc")
            client = SoapTcpClient(
                faulty_connect(connect, schedule),
                encoding=BXSAEncoding(),
                retry=self._retry(),
                idempotent=True,
            )
            response = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 7, "int"))))
            client.close()
        assert response.body_root.name.local == "EchoResponse"
        assert schedule.faults_injected == self.RESETS
        assert len(connects) <= self.RESETS + 2  # bounded, not unbounded reconnects

    def test_http_binding_invoke_survives_resets(self):
        from repro.core.service import SoapHttpService
        from repro.core.client import SoapHttpClient
        from repro.netsim.faults import FaultSchedule, faulty_connect

        net = MemoryNetwork()
        with SoapHttpService(net.listen("svc"), echo_dispatcher(), encoding=XMLEncoding()):
            schedule = FaultSchedule(self._profile(), seed=3)
            connects = []
            def connect():
                connects.append(1)
                return net.connect("svc")
            client = SoapHttpClient(
                faulty_connect(connect, schedule),
                encoding=XMLEncoding(),
                retry=self._retry(),
                idempotent=True,
            )
            response = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 7, "int"))))
            client.close()
        assert response.body_root.name.local == "EchoResponse"
        assert schedule.faults_injected == self.RESETS
        assert len(connects) <= self.RESETS + 2

    def test_exhausted_budget_surfaces_typed_error(self):
        from repro.netsim.faults import FaultProfile, FaultSchedule, faulty_connect
        from repro.transport import RetryBudgetExhausted, RetryPolicy

        net = MemoryNetwork()
        with SoapTcpService(net.listen("svc"), echo_dispatcher(), encoding=BXSAEncoding()):
            schedule = FaultSchedule(FaultProfile(name="dead", reset_rate=1.0), seed=0)
            client = SoapTcpClient(
                faulty_connect(lambda: net.connect("svc"), schedule),
                encoding=BXSAEncoding(),
                retry=RetryPolicy(max_attempts=3, base_backoff=0.0, jitter=0.0),
                idempotent=True,
            )
            with pytest.raises(RetryBudgetExhausted) as info:
                client.call(SoapEnvelope.wrap(element("Echo")))
            client.close()
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, TransportError)

    def test_engine_resilience_degrades_to_soap_fault(self):
        """With a ResiliencePolicy installed, exhausted transport retries
        surface as a SOAP fault — graceful degradation, not a raw error."""
        from repro.core.engine import SoapEngine
        from repro.netsim.faults import FaultProfile, FaultSchedule, faulty_connect
        from repro.transport import ResiliencePolicy, RetryPolicy
        from repro.transport.tcp_binding import TcpClientBinding

        net = MemoryNetwork()
        net.listen("void")  # accepts, but resets happen before any byte
        schedule = FaultSchedule(FaultProfile(name="dead", reset_rate=1.0), seed=0)
        connect = faulty_connect(lambda: net.connect("void"), schedule)
        engine = SoapEngine(
            BXSAEncoding(),
            TcpClientBinding(connect()),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0), idempotent=True
            ),
        )
        with pytest.raises(SoapFault) as info:
            engine.call(SoapEnvelope.wrap(element("Echo")))
        assert "degraded gracefully" in str(info.value)


class TestDuplicatePostRegression:
    """The PR's headline bugfix: a non-idempotent POST must never be
    applied twice, even when the server resets after applying it."""

    def _first_post_then_reset_server(self, net, applied, answer_second=True):
        """Applies the first POST, then resets with zero response bytes.
        If ``answer_second``, a second connection gets a 200.  Returns the
        listener and the thread: a caller whose client never reconnects
        closes the one to end (and then joins) the other."""
        listener = net.listen("web")

        def serve():
            channel = listener.accept()
            request = read_request(BufferedChannel(channel))
            applied.append(request.body)  # state change happens HERE
            channel.close()  # reset before any response byte
            if not answer_second:
                return
            try:
                channel = listener.accept()
            except TransportError:
                return
            request = read_request(BufferedChannel(channel))
            applied.append(request.body)
            from repro.transport.http.messages import HttpResponse

            channel.send_all(HttpResponse(200, body=b"ok").to_bytes())
            channel.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread

    def test_non_idempotent_post_never_replayed(self):
        from repro.transport.http.client import HttpClient

        net = MemoryNetwork()
        applied = []
        listener, server = self._first_post_then_reset_server(net, applied)
        connects = []

        def connect():
            connects.append(1)
            return net.connect("web")

        client = HttpClient(connect)
        with pytest.raises(TransportError):
            client.request("POST", "/apply", body=b"debit $100")
        client.close()
        listener.close()  # the second connection the server waits for never comes
        server.join(5)
        assert not server.is_alive()
        assert applied == [b"debit $100"]  # applied exactly once
        assert len(connects) == 1  # and never even re-sent

    def test_idempotent_marked_post_retries_and_succeeds(self):
        from repro.transport.http.client import HttpClient

        net = MemoryNetwork()
        applied = []
        self._first_post_then_reset_server(net, applied)
        client = HttpClient(lambda: net.connect("web"))
        response = client.request("POST", "/apply", body=b"put k=v", idempotent=True)
        client.close()
        assert response.ok and response.body == b"ok"
        assert applied == [b"put k=v", b"put k=v"]  # replay was declared safe

    def test_post_with_response_bytes_consumed_never_retried(self):
        """Even an idempotent-marked POST must not be replayed once any
        response byte has been read (the reply may have committed)."""
        from repro.transport.http.client import HttpClient

        net = MemoryNetwork()
        applied = []
        listener = net.listen("web")

        def serve():
            channel = listener.accept()
            request = read_request(BufferedChannel(channel))
            applied.append(request.body)
            channel.send_all(b"HTTP/1.1 2")  # partial status line, then die
            channel.close()

        threading.Thread(target=serve, daemon=True).start()
        client = HttpClient(lambda: net.connect("web"))
        with pytest.raises(TransportError):
            client.request("POST", "/apply", body=b"x", idempotent=True)
        client.close()
        assert applied == [b"x"]


class TestStripeTimeout:
    def test_stalled_stripe_worker_raises_not_hangs(self):
        """A data channel that never delivers EOF must surface
        StripeTimeout with partial-transfer state — not silently return a
        buffer with holes (the old behaviour)."""
        import itertools

        from repro.gridftp import GridFTPClient, GridFTPServer, HostCredential, StripeTimeout

        net = MemoryNetwork()
        counter = itertools.count()

        def data_listener_factory():
            name = f"d{next(counter)}"
            return name, net.listen(name)

        credential = HostCredential.generate()
        server = GridFTPServer(net.listen("g"), data_listener_factory, credential)
        server.publish("/f.bin", b"\xab" * 4096)
        server.start()
        try:
            # connect the data channel somewhere nobody ever writes: the
            # worker blocks forever waiting for its first block header
            def blackhole_connect(_address):
                a, _b = memory_pipe()
                return a

            client = GridFTPClient(
                lambda: net.connect("g"),
                blackhole_connect,
                credential,
                stripe_timeout=0.2,
            )
            with pytest.raises(StripeTimeout) as info:
                client.retrieve("/f.bin", 1)
            assert info.value.stats is not None
            assert info.value.stats.blocks_received == 0
            assert "1/1 stripe workers" in str(info.value)
            # the stalled worker was woken by closing its channel, and joined
            assert not [t for t in threading.enumerate() if t.name.startswith("gridftp-stripe-")]
        finally:
            server.stop()


class TestFaultRecoveryProperties:
    """Property: under ANY seeded fault schedule, an invoke either
    completes (faults absorbed within the retry budget) or raises a typed
    error — never a hang, never an unknown exception type."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tcp_invoke_recovers_or_raises_typed(self, seed):
        from repro.netsim.faults import FaultProfile, FaultSchedule, faulty_connect
        from repro.transport import RetryBudgetExhausted, RetryPolicy

        profile = FaultProfile(
            name="mix",
            reset_rate=0.25,
            truncate_rate=0.15,
            slow_read_rate=0.2,
            stall_rate=0.1,
            stall_seconds=0.001,
        )
        net = MemoryNetwork()
        with SoapTcpService(net.listen("svc"), echo_dispatcher(), encoding=BXSAEncoding()):
            schedule = FaultSchedule(profile, seed=seed)
            client = SoapTcpClient(
                faulty_connect(lambda: net.connect("svc"), schedule),
                encoding=BXSAEncoding(),
                retry=RetryPolicy(max_attempts=4, base_backoff=0.0, jitter=0.0),
                idempotent=True,
            )
            try:
                response = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 1, "int"))))
                assert response.body_root.name.local == "EchoResponse"
            except (RetryBudgetExhausted, TransportError):
                pass  # typed surrender is acceptable; anything else fails
            finally:
                client.close()

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bounded_fault_count_always_recovers(self, seed):
        """With the fault budget strictly below the retry budget, the
        invoke MUST succeed — recovery is guaranteed, not probabilistic."""
        from repro.netsim.faults import FaultProfile, FaultSchedule, faulty_connect
        from repro.transport import RetryPolicy

        profile = FaultProfile(name="bounded", reset_rate=1.0, max_faults=2)
        net = MemoryNetwork()
        with SoapTcpService(net.listen("svc"), echo_dispatcher(), encoding=BXSAEncoding()):
            schedule = FaultSchedule(profile, seed=seed)
            client = SoapTcpClient(
                faulty_connect(lambda: net.connect("svc"), schedule),
                encoding=BXSAEncoding(),
                retry=RetryPolicy(max_attempts=4, base_backoff=0.0, jitter=0.0),
                idempotent=True,
            )
            response = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 1, "int"))))
            client.close()
        assert response.body_root.name.local == "EchoResponse"


class TestDeadlines:
    def test_deadline_channel_raises_on_expired_budget(self):
        from repro.transport import Deadline, DeadlineChannel, DeadlineExceeded

        a, b = memory_pipe()
        shim = DeadlineChannel(a, Deadline.after(0.0))
        with pytest.raises(DeadlineExceeded):
            shim.recv()
        b.close()

    def test_call_deadline_beats_dribbling_server(self):
        """A server that dribbles a byte at a time and never finishes: the
        per-call deadline turns an unbounded wait into DeadlineExceeded.
        (Deadlines are enforced at operation boundaries, so progress —
        however slow — is what gives the check its opportunities.)"""
        import time as _time

        from repro.transport import DeadlineExceeded

        net = MemoryNetwork()
        listener = net.listen("tarpit")
        done = threading.Event()

        def tarpit():
            import struct

            channel = listener.accept()
            from repro.transport import read_message

            read_message(channel)  # consume the request, then stall
            # a valid frame header promising a megabyte...
            ctag = b"text/xml"
            channel.send_all(b"\xb5\x0a" + bytes((len(ctag),)) + ctag + struct.pack(">I", 1 << 20))
            for _ in range(1000):  # ...delivered one byte at a time (~10s, far past the deadline)
                try:
                    channel.send_all(b"x")
                except TransportError:
                    return
                if done.wait(0.01):
                    return

        server = threading.Thread(target=tarpit, daemon=True)
        server.start()
        client = SoapTcpClient(lambda: net.connect("tarpit"), encoding=XMLEncoding())
        start = _time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.call(SoapEnvelope.wrap(element("Echo")), deadline=0.15)
        assert _time.monotonic() - start < 5.0  # bounded, nowhere near a hang
        client.close()
        done.set()
        server.join(5)
        assert not server.is_alive()

    def test_deadline_never_retried(self):
        """DeadlineExceeded is terminal: retrying past a blown budget
        would only blow it further."""
        from repro.transport import Deadline, DeadlineExceeded, RetryPolicy, retry_call

        attempts = []

        def op(n):
            attempts.append(n)
            raise DeadlineExceeded("budget gone")

        with pytest.raises(DeadlineExceeded):
            retry_call(
                op,
                RetryPolicy(max_attempts=5, base_backoff=0.0),
                deadline=Deadline.after(10.0),
                retryable=lambda exc: True,
            )
        assert attempts == [1]
