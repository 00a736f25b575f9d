"""Unit tests for channels, framing and instrumentation."""

import gc
import random
import threading
import weakref

import numpy as np
import pytest

from repro.netsim.faults import FaultingChannel, FaultProfile, FaultSchedule, InjectedReset

from repro.transport import (
    ChannelStats,
    InstrumentedChannel,
    MemoryNetwork,
    TcpListener,
    TransportClosed,
    TransportError,
    connect_tcp,
    memory_pipe,
    read_message,
    write_message,
)
from repro.transport.base import (
    MAX_READ_BYTES,
    BufferedChannel,
    Landing,
    land,
    read_size,
    recv_exactly,
    take,
)
from repro.transport.http import HttpClient
from repro.transport.resilience import Deadline, DeadlineChannel, DeadlineExceeded
from repro.transport.sockets import SocketChannel


class TestMemoryPipe:
    def test_bidirectional(self):
        a, b = memory_pipe()
        a.send_all(b"ping")
        assert b.recv() == b"ping"
        b.send_all(b"pong")
        assert a.recv() == b"pong"

    def test_partial_reads(self):
        a, b = memory_pipe()
        a.send_all(b"abcdef")
        assert b.recv(2) == b"ab"
        assert b.recv(2) == b"cd"
        assert b.recv(10) == b"ef"

    def test_eof_after_close(self):
        a, b = memory_pipe()
        a.send_all(b"bye")
        a.close()
        assert b.recv() == b"bye"
        assert b.recv() == b""
        assert b.recv() == b""  # EOF is sticky

    def test_send_after_close_raises(self):
        a, _b = memory_pipe()
        a.close()
        with pytest.raises(TransportClosed):
            a.send_all(b"x")

    def test_cross_thread(self):
        a, b = memory_pipe()
        received = []

        def reader():
            received.append(recv_exactly(b, 5))

        t = threading.Thread(target=reader)
        t.start()
        a.send_all(b"12")
        a.send_all(b"345")
        t.join(timeout=5)
        assert received == [b"12345"]


class TestMemoryNetwork:
    def test_listen_connect(self):
        net = MemoryNetwork()
        listener = net.listen("svc")
        client = net.connect("svc")
        server = listener.accept()
        client.send_all(b"hello")
        assert server.recv() == b"hello"

    def test_connection_refused(self):
        with pytest.raises(TransportError):
            MemoryNetwork().connect("nobody")

    def test_duplicate_listen_rejected(self):
        net = MemoryNetwork()
        net.listen("svc")
        with pytest.raises(TransportError):
            net.listen("svc")

    def test_listener_close_unblocks_accept(self):
        net = MemoryNetwork()
        listener = net.listen("svc")
        results = []

        def acceptor():
            try:
                listener.accept()
            except TransportClosed:
                results.append("closed")

        t = threading.Thread(target=acceptor)
        t.start()
        listener.close()
        t.join(timeout=5)
        assert results == ["closed"]

    def test_name_freed_after_close(self):
        net = MemoryNetwork()
        net.listen("svc").close()
        net.listen("svc")  # must not raise


class TestSockets:
    def test_loopback_roundtrip(self):
        listener = TcpListener()
        server_side = {}

        def serve():
            ch = listener.accept()
            server_side["data"] = recv_exactly(ch, 4)
            ch.send_all(b"ok")
            ch.close()

        t = threading.Thread(target=serve)
        t.start()
        client = connect_tcp("127.0.0.1", listener.port)
        client.send_all(b"ping")
        assert recv_exactly(client, 2) == b"ok"
        t.join(timeout=5)
        assert server_side["data"] == b"ping"
        client.close()
        listener.close()

    def test_connect_refused(self):
        listener = TcpListener()
        port = listener.port
        listener.close()
        with pytest.raises(TransportError):
            connect_tcp("127.0.0.1", port, timeout=1)


class TestBufferedChannel:
    def test_recv_until_keeps_remainder(self):
        a, b = memory_pipe()
        a.send_all(b"HEAD\r\n\r\nBODY")
        buffered = BufferedChannel(b)
        assert buffered.recv_until(b"\r\n\r\n") == b"HEAD\r\n\r\n"
        assert buffered.recv_exactly(4) == b"BODY"

    def test_recv_until_across_chunks(self):
        a, b = memory_pipe()
        buffered = BufferedChannel(b)
        a.send_all(b"par")
        a.send_all(b"t1|par")
        a.send_all(b"t2|")
        assert buffered.recv_until(b"|") == b"part1|"
        assert buffered.recv_until(b"|") == b"part2|"

    def test_recv_until_eof(self):
        a, b = memory_pipe()
        a.send_all(b"no delimiter")
        a.close()
        with pytest.raises(TransportClosed):
            BufferedChannel(b).recv_until(b"|")

    def test_recv_until_limit(self):
        a, b = memory_pipe()
        a.send_all(b"x" * 2048)
        with pytest.raises(TransportError):
            BufferedChannel(b).recv_until(b"|", max_bytes=1024)

    def test_a_head_read_takes_little_of_the_body_behind_it(self):
        """What a head read takes past the delimiter is copied into the
        body's landing, and a 64 KiB read allocated 64 KiB buffers beside
        every landing (DESIGN.md §10): under 4 KiB stays buffered."""
        a, b = memory_pipe()
        a.send_all(b"HEAD\r\n\r\n" + b"x" * (1 << 20))
        buffered = BufferedChannel(b)
        assert buffered.recv_until(b"\r\n\r\n") == b"HEAD\r\n\r\n"
        assert 0 < len(buffered._buf) < 4096
        assert land(buffered, 1 << 20) == b"x" * (1 << 20)


class TestSizedReads:
    def test_take_cuts_a_slice_and_drops_the_front(self):
        buf = bytearray(b"HEAD|BODY|rest")
        assert take(buf, 9, 5) == b"BODY" and buf == b"|rest"
        out = take(buf, 1 << 20)  # an end past the buffer clamps, like a slice
        assert (out, type(out), buf) == (b"|rest", bytes, b"")
        buf += b"again"  # the view was released: the buffer still resizes
        assert take(buf, 2) == b"ag"

    def test_a_declared_length_never_sizes_a_read(self):
        assert read_size(1) == 1 and read_size(200_000) == 200_000
        for claimed in (MAX_READ_BYTES + 1, 10**15, 2**63, 2**64 + 5):
            assert read_size(claimed) == MAX_READ_BYTES

    def test_recv_exactly_asks_for_what_is_owed_under_the_ceiling(self):
        asked = []

        class Claimed:
            """A peer that declared 2**64 + 5 bytes and sent ten."""

            def recv(self, max_bytes):
                asked.append(max_bytes)
                return b"x" * 10 if len(asked) == 1 else b""

        with pytest.raises(TransportClosed, match="10/"):
            recv_exactly(Claimed(), 2**64 + 5)
        assert asked == [MAX_READ_BYTES, MAX_READ_BYTES]
        a, b = memory_pipe()
        a.send_all(b"abc")
        a.send_all(b"defgh")
        assert recv_exactly(b, 7) == b"abcdefg"


class TestFraming:
    def test_message_roundtrip(self):
        a, b = memory_pipe()
        n = write_message(a, b"payload", "application/bxsa")
        payload, ctype = read_message(b)
        assert payload == b"payload"
        assert ctype == "application/bxsa"
        assert n == len(b"payload") + 2 + 1 + len("application/bxsa") + 4

    def test_empty_payload(self):
        a, b = memory_pipe()
        write_message(a, b"", "text/xml")
        assert read_message(b) == (b"", "text/xml")

    def test_multiple_messages_in_order(self):
        a, b = memory_pipe()
        write_message(a, b"one", "t/a")
        write_message(a, b"two", "t/b")
        assert read_message(b) == (b"one", "t/a")
        assert read_message(b) == (b"two", "t/b")

    def test_bad_magic(self):
        a, b = memory_pipe()
        a.send_all(b"XXjunk")
        with pytest.raises(TransportError):
            read_message(b)

    def test_truncated_message(self):
        a, b = memory_pipe()
        frame = bytearray()

        class Capture:
            def send_all(self, data):
                frame.extend(data)

        write_message(Capture(), b"payload", "t/x")
        a.send_all(bytes(frame[:-3]))
        a.close()
        with pytest.raises(TransportClosed):
            read_message(b)

    def test_oversize_content_type_rejected(self):
        a, _b = memory_pipe()
        with pytest.raises(TransportError):
            write_message(a, b"", "x" * 300)


class TestInstrumentation:
    def test_counts_both_directions(self):
        a, b = memory_pipe()
        ia = InstrumentedChannel(a)
        ib = InstrumentedChannel(b)
        ia.send_all(b"12345")
        assert ib.recv() == b"12345"
        ib.send_all(b"67")
        assert ia.recv() == b"67"
        assert ia.stats.bytes_sent == 5
        assert ia.stats.bytes_received == 2
        assert ib.stats.bytes_sent == 2
        assert ib.stats.bytes_received == 5

    def test_shared_stats_accumulate(self):
        stats = ChannelStats()
        a, b = memory_pipe()
        c, d = memory_pipe()
        ia = InstrumentedChannel(a, stats)
        ic = InstrumentedChannel(c, stats)
        ia.send_all(b"123")
        ic.send_all(b"4567")
        assert stats.bytes_sent == 7
        assert stats.sends == 2

    def test_merge(self):
        s1 = ChannelStats(bytes_sent=10, bytes_received=5, sends=2, receives=1)
        s2 = ChannelStats(bytes_sent=1, bytes_received=2, sends=1, receives=1)
        s1.merge(s2)
        assert s1.bytes_sent == 11
        assert s1.total_bytes == 18

    def test_chunked_reader_counts_one_burst(self):
        """A reader draining one message in many small recv() calls is one
        receive burst, not one per chunk (the seed inflated the count)."""
        a, b = memory_pipe()
        ib = InstrumentedChannel(b)
        a.send_all(b"0123456789")
        chunks = []
        while len(b"".join(chunks)) < 10:
            chunks.append(ib.recv(3))  # 4 chunked reads of one message
        assert b"".join(chunks) == b"0123456789"
        assert ib.stats.bytes_received == 10
        assert ib.stats.receives == 1

    def test_send_breaks_the_recv_run(self):
        """Request/response turns still count one burst per response."""
        a, b = memory_pipe()
        ib = InstrumentedChannel(b)
        for payload in (b"first-reply", b"second-reply"):
            a.send_all(payload)
            ib.send_all(b"req")  # the turn-taking boundary
            got = b""
            while len(got) < len(payload):
                got += ib.recv(4)
            assert got == payload
        assert ib.stats.receives == 2
        assert ib.stats.sends == 2

    def test_empty_recv_does_not_start_a_burst(self):
        a, b = memory_pipe()
        ib = InstrumentedChannel(b)
        a.send_all(b"x")
        a.close()
        assert ib.recv() == b"x"
        assert ib.recv() == b""  # EOF
        assert ib.stats.receives == 1


class RecvOnly:
    """A channel written against the three-method protocol (the ledger's
    traced channel is one): no ``recv_into``, no ``send_pieces``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.sends = []

    def send_all(self, data) -> None:
        self.sends.append(bytes(data))
        self._inner.send_all(data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        return self._inner.recv(max_bytes)

    def close(self) -> None:
        self._inner.close()


class TestRecvInto:
    """``Channel.recv_into`` on every channel the stack is built from."""

    def test_memory_pipe_lands_what_fits_and_keeps_the_rest(self):
        a, b = memory_pipe()
        a.send_all(b"0123456789")
        a.send_all(b"ab")
        view = memoryview(bytearray(4))
        assert (b.recv_into(view), bytes(view)) == (4, b"0123")
        assert b.recv(3) == b"456"  # the remainder is one buffer for both reads
        assert (b.recv_into(view), bytes(view[:3])) == (3, b"789")
        assert (b.recv_into(view), bytes(view[:2])) == (2, b"ab")  # a chunk that fits
        a.close()
        assert b.recv_into(view) == 0 and b.recv_into(view) == 0  # EOF is sticky

    def test_socket_channel(self):
        listener = TcpListener()
        client = connect_tcp(*listener.address)
        server = listener.accept()
        try:
            client.send_all(b"hello")
            view = memoryview(bytearray(16))
            assert (server.recv_into(view), bytes(view[:5])) == (5, b"hello")
            client.close()
            assert server.recv_into(view) == 0
        finally:
            server.close()
            listener.close()

    def test_buffered_channel_drains_its_own_buffer_first(self):
        a, b = memory_pipe()
        a.send_all(b"HEAD|BODY")
        a.send_all(b"more")
        buffered = BufferedChannel(b)
        assert buffered.recv_until(b"|") == b"HEAD|"
        view = memoryview(bytearray(16))
        # what was read past the delimiter, and only that: it never blocks
        # on the channel while it holds bytes
        assert (buffered.recv_into(view), bytes(view[:4])) == (4, b"BODY")
        assert (buffered.recv_into(view), bytes(view[:4])) == (4, b"more")

    def test_instrumented_channel_counts_a_landing_as_one_burst(self):
        a, b = memory_pipe()
        ib = InstrumentedChannel(b)
        a.send_all(b"0123456789")
        assert land(ib, 10) == b"0123456789"
        assert (ib.stats.bytes_received, ib.stats.receives) == (10, 1)

    def test_deadline_channel_checks_around_the_read(self):
        a, b = memory_pipe()
        a.send_all(b"late")
        expired = DeadlineChannel(b, Deadline.after(-1))
        with pytest.raises(DeadlineExceeded):
            expired.recv_into(memoryview(bytearray(4)))
        assert land(DeadlineChannel(b, Deadline.after(5)), 4) == b"late"

    def test_faulting_channel_draws_one_decision_per_read(self):
        a, b = memory_pipe()
        a.send_all(b"dribble")
        slow = FaultingChannel(b, FaultSchedule(FaultProfile(slow_read_rate=1.0), seed=1))
        view = memoryview(bytearray(8))
        assert (slow.recv_into(view), bytes(view[:1])) == (1, b"d")
        assert land(slow, 6) == b"ribble"  # a byte a read: the landing loops
        reset = FaultingChannel(b, FaultSchedule(FaultProfile(reset_rate=1.0), seed=1))
        with pytest.raises(InjectedReset):
            reset.recv_into(view)

    def test_a_three_method_channel_is_read_through_recv(self):
        a, b = memory_pipe()
        a.send_all(b"abc")
        a.send_all(b"defgh")
        # under every wrapper a client stacks, as the ledger's traced client does
        stacked = BufferedChannel(DeadlineChannel(InstrumentedChannel(RecvOnly(b))))
        assert land(stacked, 7) == b"abcdefg"
        assert stacked.recv(10) == b"h"


class TestLanding:
    """One receive path for a body whose length was declared."""

    def test_land_hands_on_a_read_only_view_of_exactly_the_body(self):
        a, b = memory_pipe()
        a.send_all(b"abc")
        a.send_all(b"defgh")
        body = land(b, 7)
        assert type(body) is memoryview and body.readonly
        assert body == b"abcdefg" and bytes(body) == b"abcdefg"
        with pytest.raises(TypeError):
            body[0] = 0
        assert b.recv(10) == b"h"  # never into the next message
        assert land(b, 0) == b""  # a body of nothing is the same type
        assert type(land(b, 0)) is memoryview

    def test_what_arrived_with_the_head_is_the_bodys_first_bytes(self):
        a, b = memory_pipe()
        a.send_all(b"456789")
        landing = Landing(10, memoryview(b"0123"))
        assert (landing.filled, landing.missing) == (4, 6)
        assert landing.fill(b) == 6 and landing.missing == 0
        assert landing.body() == b"0123456789"
        whole = Landing(4, b"done")  # complete on arrival: nothing to fill
        assert whole.missing == 0 and whole.body() == b"done"

    def test_peer_closing_mid_body_says_how_far_it_got(self):
        a, b = memory_pipe()
        a.send_all(b"x" * 10)
        a.close()
        with pytest.raises(TransportClosed, match="10/64 bytes"):
            land(b, 64)

    @pytest.mark.parametrize("claimed", [MAX_READ_BYTES + 1, 10**15, 2**63, 2**64 + 5])
    def test_a_declared_length_sizes_neither_the_buffer_nor_a_read(self, claimed):
        asked = []

        class Claimed:
            """A peer that declared ``claimed`` bytes and sent ten."""

            def recv_into(self, view):
                asked.append(len(view))
                view[:10] = b"x" * 10
                return 10 if len(asked) == 1 else 0

        with pytest.raises(TransportClosed, match="10/"):
            land(Claimed(), claimed)
        assert asked == [MAX_READ_BYTES, MAX_READ_BYTES - 10]

    def test_a_body_past_the_ceiling_outgrows_the_buffer_by_what_arrived(self, monkeypatch):
        from repro.transport import base

        monkeypatch.setattr(base, "MAX_READ_BYTES", 1024)
        payload = random.Random(24).randbytes(5000)
        buffers = []  # the landing buffer's size at each read: what is filled + the window

        class Source:
            def __init__(self) -> None:
                self.sent = 0

            def recv_into(self, view):
                buffers.append(self.sent + len(view))
                n = min(len(view), 700, len(payload) - self.sent)
                view[:n] = payload[self.sent : self.sent + n]
                self.sent += n
                return n

        assert land(Source(), len(payload)) == payload
        # each size only once the one before is full, four times what it
        # holds, and never past what is declared
        assert sorted(set(buffers)) == [1024, 4096, 5000] and buffers == sorted(buffers)

    def test_a_body_past_the_ceiling_lands_with_one_regrowth_per_fourfold(self, monkeypatch):
        """Sixteen ceilings' worth over a real socket: the buffer regrows
        twice (1 → 4 → 16 ceilings), so the traced peak is the body plus
        the quarter it outgrew — doubling held 1.5 bodies at its last step
        and copied 15 ceilings' worth on the way."""
        import socket
        import tracemalloc

        from repro.transport import base

        ceiling = 64 << 10
        monkeypatch.setattr(base, "MAX_READ_BYTES", ceiling)
        payload = random.Random(25).randbytes(16 * ceiling)
        near, far = socket.socketpair()
        sender = threading.Thread(target=far.sendall, args=(payload,))
        tracemalloc.start()
        try:
            sender.start()
            body = land(near, len(payload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            near.close()  # a failed landing must not leave the sender blocked
            sender.join()
            far.close()
        assert body == payload
        assert len(payload) + ceiling < peak <= 1.3 * len(payload), peak / len(payload)

    def test_the_buffer_lives_as_long_as_any_view_of_it_and_no_longer(self):
        a, b = memory_pipe()
        values = np.arange(1000, dtype="f8")
        a.send_all(values.tobytes())
        body = land(b, values.nbytes)
        buffer = weakref.ref(body.obj)
        decoded = np.frombuffer(body, dtype="f8")  # what ``decode(copy=False)`` hands out
        del body
        gc.collect()
        assert not decoded.flags.writeable and not decoded.flags.owndata
        np.testing.assert_array_equal(decoded, values)
        del decoded
        gc.collect()
        assert buffer() is None


class FakeSocket:
    """A socket that records its syscalls; ``accepts`` caps one ``sendmsg``."""

    def __init__(self, accepts: int | None = None, reply: bytes = b"") -> None:
        self.calls: list[tuple[str, int]] = []
        self.sent = bytearray()
        self._accepts = accepts
        self._reply = reply

    def setsockopt(self, *_args) -> None:
        pass

    def sendmsg(self, buffers) -> int:
        data = b"".join(bytes(buffer) for buffer in buffers)
        n = len(data) if self._accepts is None else min(self._accepts, len(data))
        self.sent += data[:n]
        self.calls.append(("sendmsg", n))
        return n

    def sendall(self, data) -> None:
        self.sent += data
        self.calls.append(("sendall", len(data)))

    def recv(self, max_bytes: int) -> bytes:
        out, self._reply = self._reply[:max_bytes], self._reply[max_bytes:]
        return out

    def recv_into(self, view) -> int:
        data = self.recv(len(view))
        view[: len(data)] = data
        return len(data)

    def shutdown(self, _how) -> None:
        pass

    def close(self) -> None:
        pass


class TestGatherSend:
    """``Channel.send_pieces``: a message leaves unjoined and in one write."""

    PIECES = [b"head-", memoryview(b"payload" * 40), b"", bytearray(b"-tail")]
    WIRE = b"head-" + b"payload" * 40 + b"-tail"

    def test_socket_channel_gathers_into_one_sendmsg(self):
        sock = FakeSocket()
        SocketChannel(sock).send_pieces(self.PIECES)
        assert sock.calls == [("sendmsg", len(self.WIRE))] and sock.sent == self.WIRE

    @pytest.mark.parametrize("accepts", [1, 7, 280, 289])
    def test_socket_channel_finishes_a_partial_send(self, accepts):
        sock = FakeSocket(accepts)
        pieces = list(self.PIECES)
        SocketChannel(sock).send_pieces(pieces)
        assert sock.sent == self.WIRE
        assert {name for name, _ in sock.calls} == {"sendmsg"}
        assert len(sock.calls) == -(-len(self.WIRE) // accepts)
        assert pieces == self.PIECES  # the caller's list is its own: a retry resends it

    def test_memory_pipe_and_wrappers_forward_it_as_one_burst(self):
        a, b = memory_pipe()
        stats = ChannelStats()
        stacked = BufferedChannel(DeadlineChannel(InstrumentedChannel(a, stats)))
        stacked.send_pieces(self.PIECES)
        assert recv_exactly(b, len(self.WIRE)) == self.WIRE
        assert (stats.sends, stats.bytes_sent) == (1, len(self.WIRE))
        with pytest.raises(DeadlineExceeded):
            DeadlineChannel(a, Deadline.after(-1)).send_pieces(self.PIECES)

    def test_a_channel_without_a_gather_send_gets_the_join_in_one_write(self):
        a, b = memory_pipe()
        plain = RecvOnly(a)
        BufferedChannel(InstrumentedChannel(plain)).send_pieces(self.PIECES)
        assert plain.sends == [self.WIRE]
        write_message(plain, b"payload", "t/x")
        assert len(plain.sends) == 2  # header and payload: still one segment

    def test_faulting_channel_draws_one_decision_per_message(self):
        a, b = memory_pipe()
        schedule = FaultSchedule(FaultProfile(truncate_rate=1.0, max_faults=1), seed=3)
        faulting = FaultingChannel(a, schedule)
        with pytest.raises(InjectedReset, match="bytes delivered before reset"):
            faulting.send_pieces(self.PIECES)
        delivered = b""
        while chunk := b.recv():
            delivered += chunk
        assert self.WIRE.startswith(delivered) and len(delivered) < len(self.WIRE)
        assert schedule.injected == ["truncate"]

    def test_a_small_http_request_leaves_in_one_syscall(self):
        """Settled (ROADMAP): a small request split into head and body
        segments costs the server a second wake-up.  Gathered, head and
        body are two buffers and one ``sendmsg``."""
        sock = FakeSocket(reply=b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        client = HttpClient(lambda: SocketChannel(sock))
        body = bytearray(b"x" * 200)  # a buffer the old path copied twice
        assert client.post("/soap", body).body == b"ok"
        assert [name for name, _ in sock.calls] == ["sendmsg"]
        head, _, sent_body = bytes(sock.sent).partition(b"\r\n\r\n")
        assert head.startswith(b"POST /soap HTTP/1.1") and b"Content-Length: 200" in head
        assert sent_body == body

    def test_a_tcp_binding_message_leaves_in_one_syscall(self):
        for payload in (b"small", [b"sm", memoryview(b"al"), b"l"]):
            sock = FakeSocket()
            n = write_message(SocketChannel(sock), payload, "application/bxsa")
            assert sock.calls == [("sendmsg", n)]
            assert sock.sent.endswith(b"\x00\x00\x00\x05small")
