"""Unit tests for channels, framing and instrumentation."""

import threading

import pytest

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
    read_size,
    recv_exactly,
    take,
)


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
