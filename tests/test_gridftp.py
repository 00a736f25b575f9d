"""Integration tests for the GridFTP-like striped transfer service."""

import itertools
import os

import numpy as np
import pytest

from repro.gridftp import (
    AuthenticationError,
    GridFTPClient,
    GridFTPError,
    GridFTPServer,
    HostCredential,
    client_handshake,
    server_handshake,
)
from repro.transport import MemoryNetwork, TcpListener, connect_tcp, memory_pipe
from tests.conftest import traced_peak


def data_listeners(net):
    """A ``data_listener_factory`` allocating fresh names on ``net``."""
    counter = itertools.count()

    def data_listener_factory():
        name = f"gftp-data-{next(counter)}"
        return name, net.listen(name)

    return data_listener_factory


@pytest.fixture()
def grid():
    """A running server + client factory over a memory network."""
    net = MemoryNetwork()
    credential = HostCredential.generate()
    server = GridFTPServer(net.listen("gftp"), data_listeners(net), credential)
    server.start()

    def make_client(cred=credential):
        return GridFTPClient(lambda: net.connect("gftp"), net.connect, cred)

    yield server, make_client
    server.stop()


class TestAuth:
    def test_mutual_handshake(self):
        cred = HostCredential.generate()
        a, b = memory_pipe()
        import threading

        keys = {}

        def server():
            keys["server"] = server_handshake(b, cred)

        t = threading.Thread(target=server)
        t.start()
        keys["client"] = client_handshake(a, cred)
        t.join(timeout=5)
        assert keys["client"] == keys["server"]

    def test_wrong_credential_rejected(self, grid):
        _server, make_client = grid
        with pytest.raises(AuthenticationError):
            make_client(HostCredential.generate())

    def test_round_trip_count_recorded(self, grid):
        _server, make_client = grid
        client = make_client()
        assert client.stats.control_round_trips == 3  # handshake
        client.quit()


class TestTransfer:
    def test_size_command(self, grid):
        server, make_client = grid
        server.publish("/data/a.nc", b"x" * 12345)
        client = make_client()
        assert client.size("/data/a.nc") == 12345
        client.quit()

    def test_missing_file(self, grid):
        _server, make_client = grid
        client = make_client()
        with pytest.raises(GridFTPError, match="550"):
            client.size("/nope")
        with pytest.raises(GridFTPError, match="550"):
            client.retrieve("/nope")
        client.quit()

    @pytest.mark.parametrize("n_streams", [1, 2, 4, 16])
    def test_retrieve_integrity(self, grid, n_streams):
        server, make_client = grid
        payload = np.random.default_rng(n_streams).bytes(3_000_000)
        server.publish("/blob", payload)
        client = make_client()
        out = client.retrieve("/blob", n_streams)
        assert out == payload
        assert client.stats.n_streams == n_streams
        assert client.stats.data_bytes == len(payload)
        client.quit()

    def test_empty_file(self, grid):
        server, make_client = grid
        server.publish("/empty", b"")
        client = make_client()
        assert client.retrieve("/empty", 4) == b""
        client.quit()

    def test_file_smaller_than_block(self, grid):
        server, make_client = grid
        server.publish("/small", b"tiny payload")
        client = make_client()
        assert client.retrieve("/small", 4) == b"tiny payload"
        client.quit()

    def test_single_stream_is_in_order(self, grid):
        server, make_client = grid
        server.publish("/big", os.urandom(2_000_000))
        client = make_client()
        client.retrieve("/big", 1)
        assert client.stats.out_of_order_blocks == 0
        client.quit()

    def test_parallel_streams_reorder(self, grid):
        """With several streams, out-of-order arrivals are the norm —
        the receiver seeks the paper's Figure 5 discussion describes."""
        server, make_client = grid
        server.publish("/big", os.urandom(8_000_000))
        client = make_client()
        client.retrieve("/big", 8)
        assert client.stats.blocks_received == -(-8_000_000 // 262144)
        assert client.stats.out_of_order_blocks > 0
        client.quit()

    def test_header_overhead_accounted(self, grid):
        server, make_client = grid
        server.publish("/b", b"z" * 1_000_000)
        client = make_client()
        client.retrieve("/b", 2)
        assert client.stats.block_header_bytes >= client.stats.blocks_received * 13
        assert client.stats.wire_bytes > client.stats.data_bytes
        client.quit()

    def test_multiple_transfers_one_session(self, grid):
        server, make_client = grid
        server.publish("/a", b"A" * 500_000)
        server.publish("/b", b"B" * 500_000)
        client = make_client()
        assert client.retrieve("/a", 2) == b"A" * 500_000
        assert client.retrieve("/b", 4) == b"B" * 500_000
        client.quit()

    def test_four_streams_hold_one_copy(self):
        """2.00 payloads with a zero-filled buffer and a ``bytes`` copy.  Over
        TCP: a memory pipe queues what its senders wrote (1.25-1.75 here)."""

        def data_listener():
            listener = TcpListener()
            return "%s:%d" % listener.address, listener

        def connect_data(address):
            host, port = address.rsplit(":", 1)
            return connect_tcp(host, int(port))

        credential, control, blob = HostCredential.generate(), TcpListener(), os.urandom(8 << 20)
        with GridFTPServer(control, data_listener, credential) as server:
            server.publish("/f", blob)
            client = GridFTPClient(lambda: connect_tcp(*control.address), connect_data, credential)
            peak = traced_peak(client.retrieve, "/f", 4)
            client.quit()
        assert peak / len(blob) <= 1.5

    def test_bad_stream_count(self, grid):
        server, make_client = grid
        server.publish("/x", b"x")
        client = make_client()
        with pytest.raises(GridFTPError, match="501"):
            client.retrieve("/x", 100)
        client.quit()

    def test_unknown_command(self, grid):
        _server, make_client = grid
        client = make_client()
        assert client._command("FEAT").startswith("500")
        client.quit()

    def test_netcdf_end_to_end(self, grid):
        """The separated scheme's actual payload: a netCDF file."""
        from repro.netcdf import Dataset, read_dataset_bytes, write_dataset_bytes

        ds = Dataset()
        ds.create_variable("values", np.linspace(0, 1, 50000), ("model",))
        blob = write_dataset_bytes(ds)
        server, make_client = grid
        server.publish("/run1.nc", blob)
        client = make_client()
        fetched = client.retrieve("/run1.nc", 4)
        out = read_dataset_bytes(fetched)
        np.testing.assert_allclose(out.variables["values"].data, np.linspace(0, 1, 50000))
        client.quit()


class _RecordingChannel:
    """A data channel that notes the size of every read asked of it."""

    def __init__(self, channel, asked: list) -> None:
        self._channel = channel
        self._asked = asked

    def recv(self, nbytes: int) -> bytes:
        self._asked.append(nbytes)
        return self._channel.recv(nbytes)

    def send_all(self, data: bytes) -> None:
        self._channel.send_all(data)

    def close(self) -> None:
        self._channel.close()


class TestUntrustedDataStream:
    """A data stream is a peer like any other: its header is checked before
    it sizes a read, and what landed is checked against the file."""

    @pytest.fixture()
    def lying_grid(self):
        """``serve(blocks_for_stream)`` -> (client, read sizes asked of the
        data channels); each stream sends the raw blocks it is given."""
        net = MemoryNetwork()
        credential = HostCredential.generate()
        servers = []

        def serve(blocks_for_stream):
            class LyingServer(GridFTPServer):
                def _send_stream(self, listener, data, stream_index, n_streams, failures):
                    channel = listener.accept()
                    try:
                        channel.send_all(blocks_for_stream(stream_index))
                    finally:
                        channel.close()
                        listener.close()

            server = LyingServer(net.listen("gftp"), data_listeners(net), credential)
            servers.append(server.start())
            server.publish("/f", b"\xab" * 4096)
            asked: list[int] = []
            client = GridFTPClient(
                lambda: net.connect("gftp"),
                lambda address: _RecordingChannel(net.connect(address), asked),
                credential,
            )
            return client, asked

        yield serve
        for server in servers:
            server.stop()

    def test_block_past_the_file_is_refused_before_it_is_read(self, lying_grid):
        """A header claiming 2 GiB past a 4 KiB file sizes no read at all."""
        from repro.gridftp.server import BLOCK_HEADER

        client, asked = lying_grid(lambda _stream: BLOCK_HEADER.pack(0, 2**31, 0))
        with pytest.raises(GridFTPError, match="beyond file of 4096"):
            client.retrieve("/f", 1)
        assert asked and max(asked) <= BLOCK_HEADER.size
        client.quit()

    def test_short_transfer_is_an_error_not_zero_filled_holes(self, lying_grid):
        """One of two streams says EOF after 1000 of 4096 bytes and the
        server still reports 226: the holes must not come back as data."""
        from repro.gridftp.server import BLOCK_HEADER, EOF_FLAG

        def blocks(stream_index):
            if stream_index == 0:
                return BLOCK_HEADER.pack(0, 1000, EOF_FLAG) + b"\xab" * 1000
            return BLOCK_HEADER.pack(0, 0, EOF_FLAG)

        client, _asked = lying_grid(blocks)
        with pytest.raises(GridFTPError, match="1000 of 4096"):
            client.retrieve("/f", 2)
        assert client.stats.data_bytes == 1000
        client.quit()

    def test_a_block_sent_twice_does_not_stand_in_for_one_omitted(self, lying_grid):
        """Block 0 twice, block 1 never: the bytes landed add up to the file,
        yet the landing is not zeroed, so the hole must not come back."""
        from repro.gridftp.server import BLOCK_HEADER, EOF_FLAG

        def blocks(_stream_index):
            block = BLOCK_HEADER.pack(0, 2048, 0) + b"\xab" * 2048
            return block + BLOCK_HEADER.pack(0, 2048, EOF_FLAG) + b"\xab" * 2048

        client, _asked = lying_grid(blocks)
        with pytest.raises(GridFTPError, match="gap or overlap at byte 2048"):
            client.retrieve("/f", 1)
        assert client.stats.data_bytes == 4096
        client.quit()


class TestUntrustedSize:
    """The control channel's ``SIZE`` reply is a peer's claim too: what is
    not a byte count, or cannot be landed, is refused before ``RETR`` goes
    out, so the session is left where a later command still gets an answer."""

    @pytest.mark.parametrize("claim", ["abc", "-1", "4398046511104"])
    def test_a_size_that_cannot_be_landed_is_refused_before_retr(self, claim):
        import time

        net = MemoryNetwork()
        credential = HostCredential.generate()

        class LyingServer(GridFTPServer):
            def _cmd_size(self, channel, path):
                channel.send_all(f"213 {claim}\n".encode())

        server = LyingServer(net.listen("gftp"), data_listeners(net), credential).start()
        try:
            server.publish("/f", b"\xab" * 4096)
            client = GridFTPClient(lambda: net.connect("gftp"), net.connect, credential)
            with pytest.raises(GridFTPError):
                client.retrieve("/f", 2)
            started = time.monotonic()
            client.quit()
            assert time.monotonic() - started < 5.0
        finally:
            server.stop()
