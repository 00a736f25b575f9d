"""GridFTP-like server: control channel + striped data senders.

Protocol (after the :mod:`~repro.gridftp.auth` handshake), line-oriented
like FTP::

    C: SIZE <path>
    S: 213 <bytes>                     | 550 <error>
    C: RETR <path> <n_streams>
    S: 150 <n> <data-addr-1> ... <data-addr-n>
       (client connects each data address; server stripes blocks)
    S: 226 Transfer complete           (on the control channel, at the end)
    C: QUIT
    S: 221 Goodbye

Data block framing on each stream: ``offset:u64be  length:u32be  flags:u8``
then ``length`` payload bytes; ``flags & 1`` marks the stream's final
block (MODE E's EOF semantics).  Blocks are cut every ``DEFAULT_BLOCK_SIZE`` bytes
and dealt round-robin over the streams, each stream sent by its own
thread — so a multi-stream client genuinely observes interleaved,
out-of-order arrivals.

The control channel is a :class:`~repro.transport.host.ConnectionHost`
(threads, ``start``/``stop``/``with`` and the drain are its).  A data
channel is not a connection it accepts but a one-shot rendezvous opened for
one stream of one transfer, so the sender threads and their single
``accept()`` stay here — and ``stop()`` closes the rendezvous of transfers
in flight first, so a sender parked on one nobody dials cannot hold its
control connection through the drain.
"""

from __future__ import annotations

import struct
import threading
from typing import Callable

from repro.gridftp.auth import AuthenticationError, HostCredential, server_handshake
from repro.transport.base import BufferedChannel, Listener, TransportError, send_pieces
from repro.transport.host import ConnectionHost

BLOCK_HEADER = struct.Struct(">QIB")
EOF_FLAG = 0x01

#: Stripe block size (bytes); GridFTP deployments of the era used
#: 64 KiB-1 MiB blocks — 256 KiB matches the netsim profile.
DEFAULT_BLOCK_SIZE = 262144


class GridFTPServer(ConnectionHost):
    """Serve published byte blobs over the striped protocol.

    Parameters
    ----------
    control_listener:
        Listener for control-channel connections.
    data_listener_factory:
        ``() -> (address_string, Listener)`` — allocates one data-channel
        rendezvous point.  For :class:`~repro.transport.MemoryNetwork` this
        registers a name; for TCP it binds an ephemeral port.
    credential:
        Shared host credential for the GSI-style handshake.
    """

    def __init__(
        self,
        control_listener: Listener,
        data_listener_factory: Callable[[], tuple[str, Listener]],
        credential: HostCredential,
        *,
        name: str = "gridftp",
    ) -> None:
        super().__init__(control_listener, self._serve_control, name=name)
        self._data_listener_factory = data_listener_factory
        self._credential = credential
        self._store: dict[str, bytes] = {}
        # data rendezvous of transfers in flight, so stop() can close them;
        # ``None`` once stopping: no transfer starts after that
        self._transfer_lock = threading.Lock()
        self._rendezvous: set[Listener] | None = set()

    # ------------------------------------------------------------------

    def publish(self, path: str, data: bytes) -> None:
        """Make a blob retrievable under ``path``."""
        self._store[path] = bytes(data)

    def stop(self, drain_timeout: float | None = None) -> None:
        """Fail the rendezvous nobody has dialled, then the host's stop rule:
        a transfer already streaming finishes within the drain budget."""
        with self._transfer_lock:
            rendezvous, self._rendezvous = self._rendezvous, None
        for listener in rendezvous or ():  # None: stopped before
            listener.close()  # wakes the sender parked in accept()
        super().stop(drain_timeout)

    # ------------------------------------------------------------------

    def _serve_control(self, channel: BufferedChannel) -> None:
        try:
            # a peer that has not authenticated owes nothing either
            self.receive(channel, lambda ch: server_handshake(ch, self._credential))
            while True:
                line = self.receive(channel, lambda ch: ch.recv_until(b"\n", max_bytes=4096))
                command = str(line, "utf-8").strip()
                if not command:
                    continue
                verb, _, rest = command.partition(" ")
                verb = verb.upper()
                if verb == "QUIT":
                    channel.send_all(b"221 Goodbye\n")
                    return
                if verb == "SIZE":
                    self._cmd_size(channel, rest)
                elif verb == "RETR":
                    self._cmd_retr(channel, rest)
                else:
                    channel.send_all(f"500 Unknown command {verb}\n".encode())
        except (AuthenticationError, TransportError):
            return  # not who it claimed, gone, or the server is draining

    # ------------------------------------------------------------------

    def _cmd_size(self, channel: BufferedChannel, path: str) -> None:
        data = self._store.get(path.strip())
        if data is None:
            channel.send_all(f"550 No such file {path.strip()}\n".encode())
            return
        channel.send_all(f"213 {len(data)}\n".encode())

    def _cmd_retr(self, channel: BufferedChannel, rest: str) -> None:
        parts = rest.rsplit(" ", 1)
        if len(parts) != 2:
            channel.send_all(b"501 Usage: RETR <path> <n_streams>\n")
            return
        path, streams_text = parts[0].strip(), parts[1]
        try:
            n_streams = int(streams_text)
        except ValueError:
            channel.send_all(f"501 Bad stream count {streams_text!r}\n".encode())
            return
        if not 1 <= n_streams <= 64:
            channel.send_all(b"501 Stream count must be in [1, 64]\n")
            return
        data = self._store.get(path)
        if data is None:
            channel.send_all(f"550 No such file {path}\n".encode())
            return

        with self._transfer_lock:
            if self._rendezvous is None:
                channel.send_all(b"421 Service closing\n")
                return
            rendezvous = [self._data_listener_factory() for _ in range(n_streams)]
            self._rendezvous.update(listener for _addr, listener in rendezvous)
        addresses = " ".join(addr for addr, _listener in rendezvous)
        channel.send_all(f"150 {n_streams} {addresses}\n".encode())

        senders: list[threading.Thread] = []
        failures: list[Exception] = []
        for stream_index, (_addr, listener) in enumerate(rendezvous):
            thread = threading.Thread(
                target=self._send_stream,
                args=(listener, data, stream_index, n_streams, failures),
                name=f"{self._name}-data-{stream_index}",
                daemon=True,
            )
            thread.start()
            senders.append(thread)
        for thread in senders:
            thread.join(timeout=60)
        with self._transfer_lock:
            if self._rendezvous is not None:
                self._rendezvous.difference_update(listener for _addr, listener in rendezvous)
        if failures:
            channel.send_all(f"426 Transfer failed: {failures[0]}\n".encode())
        else:
            channel.send_all(b"226 Transfer complete\n")

    def _send_stream(
        self,
        listener: Listener,
        data: bytes,
        stream_index: int,
        n_streams: int,
        failures: list,
    ) -> None:
        try:
            channel = listener.accept()
        except TransportError as exc:
            failures.append(exc)
            listener.close()
            return
        try:
            block_size = DEFAULT_BLOCK_SIZE
            n_blocks = max(1, -(-len(data) // block_size))
            # round-robin deal: stream k sends blocks k, k+n, k+2n, ...
            blocks = range(stream_index, n_blocks, n_streams)
            for position, block_index in enumerate(blocks):
                offset = block_index * block_size
                block = memoryview(data)[offset : offset + block_size]
                flags = EOF_FLAG if position == len(blocks) - 1 else 0
                header = BLOCK_HEADER.pack(offset, len(block), flags)
                # header and block leave as two pieces: no slice, no join
                send_pieces(channel, (header, block))
            if not blocks:
                channel.send_all(BLOCK_HEADER.pack(0, 0, EOF_FLAG))
        except TransportError as exc:
            failures.append(exc)
        finally:
            channel.close()
            listener.close()
