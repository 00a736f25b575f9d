"""GridFTP-like client: authenticate, then retrieve with n parallel streams.

The receiver lands striped blocks in one buffer (:mod:`repro.datachannel.stripes`)
the way a real GridFTP receiver lands them in one file: a shared write cursor, with every
block whose offset is not the cursor counting as a *seek* — the quantity
[Allcock et al. 2005] and the paper blame for LAN parallel degradation.
:class:`TransferStats` reports it alongside the control-channel round-trip
count and per-direction byte totals, which is everything the experiment
harness needs to model wire time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.datachannel.stripes import Stripes
from repro.gridftp.auth import (
    GSI_HANDSHAKE_ROUND_TRIPS,
    HostCredential,
    client_handshake,
)
from repro.gridftp.errors import GridFTPError
from repro.gridftp.server import BLOCK_HEADER, EOF_FLAG
from repro.transport.base import BufferedChannel, Channel, TransportClosed, recv_exactly, recv_into


@dataclass
class TransferStats:
    """Observable costs of one client session/transfer."""

    control_round_trips: int = 0  #: command/response exchanges incl. handshake
    data_bytes: int = 0  #: payload bytes received
    block_header_bytes: int = 0  #: striping overhead on the wire
    n_streams: int = 1
    blocks_received: int = 0
    out_of_order_blocks: int = 0  #: receiver seeks (offset ≠ write cursor)

    @property
    def wire_bytes(self) -> int:
        return self.data_bytes + self.block_header_bytes


class GridFTPClient:
    """Client session over one control connection.

    Parameters
    ----------
    connect_control:
        ``() -> Channel`` for the control connection.
    connect_data:
        ``(address_string) -> Channel`` for each advertised data channel.
    credential:
        Shared host credential; must match the server's.
    stripe_timeout:
        Ceiling in seconds on waiting for the stripe workers of one
        retrieval; a worker still alive past it raises
        :class:`~repro.gridftp.errors.StripeTimeout` instead of silently
        returning a buffer with holes.
    """

    def __init__(
        self,
        connect_control: Callable[[], Channel],
        connect_data: Callable[[str], Channel],
        credential: HostCredential,
        *,
        stripe_timeout: float = 60.0,
    ) -> None:
        self._connect_data = connect_data
        self._credential = credential
        self._stripe_timeout = stripe_timeout
        self.stats = TransferStats()
        self._control = BufferedChannel(connect_control())
        client_handshake(self._control, credential)
        self.stats.control_round_trips += GSI_HANDSHAKE_ROUND_TRIPS

    # ------------------------------------------------------------------
    # control commands

    def _command(self, line: str) -> str:
        self._control.send_all(line.encode("utf-8") + b"\n")
        reply = str(self._control.recv_until(b"\n", max_bytes=1 << 16), "utf-8").strip()
        self.stats.control_round_trips += 1
        return reply

    def size(self, path: str) -> int:
        reply = self._command(f"SIZE {path}")
        code, _, rest = reply.partition(" ")
        if code != "213":
            raise GridFTPError(f"SIZE failed: {reply}")
        if not (rest.isascii() and rest.isdigit()):  # a sign or a letter is no size
            raise GridFTPError(f"SIZE reply is not a byte count: {reply}")
        return int(rest)

    def quit(self) -> None:
        try:
            self._command("QUIT")
        finally:
            self._control.close()

    close = quit

    # ------------------------------------------------------------------
    # retrieval

    def retrieve(self, path: str, n_streams: int = 1) -> memoryview:
        """Fetch ``path`` over ``n_streams`` parallel data channels, as a read-only view."""
        recorder = obs.get_recorder()
        with recorder.span(
            "gridftp.retrieve", kind="logical", path=path, streams=n_streams
        ) as retrieve_span:
            size = self.size(path)
            # landed before RETR: a size that cannot be allocated is refused
            # while the server still waits for a command, not for streams
            try:
                stripes = Stripes(size)
            except MemoryError:
                raise GridFTPError(f"cannot land a {size}-byte file") from None
            reply = self._command(f"RETR {path} {n_streams}")
            code, _, rest = reply.partition(" ")
            if code != "150":
                raise GridFTPError(f"RETR failed: {reply}")
            fields = rest.split()
            advertised = int(fields[0])
            addresses = fields[1:]
            if advertised != n_streams or len(addresses) != n_streams:
                raise GridFTPError(
                    f"server advertised {advertised} streams, asked {n_streams}"
                )

            self.stats.n_streams = n_streams
            errors: list[Exception] = []
            headers: list[int] = []  # block headers read, one count per stream

            def pull(index: int, address: str) -> None:
                # the worker thread adopts the retrieval as its explicit
                # parent — span nesting survives the thread boundary
                with recorder.span(
                    "gridftp.stripe",
                    kind="cpu",
                    parent=retrieve_span,
                    stripe=index,
                    address=address,
                ) as stripe_span:
                    blocks = received = read = 0
                    try:
                        # the end of the transfer closes the channel
                        channel = stripes.register(self._connect_data(address))
                        while True:
                            header = recv_exactly(channel, BLOCK_HEADER.size)
                            offset, length, flags = BLOCK_HEADER.unpack(header)
                            read += 1
                            # the peer's length sizes the read: refuse it first
                            view = stripes.region(offset, length)
                            while view:
                                got = recv_into(channel, view)
                                if not got:
                                    raise TransportClosed("data stream closed mid-block")
                                view = view[got:]
                            if length:
                                stripes.landed(offset, length)
                                blocks += 1
                                received += length
                            if flags & EOF_FLAG:
                                return
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                    finally:
                        stripe_span.set("blocks", blocks).set("bytes", received)
                        headers.append(read)

            try:
                streams = enumerate(addresses)
                stripes.run(pull, "gridftp-stripe-", streams, self._stripe_timeout, self.stats)
            finally:
                self.stats.blocks_received += len(stripes.ranges)
                self.stats.data_bytes += stripes.landed_bytes
                self.stats.out_of_order_blocks += stripes.seeks
                self.stats.block_header_bytes += BLOCK_HEADER.size * sum(headers)

            final = str(self._control.recv_until(b"\n", max_bytes=4096), "utf-8").strip()
            self.stats.control_round_trips += 1  # the 226 completion line
            if errors:
                raise GridFTPError(f"data stream failed: {errors[0]}")
            if not final.startswith("226"):
                raise GridFTPError(f"transfer did not complete: {final}")
            body = stripes.body()
            retrieve_span.set("bytes", size).set("out_of_order_blocks", stripes.seeks)
            return body
