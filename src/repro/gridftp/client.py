"""GridFTP-like client: authenticate, then retrieve with n parallel streams.

The receiver reassembles striped blocks into one buffer the way a real
GridFTP receiver lands them in one file: a shared write cursor, with every
block whose offset is not the cursor counting as a *seek* — the quantity
[Allcock et al. 2005] and the paper blame for LAN parallel degradation.
:class:`TransferStats` reports it alongside the control-channel round-trip
count and per-direction byte totals, which is everything the experiment
harness needs to model wire time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.gridftp.auth import (
    GSI_HANDSHAKE_ROUND_TRIPS,
    HostCredential,
    client_handshake,
)
from repro.gridftp.errors import GridFTPError, StripeTimeout
from repro.gridftp.server import BLOCK_HEADER, EOF_FLAG
from repro.transport.base import BufferedChannel, Channel, recv_exactly
from repro.transport.resilience import Deadline, as_deadline


@dataclass
class TransferStats:
    """Observable costs of one client session/transfer."""

    control_round_trips: int = 0  #: command/response exchanges incl. handshake
    auth_round_trips: int = GSI_HANDSHAKE_ROUND_TRIPS
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
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`: retrievals are
        counted into ``gridftp_transfers_total{streams,status}``,
        ``gridftp_bytes_total`` and ``gridftp_out_of_order_blocks_total``.
    """

    def __init__(
        self,
        connect_control: Callable[[], Channel],
        connect_data: Callable[[str], Channel],
        credential: HostCredential,
        *,
        stripe_timeout: float = 60.0,
        metrics=None,
    ) -> None:
        self._connect_data = connect_data
        self._credential = credential
        self._stripe_timeout = stripe_timeout
        self.metrics = metrics
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
        return int(rest)

    def quit(self) -> None:
        try:
            self._command("QUIT")
        finally:
            self._control.close()

    close = quit

    # ------------------------------------------------------------------
    # retrieval

    def retrieve(self, path: str, n_streams: int = 1, *, deadline=None) -> bytes:
        """Fetch ``path`` over ``n_streams`` parallel data channels.

        ``deadline`` (seconds or a Deadline) tightens the stripe-worker
        wait below :attr:`stripe_timeout` when it expires sooner.
        """
        if self.metrics is None:
            return self._retrieve(path, n_streams, deadline=deadline)
        blocks_before = self.stats.out_of_order_blocks
        bytes_before = self.stats.data_bytes
        status = "ok"
        try:
            return self._retrieve(path, n_streams, deadline=deadline)
        except Exception as exc:
            status = type(exc).__name__
            raise
        finally:
            self.metrics.counter(
                "gridftp_transfers_total",
                labels={"streams": str(n_streams), "status": status},
            ).add()
            self.metrics.counter("gridftp_bytes_total").add(
                self.stats.data_bytes - bytes_before
            )
            out_of_order = self.stats.out_of_order_blocks - blocks_before
            if out_of_order:
                self.metrics.counter("gridftp_out_of_order_blocks_total").add(
                    out_of_order
                )

    def _retrieve(self, path: str, n_streams: int, *, deadline=None) -> bytes:
        dl = as_deadline(deadline)
        recorder = obs.get_recorder()
        with recorder.span(
            "gridftp.retrieve", kind="logical", path=path, streams=n_streams
        ) as retrieve_span:
            size = self.size(path)
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

            buffer = bytearray(size)
            cursor_lock = threading.Lock()
            state = {"cursor": 0, "landed": 0}
            self.stats.n_streams = n_streams
            errors: list[Exception] = []

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
                    blocks = bytes_landed = 0
                    try:
                        channel = self._connect_data(address)
                    except Exception as exc:  # noqa: BLE001 - collected below
                        errors.append(exc)
                        return
                    try:
                        while True:
                            header = recv_exactly(channel, BLOCK_HEADER.size)
                            offset, length, flags = BLOCK_HEADER.unpack(header)
                            # the peer's length sizes the read: refuse it first
                            if offset + length > size:
                                raise GridFTPError(
                                    f"block [{offset}, {offset + length}) beyond file of {size}"
                                )
                            payload = recv_exactly(channel, length) if length else b""
                            with cursor_lock:
                                if length:
                                    if offset != state["cursor"]:
                                        self.stats.out_of_order_blocks += 1
                                        obs.counter("gridftp.out_of_order_blocks").add()
                                    buffer[offset : offset + length] = payload
                                    state["cursor"] = offset + length
                                    self.stats.blocks_received += 1
                                    self.stats.data_bytes += length
                                    state["landed"] += length
                                    blocks += 1
                                    bytes_landed += length
                                self.stats.block_header_bytes += BLOCK_HEADER.size
                            if flags & EOF_FLAG:
                                return
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                    finally:
                        stripe_span.set("blocks", blocks).set("bytes", bytes_landed)
                        channel.close()

            threads = [
                threading.Thread(
                    target=pull, args=(i, addr), name=f"gridftp-stripe-{i}", daemon=True
                )
                for i, addr in enumerate(addresses)
            ]
            for thread in threads:
                thread.start()
            wait = Deadline.after(self._stripe_timeout)
            for thread in threads:
                budget = wait.remaining()
                if dl is not None:
                    budget = min(budget, dl.remaining())
                thread.join(timeout=max(0.0, budget))
            stalled = [thread for thread in threads if thread.is_alive()]
            if stalled:
                # a join timeout must never be swallowed: the buffer may have
                # holes where the stalled stripes were supposed to land
                raise StripeTimeout(
                    f"{len(stalled)}/{len(threads)} stripe workers still running "
                    f"after {self._stripe_timeout:.1f}s; "
                    f"{self.stats.blocks_received} blocks "
                    f"({self.stats.data_bytes}/{size} bytes) landed",
                    stats=self.stats,
                )

            final = str(self._control.recv_until(b"\n", max_bytes=4096), "utf-8").strip()
            self.stats.control_round_trips += 1  # the 226 completion line
            if errors:
                raise GridFTPError(f"data stream failed: {errors[0]}")
            if not final.startswith("226"):
                raise GridFTPError(f"transfer did not complete: {final}")
            if state["landed"] != size:
                # every stream said EOF, yet the buffer still has holes
                raise GridFTPError(
                    f"short transfer: {state['landed']} of {size} bytes landed"
                )
            retrieve_span.set("bytes", size).set(
                "out_of_order_blocks", self.stats.out_of_order_blocks
            )
            return bytes(buffer)
