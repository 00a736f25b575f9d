"""GridFTP data channel: netCDF files behind the striped transfer service.

Each :meth:`fetch` runs a full client session — connect, GSI-style
handshake, SIZE, RETR, QUIT — matching the paper's usage where the
verification server authenticates per request (the cost that dominates
Figure 4's GridFTP curve).  The stats of the most recent fetch are kept on
:attr:`last_stats` for the harness.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Callable

from repro.datachannel.base import DataChannelError, split_url
from repro.gridftp.auth import HostCredential
from repro.gridftp.client import GridFTPClient, TransferStats
from repro.gridftp.errors import GridFTPError
from repro.gridftp.server import GridFTPServer
from repro.transport.base import Channel, Listener, TransportError


class GridFTPDataChannel:
    """A GridFTP-like server plus the authenticated client to fetch from it.

    Parameters
    ----------
    control_listener / data_listener_factory:
        Transport plumbing for the embedded :class:`GridFTPServer`.
    connect_control / connect_data:
        Client-side connectors used by :meth:`fetch`.
    n_streams:
        Parallel data streams per retrieval (the paper sweeps 1/4/16).
    """

    scheme = "gftp"

    def __init__(
        self,
        control_listener: Listener,
        data_listener_factory,
        connect_control: Callable[[], Channel],
        connect_data: Callable[[str], Channel],
        *,
        authority: str = "gridhost",
        n_streams: int = 1,
        spool_dir=None,
    ) -> None:
        self._authority = authority
        self._connect_control = connect_control
        self._connect_data = connect_data
        self.n_streams = n_streams
        self._credential = HostCredential.generate()
        self._server = GridFTPServer(
            control_listener, data_listener_factory, self._credential
        )
        if spool_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-gftp-spool-")
            self._spool = pathlib.Path(self._tmp.name)
        else:
            self._tmp = None
            self._spool = pathlib.Path(spool_dir)
        #: Stats of the most recent fetch (None before the first).
        self.last_stats: TransferStats | None = None

    # ------------------------------------------------------------------

    def start(self) -> "GridFTPDataChannel":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()
        if self._tmp is not None:
            self._tmp.cleanup()

    def __enter__(self) -> "GridFTPDataChannel":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def publish(self, name: str, blob: bytes) -> str:
        """Spool to disk (the paper's client-side netCDF write), read back
        and hand to the server store; returns the URL."""
        safe = "/" + name.strip("/")
        path = self._spool / safe.strip("/").replace("/", "__")
        path.write_bytes(blob)
        self._server.publish(safe, path.read_bytes())
        return f"gftp://{self._authority}{safe}"

    def fetch(self, url: str) -> memoryview:
        _authority, target = split_url(url, "gftp")
        try:
            client = GridFTPClient(
                self._connect_control, self._connect_data, self._credential
            )
            try:
                return client.retrieve(target, self.n_streams)
            finally:
                self.last_stats = client.stats
                try:
                    client.quit()
                except (GridFTPError, TransportError):
                    pass  # a broken goodbye must not mask the retrieval error
        except (GridFTPError, TransportError) as exc:
            raise DataChannelError(f"GridFTP fetch of {url} failed: {exc}") from exc
