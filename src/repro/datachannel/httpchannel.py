"""HTTP data channel: netCDF files behind a file-serving HTTP endpoint.

The publisher side spools each published blob to a real file (the client
"saves it into a netCDF file" in the paper's Section 6 description); the
HTTP handler reads that file from disk per GET — both touches are genuine
I/O the harness measures.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Callable

from repro.datachannel.base import DataChannelError, split_url
from repro.transport.base import Channel, Listener, TransportError
from repro.transport.http.client import HttpClient
from repro.transport.http.messages import HttpRequest, HttpResponse
from repro.transport.http.server import HttpServer
from repro.transport.resilience import RetryPolicy


class HttpDataChannel:
    """A file-serving HTTP server plus the client to fetch from it.

    Parameters
    ----------
    listener:
        Where the file server accepts connections.
    connect:
        ``() -> Channel`` used by :meth:`fetch` to reach the server.
    authority:
        The host part baked into published URLs (labelling only).
    spool_dir:
        Directory for published files; a temp dir is created if omitted.
    retry:
        Retry policy for fetches (GETs are idempotent, so lossy links are
        survivable within the attempt budget).
    fetch_deadline:
        Default per-fetch budget in seconds (None = unbounded).
    """

    scheme = "http"

    def __init__(
        self,
        listener: Listener,
        connect: Callable[[], Channel],
        *,
        authority: str = "datahost",
        spool_dir=None,
        retry: RetryPolicy | None = None,
        fetch_deadline: float | None = None,
    ) -> None:
        self._authority = authority
        self._connect = connect
        self._retry = retry
        self._fetch_deadline = fetch_deadline
        if spool_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-http-spool-")
            self._spool = pathlib.Path(self._tmp.name)
        else:
            self._tmp = None
            self._spool = pathlib.Path(spool_dir)
        self._published: dict[str, pathlib.Path] = {}
        self._server = HttpServer(listener, self._handle, name="http-data")

    # ------------------------------------------------------------------

    def start(self) -> "HttpDataChannel":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()
        if self._tmp is not None:
            self._tmp.cleanup()

    def __enter__(self) -> "HttpDataChannel":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def publish(self, name: str, blob: bytes) -> str:
        """Spool ``blob`` to disk and expose it; returns the URL."""
        safe = name.strip("/")
        path = self._spool / safe.replace("/", "__")
        path.write_bytes(blob)  # the paper's client-side disk write
        self._published["/" + safe] = path
        return f"http://{self._authority}/{safe}"

    def unpublish(self, name: str) -> None:
        target = "/" + name.strip("/")
        path = self._published.pop(target, None)
        if path is not None:
            path.unlink(missing_ok=True)

    def fetch(self, url: str, *, deadline: float | None = None) -> memoryview:
        """The file as the response landed: a read-only view, not a copy."""
        _authority, target = split_url(url, "http")
        client = HttpClient(self._connect, host=self._authority, retry=self._retry)
        try:
            response = client.get(
                target,
                deadline=deadline if deadline is not None else self._fetch_deadline,
            )
        except TransportError as exc:
            raise DataChannelError(f"GET {url} failed: {exc}") from exc
        finally:
            client.close()
        if not response.ok:
            raise DataChannelError(f"GET {url} -> HTTP {response.status}")
        return response.body

    # ------------------------------------------------------------------

    def _handle(self, request: HttpRequest) -> HttpResponse:
        if request.method not in ("GET", "HEAD"):
            return HttpResponse(405, body=b"file channel accepts GET")
        path = self._published.get(request.target)
        if path is None:
            return HttpResponse(404, body=f"no such file {request.target}".encode())
        blob = path.read_bytes()  # the server-side disk read
        response = HttpResponse(200, body=b"" if request.method == "HEAD" else blob)
        response.headers.set("Content-Type", "application/x-netcdf")
        return response
