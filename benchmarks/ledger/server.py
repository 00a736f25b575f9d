"""The server child process: the system under test lives here, alone.

The generator must not share a GIL with the server, so the ledger never
serves in its own process.  Two modes::

    python -m benchmarks.ledger.server soap --core aio
    python -m benchmarks.ledger.server transport

``soap`` is the production host exactly as an embedder would build it:
``SoapServeService(TcpListener("127.0.0.1", 0), echo_dispatcher(),
ServeConfig(workers=2, queue_depth=16, core=...))``, default
``NullRecorder``.  ``transport`` serves the three no-SOAP floors of the
per-layer table: a bare handler on each HTTP core and a raw TCP echo.

Address handoff is the one ``repro.fed.node`` uses: listeners bind in
their constructors, one ``ADDR <name> <host> <port>`` line per listener
is flushed before any serving loop starts, and the child serves until
its stdin reaches EOF.
"""

from __future__ import annotations

import argparse
import struct
import sys
import threading

from repro.serve import ServeConfig, SoapServeService
from repro.services.echo import echo_dispatcher
from repro.transport.aio import AsyncHttpServer
from repro.transport.base import TransportError, recv_exactly
from repro.transport.http.messages import HttpRequest, HttpResponse
from repro.transport.http.server import HttpServer
from repro.transport.sockets import TcpListener

#: The live runs' server shape (ISSUE 13): two workers, sixteen waiting.
WORKERS = 2
QUEUE_DEPTH = 16

#: Raw echo framing: 8-byte big-endian length, then that many bytes.
RAW_LENGTH = struct.Struct(">Q")


def _announce(name: str, listener: TcpListener) -> None:
    print(f"ADDR {name} {listener.address[0]} {listener.port}", flush=True)


def _serve_until_eof(stoppables) -> None:
    try:
        sys.stdin.buffer.read()  # the parent closing our stdin is the stop signal
    except KeyboardInterrupt:
        pass
    finally:
        for stop in stoppables:
            stop()


def run_soap(core: str) -> None:
    listener = TcpListener("127.0.0.1", 0)
    service = SoapServeService(
        listener,
        echo_dispatcher(),
        config=ServeConfig(workers=WORKERS, queue_depth=QUEUE_DEPTH, core=core),
        name=f"ledger-{core}",
    )
    _announce("soap", listener)
    service.start()
    _serve_until_eof([service.stop])


def _bare_handler(request: HttpRequest) -> HttpResponse:
    """Hand the body back: everything an HTTP core does, nothing SOAP does."""
    response = HttpResponse(200, body=request.body)
    response.headers.set("Content-Type", request.headers.get("Content-Type") or "text/plain")
    return response


def _raw_echo_loop(listener: TcpListener) -> None:
    while True:
        try:
            channel = listener.accept()
        except TransportError:
            return  # listener closed: the child is stopping
        try:
            while True:
                (length,) = RAW_LENGTH.unpack(recv_exactly(channel, RAW_LENGTH.size))
                channel.send_all(recv_exactly(channel, length))
        except TransportError:
            pass  # peer hung up between messages
        finally:
            channel.close()


def run_transport() -> None:
    aio_listener = TcpListener("127.0.0.1", 0)
    threaded_listener = TcpListener("127.0.0.1", 0)
    raw_listener = TcpListener("127.0.0.1", 0)
    aio = AsyncHttpServer(aio_listener, _bare_handler, name="ledger-bare-aio", admin=False)
    threaded = HttpServer(
        threaded_listener, _bare_handler, name="ledger-bare-threaded", admin=False
    )
    _announce("aio", aio_listener)
    _announce("threaded", threaded_listener)
    _announce("raw", raw_listener)
    aio.start()
    threaded.start()
    raw = threading.Thread(target=_raw_echo_loop, args=(raw_listener,), daemon=True)
    raw.start()
    _serve_until_eof([aio.stop, threaded.stop, raw_listener.close])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ledger server child")
    modes = parser.add_subparsers(dest="mode", required=True)
    soap = modes.add_parser("soap")
    soap.add_argument("--core", choices=("aio", "threaded"), required=True)
    modes.add_parser("transport")
    args = parser.parse_args(argv)
    if args.mode == "soap":
        run_soap(args.core)
    else:
        run_transport()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
