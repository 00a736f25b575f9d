"""A standalone federation node process, plus local-cluster helpers.

Run one node::

    PYTHONPATH=src python -m repro.fed.node --port 0 --workers 2

The node binds its listener **first** (``TcpListener`` binds + listens
in its constructor, so the kernel queues connections from this moment),
prints one machine-readable line::

    ADDR <host> <port>

flushed *before* the serving loop starts, then serves until stdin
reaches EOF (the parent closed the pipe) — that line is the atomic
bound-address handoff that lets a parent start N nodes on port 0 and
connect immediately, no sleep-polling.  :func:`spawn_nodes` is that
parent: it blocks on the ADDR line of each child and returns
:class:`NodeProcess` handles with live addresses.

Every node serves the same :func:`fed_dispatcher` operations:

* ``Echo`` — the classic echo, for liveness-style exchanges;
* ``Work(size, rounds[, io_ms])`` — wait ``io_ms`` milliseconds (a
  GIL-released stand-in for a downstream backend: database, disk,
  upstream service), then hash ``size`` zero bytes ``rounds`` times
  (sha256 releases the GIL on large buffers too) and return the digest.
  Service time is tunable on both axes, so a node's capacity is set by
  its worker pool — ``workers / service_time`` — and federation
  capacity genuinely scales with node count even on a single-core host
  where pure CPU work could not;
* ``GetChunk(offset, length)`` — a byte range of the node's
  deterministic blob (same seed ⇒ same blob on every replica), the
  striped-transfer source.  Clients regenerate the blob locally with
  :func:`fed_blob` to verify stripes.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.core.dispatcher import Dispatcher
from repro.xdm import element, leaf

DEFAULT_BLOB_SEED = 20060625
DEFAULT_BLOB_SIZE = 1 << 20


def fed_blob(seed: int = DEFAULT_BLOB_SEED, size: int = DEFAULT_BLOB_SIZE) -> bytes:
    """The deterministic blob every node with the same seed serves."""
    return random.Random(seed).randbytes(size)


def work_digest(size: int, rounds: int) -> str:
    """The reference result of the ``Work`` operation (pure function)."""
    block = bytes(size)
    digest = b""
    for _ in range(rounds):
        digest = hashlib.sha256(block + digest).digest()
    return digest.hex()


def fed_dispatcher(
    *, blob_seed: int = DEFAULT_BLOB_SEED, blob_size: int = DEFAULT_BLOB_SIZE
) -> Dispatcher:
    """The operations every federation node serves."""
    blob = fed_blob(blob_seed, blob_size)
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request):
        return element("EchoResponse", *request.body_root.children)

    @d.operation("Work")
    def work(request):
        args = {child.name.local: child for child in request.body_root.children}
        size = int(args["size"].value)
        rounds = int(args["rounds"].value)
        io_ms = int(args["io_ms"].value) if "io_ms" in args else 0
        if io_ms:
            time.sleep(io_ms / 1e3)
        return element(
            "WorkResponse", leaf("digest", work_digest(size, rounds), "string")
        )

    @d.operation("GetChunk")
    def get_chunk(request):
        args = {child.name.local: child for child in request.body_root.children}
        offset = int(args["offset"].value)
        length = int(args["length"].value)
        piece = blob[offset : offset + length]
        return element(
            "GetChunkResponse",
            leaf("offset", offset, "int"),
            leaf("data", base64.b64encode(piece).decode("ascii"), "string"),
        )

    @d.operation("BlobInfo")
    def blob_info(request):
        return element(
            "BlobInfoResponse",
            leaf("size", len(blob), "int"),
            leaf("digest", hashlib.sha256(blob).hexdigest(), "string"),
        )

    return d


def decode_chunk(response) -> bytes:
    """Extract the byte range from a ``GetChunkResponse`` envelope."""
    args = {child.name.local: child for child in response.body_root.children}
    return base64.b64decode(args["data"].value)


class NodeProcess:
    """Handle on one spawned node: live address, graceful or abrupt stop."""

    def __init__(self, process: subprocess.Popen, host: str, port: int, name: str):
        self.process = process
        self.host = host
        self.port = port
        self.name = name

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def connect(self):
        from repro.transport.sockets import connect_tcp

        return connect_tcp(self.host, self.port)

    def replica(self):
        from repro.fed.balancer import Replica

        return Replica(self.name, self.connect, host=f"{self.host}:{self.port}")

    def kill(self) -> None:
        """Abrupt death (SIGKILL) — in-flight exchanges are lost."""
        self.process.kill()
        self.process.wait(timeout=10)

    def stop(self) -> None:
        """Graceful stop: close stdin (the node drains and exits)."""
        if self.process.poll() is not None:
            return
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


def spawn_nodes(
    count: int,
    *,
    workers: int = 2,
    queue_depth: int = 16,
    core: str = "threaded",
    blob_seed: int = DEFAULT_BLOB_SEED,
    blob_size: int = DEFAULT_BLOB_SIZE,
    python: str = sys.executable,
) -> list[NodeProcess]:
    """Spawn ``count`` nodes on ephemeral ports; addresses are live on return.

    Each child prints its ``ADDR`` line after binding and before its
    serving loop; this function blocks on that line per child, so no
    caller ever needs to poll a port.
    """
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing

    nodes: list[NodeProcess] = []
    try:
        for index in range(count):
            process = subprocess.Popen(
                [
                    python,
                    "-m",
                    "repro.fed.node",
                    "--port",
                    "0",
                    "--workers",
                    str(workers),
                    "--queue-depth",
                    str(queue_depth),
                    "--core",
                    core,
                    "--blob-seed",
                    str(blob_seed),
                    "--blob-size",
                    str(blob_size),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            line = process.stdout.readline().strip()
            parts = line.split()
            if len(parts) != 3 or parts[0] != "ADDR":
                with process:  # closes both pipes, then reaps
                    process.kill()
                raise RuntimeError(f"node {index} failed to start: got {line!r}")
            nodes.append(
                NodeProcess(process, parts[1], int(parts[2]), f"fed-node-{index}")
            )
    except Exception:
        for node in nodes:
            node.kill()
        raise
    return nodes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one federation node")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--core", choices=("threaded", "aio"), default="threaded")
    parser.add_argument("--blob-seed", type=int, default=DEFAULT_BLOB_SEED)
    parser.add_argument("--blob-size", type=int, default=DEFAULT_BLOB_SIZE)
    args = parser.parse_args(argv)

    from repro.serve import ServeConfig, SoapServeService
    from repro.transport.sockets import TcpListener

    listener = TcpListener(host=args.host, port=args.port)
    service = SoapServeService(
        listener,
        fed_dispatcher(blob_seed=args.blob_seed, blob_size=args.blob_size),
        config=ServeConfig(
            core=args.core, workers=args.workers, queue_depth=args.queue_depth
        ),
        name=f"fed-node-{listener.port}",
    )
    # The atomic address handoff: the socket is already bound + listening
    # (TcpListener binds in its constructor), so a parent that has read
    # this line may connect immediately — before start() below returns.
    print(f"ADDR {listener.address[0]} {listener.port}", flush=True)
    service.start()
    try:
        sys.stdin.buffer.read()  # serve until the parent closes our stdin
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
