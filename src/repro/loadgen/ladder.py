"""The connection-ladder client: thousands of keep-alive connections, one thread.

The measuring half of Figure L's connection ladder
(``repro.harness.figure_load``): :func:`drive_connections` holds N
concurrent HTTP/1.1 keep-alive connections from a single selector loop and
drives a fixed request over each, so the generator costs one thread however
tall the rung.  It reaches the server through a socket and shares only the
HTTP head grammar with it, so a serving process never loads this module.
"""

from __future__ import annotations

import errno
import selectors
import socket
import time

from repro.transport.http.messages import (
    HEADER_END,
    HttpError,
    _parse_headers,
    declared_body_length,
)


class LadderResult:
    """Outcome of one :func:`drive_connections` rung."""

    __slots__ = (
        "connections",
        "established",
        "offered",
        "completed",
        "shed",
        "failed",
        "duration_seconds",
        "latencies",
    )

    def __init__(self, connections: int) -> None:
        self.connections = connections
        self.established = 0
        self.offered = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.duration_seconds = 0.0
        #: completed-request latencies, seconds (unsampled)
        self.latencies: list[float] = []

    @property
    def goodput_rps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[idx]

    def summary(self) -> dict:
        return {
            "connections": self.connections,
            "established": self.established,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "duration_seconds": round(self.duration_seconds, 4),
            "goodput_rps": round(self.goodput_rps, 2),
            "p50_ms": round(self.latency_quantile(0.50) * 1e3, 3),
            "p99_ms": round(self.latency_quantile(0.99) * 1e3, 3),
        }


class _ClientConn:
    __slots__ = (
        "sock",
        "state",  # connecting | idle | sending | awaiting | done
        "inbuf",
        "out",
        "remaining",
        "sent_at",
        "next_due",
        "need",
        "need_status",
        "registered_events",
    )

    def __init__(self, remaining: int) -> None:
        self.sock: socket.socket | None = None
        self.state = "connecting"
        self.inbuf = bytearray()
        self.out = bytearray()
        self.remaining = remaining
        self.sent_at = 0.0
        self.next_due = 0.0
        self.need = -1  # total response bytes once the head is parsed
        self.need_status = 0
        self.registered_events = 0


def drive_connections(
    address: tuple[str, int],
    request_bytes: bytes,
    *,
    connections: int,
    requests_per_connection: int = 1,
    rate: float | None = None,
    connect_burst: int = 512,
    timeout: float = 120.0,
) -> LadderResult:
    """Hold ``connections`` concurrent keep-alive connections from one
    thread and drive ``requests_per_connection`` over each.

    All connections are established *before* the request clock starts —
    the rung measures serving N live connections, not connection churn.
    ``rate`` (requests/second across all connections, round-robin
    schedule) paces an open-ish loop; ``None`` runs closed-loop (each
    connection sends its next request as soon as the previous response
    lands).  A 503 counts as ``shed``; transport errors and non-2xx
    statuses count as ``failed``; a server-closed connection fails its
    remaining quota (no reconnects — the rung holds a fixed population).
    """
    sel = selectors.DefaultSelector()
    conns = [_ClientConn(requests_per_connection) for _ in range(connections)]
    result = LadderResult(connections)
    result.offered = connections * requests_per_connection
    deadline = time.monotonic() + timeout

    def _client_interest(conn: _ClientConn, events: int) -> None:
        if events == conn.registered_events:
            return
        if conn.registered_events and not events:
            sel.unregister(conn.sock)
        elif conn.registered_events:
            sel.modify(conn.sock, events, conn)
        elif events:
            sel.register(conn.sock, events, conn)
        conn.registered_events = events

    def _finish_conn(conn: _ClientConn, *, failed_remaining: bool) -> None:
        if conn.state == "done":
            return
        if failed_remaining:
            pending = conn.remaining + (1 if conn.state in ("sending", "awaiting") else 0)
            result.failed += pending
        conn.state = "done"
        conn.remaining = 0
        if conn.sock is not None:
            _client_interest(conn, 0)
            try:
                conn.sock.close()
            except OSError:
                pass
            conn.sock = None

    # -- phase 1: establish every connection (bounded connect burst) ----
    pending = list(range(connections))
    connecting: set[int] = set()
    established = 0
    resolved = 0
    while resolved < connections and time.monotonic() < deadline:
        while pending and len(connecting) < connect_burst:
            i = pending.pop()
            conn = conns[i]
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn.sock = sock
            rc = sock.connect_ex(address)
            if rc in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
                connecting.add(i)
                sel.register(sock, selectors.EVENT_WRITE, (i, "connecting"))
                conn.registered_events = selectors.EVENT_WRITE
            else:
                _finish_conn(conn, failed_remaining=True)
                resolved += 1
        if not connecting:
            break
        for key, _mask in sel.select(0.5):
            data = key.data
            if not (isinstance(data, tuple) and data[1] == "connecting"):
                continue  # pragma: no cover - defensive
            i = data[0]
            conn = conns[i]
            connecting.discard(i)
            resolved += 1
            err = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err != 0:
                _finish_conn(conn, failed_remaining=True)
                continue
            established += 1
            conn.state = "idle"
            sel.modify(conn.sock, selectors.EVENT_READ, conn)
            conn.registered_events = selectors.EVENT_READ
    for i in list(connecting) + pending:  # connect budget exhausted
        _finish_conn(conns[i], failed_remaining=True)
    result.established = established

    # -- phase 2: the measured window ----------------------------------
    start = time.perf_counter()
    base = time.monotonic()
    live = [c for c in conns if c.state == "idle"]
    if rate is not None and rate > 0:
        # round-robin schedule: request j of connection i is due at
        # (i + j*C) / rate — a deterministic even spread, no RNG
        for i, conn in enumerate(live):
            conn.next_due = base + i / rate
    else:
        for conn in live:
            conn.next_due = base

    interval = len(live) / rate if (rate is not None and rate > 0 and live) else 0.0

    def _begin_request(conn: _ClientConn) -> None:
        conn.state = "sending"
        conn.remaining -= 1
        conn.sent_at = time.perf_counter()
        conn.out += request_bytes
        _client_send(conn)

    def _client_send(conn: _ClientConn) -> None:
        while conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                _finish_conn(conn, failed_remaining=True)
                return
            if sent <= 0:  # pragma: no cover - defensive
                break
            del conn.out[:sent]
        if conn.out:
            _client_interest(conn, selectors.EVENT_READ | selectors.EVENT_WRITE)
        else:
            if conn.state == "sending":
                conn.state = "awaiting"
            _client_interest(conn, selectors.EVENT_READ)

    def _client_read(conn: _ClientConn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            _finish_conn(conn, failed_remaining=True)
            return
        if not data:
            _finish_conn(conn, failed_remaining=True)
            return
        conn.inbuf += data
        while conn.state == "awaiting":
            if conn.need < 0:
                idx = conn.inbuf.find(HEADER_END)
                if idx < 0:
                    return
                head = bytes(memoryview(conn.inbuf)[:idx])
                status_line, _, header_block = head.partition(b"\r\n")
                parts = status_line.split(b" ", 2)
                try:
                    status = int(parts[1])
                    headers = _parse_headers(header_block)
                    length = declared_body_length(headers)
                except (IndexError, ValueError, HttpError):
                    _finish_conn(conn, failed_remaining=True)
                    return
                conn.need = idx + len(HEADER_END) + length
                conn.need_status = status
            if len(conn.inbuf) < conn.need:
                return
            status = conn.need_status
            del conn.inbuf[: conn.need]
            conn.need = -1
            latency = time.perf_counter() - conn.sent_at
            if 200 <= status < 300:
                result.completed += 1
                result.latencies.append(latency)
            elif status == 503:
                result.shed += 1
            else:
                result.failed += 1
            if conn.remaining <= 0:
                _finish_conn(conn, failed_remaining=False)
                return
            conn.state = "idle"
            if interval:
                conn.next_due += interval
            return

    active = established
    while time.monotonic() < deadline:
        now = time.monotonic()
        active = 0
        due_wait = 0.5
        for conn in live:
            if conn.state == "done":
                continue
            active += 1
            if conn.state == "idle":
                if now >= conn.next_due:
                    _begin_request(conn)
                else:
                    due_wait = min(due_wait, conn.next_due - now)
        if active == 0:
            break
        for key, mask in sel.select(min(due_wait, 0.5)):
            conn = key.data
            if isinstance(conn, tuple):  # pragma: no cover - defensive
                continue
            if conn.state == "done":
                continue
            if mask & selectors.EVENT_WRITE:
                _client_send(conn)
            if mask & selectors.EVENT_READ and conn.state != "done":
                _client_read(conn)
    result.duration_seconds = time.perf_counter() - start
    for conn in live:  # timeout: whatever is unfinished failed
        _finish_conn(conn, failed_remaining=True)
    sel.close()
    return result
