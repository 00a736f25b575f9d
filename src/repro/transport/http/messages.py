"""HTTP/1.1 message framing: parse and serialize requests/responses.

Headers are treated case-insensitively and stored with their original
casing.  Bodies are delimited by ``Content-Length`` or by chunked
``Transfer-Encoding`` (:func:`body_framing` decides which); any other
transfer coding is answered ``501 Not Implemented``
(:class:`HttpUnsupportedTransferEncoding`).  A message without either has
an empty body, except a response to a connection that will close, which
may be length-by-EOF.

Chunked framing — both directions — lives *only* here
(``tools/lint.py`` pins that): :class:`ChunkedDecoder` is the single
incremental parser, :func:`encode_chunk`/:func:`chunk_pieces`/
:func:`last_chunk` the single serializer.  A message whose ``stream``
attribute is set serializes as a chunked body pulled lazily from that
iterable (:meth:`HttpRequest.iter_wire`), which is what lets a server
start writing a response before the body is fully produced — the
transport half of the streaming pipeline.

A received body's framing decides how it is read: a ``Content-Length``
body lands in :func:`read_request`/:func:`read_response`, a chunked one is
left to its consumer (:class:`ChunkedBody`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.transport.base import BufferedChannel, TransportClosed, TransportError, land

CRLF = b"\r\n"
HEADER_END = b"\r\n\r\n"

#: Reason phrases for the statuses this stack emits.
REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


def busy_response(retry_after: float, body: bytes, *, close: bool = False) -> "HttpResponse":
    """A 503 load-shed response carrying a ``Retry-After`` hint in seconds.

    The hint is emitted in decimal-seconds form (this stack's clients parse
    fractions; integer values render without a point, staying RFC-shaped
    for everyone else).  ``close=True`` additionally marks the connection
    for teardown — the shape the connection-cap rejection path needs.
    """
    response = HttpResponse(503, body=body)
    response.headers.set("Retry-After", format(retry_after, "g"))
    if close:
        response.headers.set("Connection", "close")
    return response


class HttpError(TransportError):
    """Malformed HTTP traffic.

    ``status`` is the code a server should answer with before tearing the
    connection down (the body boundary is unknown after a framing error,
    so the connection can never be reused).
    """

    status = 400


def error_response(exc: HttpError, *, close: bool = False) -> "HttpResponse":
    """The answer an :class:`HttpError` asks for: its status, its message.

    ``close=True`` is the framing-refusal shape — the body boundary is
    unknown after bad framing, so the connection is never reused.
    """
    response = HttpResponse(exc.status, body=str(exc).encode())
    if close:
        response.headers.set("Connection", "close")
    return response


class HttpUnsupportedTransferEncoding(HttpError):
    """A transfer coding this stack does not implement.

    Only a sole, final ``chunked`` is supported; anything else — ``gzip``,
    a chained ``gzip, chunked``, an unknown token — is answered ``501 Not
    Implemented`` per RFC 9112 §6.1 rather than killing the connection
    with a bare reset.
    """

    status = 501


class _Headers:
    """Ordered, case-insensitive header multimap (single-valued in practice)."""

    def __init__(self, items: list[tuple[str, str]] | None = None) -> None:
        self._items: list[tuple[str, str]] = list(items or [])

    def get(self, name: str, default: str | None = None) -> str | None:
        lname = name.lower()
        for key, value in self._items:
            if key.lower() == lname:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        """Every value carried under ``name`` (a repeated header keeps all)."""
        lname = name.lower()
        return [value for key, value in self._items if key.lower() == lname]

    def set(self, name: str, value: str) -> None:
        lname = name.lower()
        for i, (key, _v) in enumerate(self._items):
            if key.lower() == lname:
                self._items[i] = (name, value)
                return
        self._items.append((name, value))

    def items(self):
        return list(self._items)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Headers({self._items!r})"


class BodyPieces:
    """A buffered body kept as the pieces its producer made.

    To the framing it is a body like any other — ``len()`` is the
    ``Content-Length`` — but :meth:`_Message.iter_wire` yields the pieces
    one by one, so a producer holding large buffers (the BXSA codec's
    array payloads) reaches the socket without a payload-sized join.  The
    peer sees an ordinary length-framed message.  ``bytes(body)`` joins.
    """

    __slots__ = ("pieces", "_length")

    def __init__(self, pieces: list) -> None:
        self.pieces = pieces
        self._length = sum(len(piece) for piece in pieces)

    def __len__(self) -> int:
        return self._length

    def __bytes__(self) -> bytes:
        return b"".join(self.pieces)


class _BodyField:
    """A message's ``body``: the value last set, except that a received
    chunked body still on the channel is read, whole, on first use."""

    def __get__(self, message, owner=None):
        if message is None:
            return b""  # the dataclass field's default
        if type(message.stream) is ChunkedBody:
            message._body = message.stream.read()
            message.stream = None
        return message._body

    def __set__(self, message, value) -> None:
        message._body = value


class _Message:
    """Serialization shared by requests and responses.

    A message carries its body one of two ways:

    * ``body`` — a fully buffered body, framed by ``Content-Length``: to
      send, any bytes-like object (or :class:`BodyPieces`); as received,
      always a read-only ``memoryview`` (of the landing buffer its declared
      length was received into, or of a chunked body's one join) — say
      ``bytes(body)`` / ``str(body, "utf-8")`` where a copy is meant;
    * ``stream`` — an iterable of byte pieces, framed chunked.  Set by a
      producer that cannot (or will not) buffer — the sink-driven BXSA
      writer, a streaming handler — or, received, the :class:`ChunkedBody`
      still on the channel, which reading ``body`` joins.

    ``trailers``, when set on a streamed message, are written after the
    last chunk; a received chunked body fills the same attribute.
    """

    def _head_lines(self) -> list[bytes]:  # pragma: no cover - overridden
        raise NotImplementedError

    def head_bytes(self) -> bytes:
        """Start line + headers + blank line, with body framing decided.

        Sets ``Transfer-Encoding: chunked`` (and drops any stale
        ``Content-Length``) when the body is a stream, ``Content-Length``
        otherwise — the serializer never emits the smuggling combination
        it rejects on parse.
        """
        if self.stream is not None:
            self.headers._items = [
                (k, v) for k, v in self.headers._items
                if k.lower() != "content-length"
            ]
            self.headers.set("Transfer-Encoding", "chunked")
        else:
            self.headers.set("Content-Length", str(len(self.body)))
        lines = self._head_lines()
        lines += [f"{k}: {v}".encode("latin-1") for k, v in self.headers.items()]
        return CRLF.join(lines) + HEADER_END

    def iter_wire(self) -> Iterator[bytes]:
        """The message as wire pieces, pulling a streamed body lazily.

        The head is yielded first, so a consumer writing piece-by-piece
        gets first-byte transmission before the body producer has run —
        the whole point of the streamed form.  One-shot when ``stream``
        is set (the iterable is consumed).
        """
        yield self.head_bytes()
        if self.stream is None:
            if type(self.body) is BodyPieces:
                yield from self.body.pieces
            elif self.body:
                yield self.body
            return
        for piece in self.stream:
            yield from chunk_pieces(piece)
        yield last_chunk(self.trailers)

    def to_bytes(self) -> bytes:
        """The full message as one byte string (consumes a streamed body)."""
        return b"".join(self.iter_wire())


@dataclass(eq=False)
class HttpRequest(_Message):
    """An HTTP request; body either buffered or streamed (see :class:`_Message`).

    Compared by identity, as a response is: a field-wise ``==`` would read
    a received chunked body off its channel and consume a stream."""

    method: str
    target: str
    headers: _Headers = field(default_factory=_Headers)
    body: bytes = _BodyField()
    version: str = "HTTP/1.1"
    stream: Iterable[bytes] | None = None
    trailers: _Headers | None = None
    #: ``perf_counter`` stamp of the serving pipeline taking the request;
    #: latency measured from it is what the client saw, queue wait included.
    received_at: float | None = field(default=None, compare=False, repr=False)

    def _head_lines(self) -> list[bytes]:
        return [f"{self.method} {self.target} {self.version}".encode("ascii")]

    @property
    def keep_alive(self) -> bool:
        conn = (self.headers.get("Connection") or "").lower()
        if self.version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"


@dataclass(eq=False)
class HttpResponse(_Message):
    """An HTTP response; body either buffered or streamed (see :class:`_Message`)."""

    status: int
    headers: _Headers = field(default_factory=_Headers)
    body: bytes = _BodyField()
    version: str = "HTTP/1.1"
    reason: str = ""
    stream: Iterable[bytes] | None = None
    trailers: _Headers | None = None

    def _head_lines(self) -> list[bytes]:
        reason = self.reason or REASONS.get(self.status, "Unknown")
        return [f"{self.version} {self.status} {reason}".encode("ascii")]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def drain_stream(message: HttpRequest | HttpResponse) -> None:
    """Read what is left of a received chunked body, discarding it.

    The threaded server calls this after answering (an inline handler may
    not have read the whole request body), the client before it reuses or
    drops a connection whose response body its caller left unread.
    """
    if message.stream is not None:
        for _ in message.stream:
            pass


def _parse_headers(block: bytes) -> _Headers:
    headers = _Headers()
    for raw_line in block.split(CRLF):
        if not raw_line:
            continue
        if raw_line[0:1] in (b" ", b"\t"):
            raise HttpError("obsolete header folding is not supported")
        name, sep, value = raw_line.partition(b":")
        if not sep or not name:
            raise HttpError(f"malformed header line {raw_line[:60]!r}")
        headers._items.append(
            (str(name, "latin-1").strip(), str(value, "latin-1").strip())
        )
    return headers


def body_framing(headers: _Headers) -> tuple[str, int]:
    """How the headers delimit the body: ``("chunked", 0)`` or ``("length", n)``.

    Rejections are deliberate, not gaps:

    * ``Transfer-Encoding`` together with ``Content-Length`` is the
      classic request-smuggling shape (two parsers frame the stream
      differently) — 400;
    * any coding chain other than a sole ``chunked`` — 501
      (:class:`HttpUnsupportedTransferEncoding`), because silently
      treating an encoded body as identity bytes corrupts it;
    * repeated ``Content-Length`` with differing values — 400.  Repeats
      that agree are collapsed (RFC 9110 §8.6 allows recombining them).
    """
    te_values = headers.get_all("Transfer-Encoding")
    if te_values:
        if headers.get_all("Content-Length"):
            raise HttpError(
                "Transfer-Encoding with Content-Length is rejected "
                "(request-smuggling shape)"
            )
        codings = [
            c.strip().lower()
            for value in te_values
            for c in value.split(",")
            if c.strip()
        ]
        if codings == ["chunked"]:
            return "chunked", 0
        raise HttpUnsupportedTransferEncoding(
            f"unsupported Transfer-Encoding {', '.join(codings)!r} "
            "(only a single chunked coding is implemented)"
        )
    raw_values = headers.get_all("Content-Length")
    if not raw_values:
        return "length", 0
    distinct = {value.strip() for value in raw_values}
    if len(distinct) > 1:
        raise HttpError(
            f"conflicting Content-Length headers {sorted(distinct)!r}"
        )
    raw_length = distinct.pop()
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(f"bad Content-Length {raw_length!r}") from None
    if length < 0:
        raise HttpError(f"negative Content-Length {length}")
    return "length", length


def declared_body_length(headers: _Headers) -> int:
    """The fixed body length the headers declare (0 when absent).

    The length-framed subset of :func:`body_framing`, kept for callers
    that cannot handle a chunked body (the ladder load client parses
    responses from this stack's servers, which are length-framed); a
    chunked message raises here.
    """
    mode, length = body_framing(headers)
    if mode == "chunked":
        raise HttpError("chunked body has no declared length")
    return length


# ----------------------------------------------------------------------
# chunked transfer coding — the only encoder/decoder in the codebase


#: Ceiling on one chunk-size line (hex size + optional extensions).
MAX_CHUNK_LINE = 256

#: Ceiling on the trailer section of a chunked body.
MAX_TRAILER_BYTES = 16 * 1024


def chunk_pieces(data: bytes | bytearray | memoryview) -> tuple:
    """One data chunk as its wire pieces: hex size line, payload, CRLF.

    The payload rides by reference: framing must never concatenate a
    payload-sized buffer — for large streamed bodies that copy IS the
    peak memory.  Empty input frames to nothing — a zero-size chunk on
    the wire would terminate the body, so producers may pass through
    empty pieces without guarding.
    """
    n = len(data)
    if n == 0:
        return ()
    return (b"%x" % n) + CRLF, data, CRLF


def encode_chunk(data: bytes | bytearray | memoryview) -> bytes:
    """:func:`chunk_pieces` joined into one byte string (a payload copy:
    for callers that need the chunk as a value, not writers)."""
    return b"".join(chunk_pieces(data))


def last_chunk(trailers: _Headers | None = None) -> bytes:
    """The terminal zero chunk, carrying the trailer section if any."""
    out = b"0" + CRLF
    if trailers is not None:
        for name, value in trailers.items():
            out += f"{name}: {value}".encode("latin-1") + CRLF
    return out + CRLF


class ChunkedDecoder:
    """Incremental chunked-coding parser (RFC 9112 §7.1): push bytes in,
    get body pieces out.

    Feeds need not align with any chunk boundary — a size line, a
    payload, the trailer section may all arrive split across feeds
    (exactly the shape the event-driven server's read loop produces).
    Once :attr:`done` is set, bytes past the end of the body are *not*
    consumed: they belong to the next pipelined message and are handed
    back via :attr:`residue`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._state = "size"  # size | data | data-end | trailers | done
        self._remaining = 0
        self._trailer_block = bytearray()
        #: Parsed trailer section, once :attr:`done` (None before).
        self.trailers: _Headers | None = None
        #: Bytes fed past the end of the body (valid once :attr:`done`).
        self.residue = b""
        self.done = False

    def feed(self, data: bytes | bytearray | memoryview) -> list[bytes]:
        """Consume ``data``, returning the body pieces it completed."""
        if self.done:
            raise HttpError("chunked body already complete")
        buf = self._buf
        buf += data
        pieces: list[bytes] = []
        pos = 0
        n = len(buf)
        # slices go through one view: ``bytes(buf[a:b])`` copies twice.  It
        # is released before ``buf`` is resized (an exported bytearray
        # cannot be)
        with memoryview(buf) as view:
            while not self.done:
                if self._state == "data":
                    take = min(self._remaining, n - pos)
                    if take == 0:
                        break
                    pieces.append(bytes(view[pos : pos + take]))
                    pos += take
                    self._remaining -= take
                    if self._remaining == 0:
                        self._state = "data-end"
                    continue
                if self._state == "data-end":
                    if n - pos < 2:
                        break
                    if buf[pos : pos + 2] != CRLF:
                        raise HttpError("chunk data not terminated by CRLF")
                    pos += 2
                    self._state = "size"
                    continue
                if self._state == "size":
                    idx = buf.find(CRLF, pos)
                    if idx < 0:
                        if n - pos > MAX_CHUNK_LINE:
                            raise HttpError("chunk-size line exceeds limit")
                        break
                    line = bytes(view[pos:idx])
                    pos = idx + 2
                    size_field = line.split(b";", 1)[0].strip()
                    try:
                        size = int(size_field, 16)
                    except ValueError:
                        raise HttpError(
                            f"bad chunk size {size_field[:32]!r}"
                        ) from None
                    if size == 0:
                        self._state = "trailers"
                    else:
                        self._remaining = size
                        self._state = "data"
                    continue
                # trailers: field lines up to an empty line
                idx = buf.find(CRLF, pos)
                if idx < 0:
                    if n - pos + len(self._trailer_block) > MAX_TRAILER_BYTES:
                        raise HttpError("chunked trailer section exceeds limit")
                    break
                line = bytes(view[pos:idx])
                pos = idx + 2
                if line:
                    if len(self._trailer_block) + len(line) > MAX_TRAILER_BYTES:
                        raise HttpError("chunked trailer section exceeds limit")
                    self._trailer_block += line + CRLF
                    continue
                self.trailers = _parse_headers(bytes(self._trailer_block))
                self.residue = bytes(view[pos:])
                self._buf = bytearray()
                self.done = True
                return pieces
        del buf[:pos]
        return pieces


class ChunkedBody:
    """A received chunked body still on its channel: iterate it for the
    pieces as they arrive, or :meth:`read` it whole — once, one way.  Its
    last chunk sets the message's trailers and pushes bytes past the body
    back into the channel; a body that failed to read fails again."""

    __slots__ = ("_pieces", "_started", "_failed")

    def __init__(self, channel: BufferedChannel, message: HttpRequest | HttpResponse) -> None:
        self._pieces = self._decode(channel, message)
        self._started = False
        self._failed = False

    def __iter__(self) -> Iterator[bytes]:
        if self._failed:
            raise HttpError("chunked body could not be read; its framing is lost")
        self._started = True
        return self._pieces

    def read(self) -> memoryview:
        """The whole body: the view of its one join (no length to land into)."""
        if self._started:
            raise HttpError("chunked body is already being read as a stream")
        return memoryview(b"".join(self))

    def _decode(self, channel: BufferedChannel, message) -> Iterator[bytes]:
        decoder = ChunkedDecoder()
        try:
            while not decoder.done:
                data = channel.recv(65536)
                if not data:
                    raise TransportClosed("peer closed mid-chunked-body")
                yield from decoder.feed(data)
        except Exception:
            self._failed = True
            raise
        if decoder.residue:
            channel.unrecv(decoder.residue)
        message.trailers = decoder.trailers


def _take_body(message, channel: BufferedChannel):
    """Land a declared body now; leave a chunked one to its consumer."""
    mode, length = body_framing(message.headers)
    if mode == "chunked":
        message.stream = ChunkedBody(channel, message)
    else:
        message.body = land(channel, length)
    return message


def parse_request_head(head: bytes) -> tuple[str, str, str, _Headers]:
    """Parse a request head (no trailing ``HEADER_END``) into its parts.

    Shared by the blocking :func:`read_request` and the incremental
    framer in :mod:`repro.transport.aio` so both servers accept exactly
    the same request grammar.  Returns ``(method, target, version,
    headers)``.
    """
    start_line, _, header_block = head.partition(CRLF)
    parts = start_line.split(b" ")
    if len(parts) != 3:
        raise HttpError(f"malformed request line {start_line[:60]!r}")
    method, target, version = (str(p, "latin-1") for p in parts)
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(f"unsupported HTTP version {version!r}")
    return method, target, version, _parse_headers(header_block)


def read_request(channel: BufferedChannel) -> HttpRequest:
    """Parse one request off a buffered channel; a ``Content-Length`` body
    has landed, a chunked one is ``request.stream`` (:class:`ChunkedBody`)."""
    head = channel.recv_until(HEADER_END)
    method, target, version, headers = parse_request_head(head[: -len(HEADER_END)])
    return _take_body(HttpRequest(method, target, headers, b"", version), channel)


def read_response(channel: BufferedChannel) -> HttpResponse:
    """Parse one response off a buffered channel (its body as above)."""
    head = channel.recv_until(HEADER_END)
    start_line, _, header_block = head[: -len(HEADER_END)].partition(CRLF)
    parts = start_line.split(b" ", 2)
    if len(parts) < 2:
        raise HttpError(f"malformed status line {start_line[:60]!r}")
    version = str(parts[0], "latin-1")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(f"bad status code {parts[1]!r}") from None
    reason = str(parts[2], "latin-1") if len(parts) == 3 else ""
    headers = _parse_headers(header_block)
    return _take_body(HttpResponse(status, headers, b"", version, reason), channel)
