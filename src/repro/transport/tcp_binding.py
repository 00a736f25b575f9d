"""The TCP SOAP binding: length-prefixed messages straight on a stream.

§5.3 of the paper: "the TCP binding will just dump the serialization
directly to a TCP connection".  To make the stream self-describing enough
for the generic engine, each message carries a tiny fixed header::

    magic   2 bytes  0xB5 0x0A  ("BSOA")
    ctype   1 byte   length of the content-type tag
    ctag    n bytes  ASCII content-type (e.g. "application/bxsa")
    length  4 bytes  big-endian payload byte count
    payload

The content-type tag is how a server engine knows which encoding policy to
decode with — the wire-level counterpart of HTTP's ``Content-Type`` header,
kept deliberately minimal (the whole point of this binding is that framing
overhead is a handful of bytes, not an HTTP transaction).

Server side, :func:`serve_messages` is the per-connection loop a
:class:`~repro.transport.host.ConnectionHost` runs (the SOAP/TCP service,
the intermediary), what a message *means* passed in as ``answer``;
:class:`TcpServerBinding` is for an engine receiving one-way messages.
"""

from __future__ import annotations

import struct

from repro import obs
from repro.transport.base import Channel, TransportError, land, recv_exactly, send_pieces
from repro.transport.resilience import DeadlineChannel, as_deadline

_MAGIC = b"\xb5\x0a"
_MAX_CONTENT_TYPE = 255
#: Refuse absurd sizes rather than allocate on hostile input.
MAX_MESSAGE_BYTES = 1 << 31


def write_message(channel: Channel, payload, content_type: str) -> int:
    """Frame and send one message; returns bytes put on the wire.

    ``payload`` is one buffer, or the pieces a gathering encoder made
    (``encode_pieces``).  Header and pieces leave by reference in one
    gathered send — no payload-sized join, under that encoder's aliasing
    contract — so a small message is still one segment (split in two it
    costs the peer a second wake-up).
    """
    ctag = content_type.encode("ascii")
    if not 0 < len(ctag) <= _MAX_CONTENT_TYPE:
        raise TransportError(f"content type {content_type!r} not encodable")
    pieces = payload if isinstance(payload, list) else (payload,)
    length = sum(len(piece) for piece in pieces)
    header = _MAGIC + bytes((len(ctag),)) + ctag + struct.pack(">I", length)
    with obs.span("tcp.write", kind="cpu", bytes=len(header) + length):
        send_pieces(channel, (header, *pieces))
    return len(header) + length


def read_message(channel: Channel) -> tuple[memoryview, str]:
    """Read one framed message; returns (payload, content_type).  The
    payload is landed (:func:`~repro.transport.base.land`): a read-only
    view."""
    with obs.span("tcp.read", kind="cpu") as sp:
        magic = recv_exactly(channel, 2)
        if magic != _MAGIC:
            raise TransportError(f"bad magic {magic!r} on TCP binding stream")
        (ctype_len,) = recv_exactly(channel, 1)
        ctag = recv_exactly(channel, ctype_len)
        (length,) = struct.unpack(">I", recv_exactly(channel, 4))
        if length > MAX_MESSAGE_BYTES:
            raise TransportError(f"message of {length} bytes exceeds limit")
        payload = land(channel, length)
        sp.set("bytes", len(payload))
        try:
            return payload, str(ctag, "ascii")
        except UnicodeDecodeError as exc:
            raise TransportError(f"invalid content-type tag: {exc}") from exc


def serve_messages(channel: Channel, receive, answer) -> None:
    """Serve one connection: read a message, write ``answer``'s, repeat
    until the peer is done or the host is draining.

    ``receive(channel, read)`` is the host's idle gate
    (``ConnectionHost.receive``); ``answer(payload, content_type)`` returns
    the reply's ``(payload, content_type)``.
    """
    while _serve_message(channel, receive, answer):
        pass


def _serve_message(channel: Channel, receive, answer) -> bool:
    # its own frame on purpose: the request and the reply die with it, so
    # nothing payload-sized rides along while the thread parks in the next read
    try:
        payload, content_type = receive(channel, read_message)
    except TransportError:
        return False  # peer finished, or the host is draining
    reply = answer(payload, content_type)
    try:
        write_message(channel, *reply)
    except TransportError:
        return False  # peer went away mid-reply
    return True


class TcpClientBinding:
    """Client half of the binding concept: send_request / receive_response.

    Both operations accept an optional ``deadline`` (seconds or a
    :class:`~repro.transport.resilience.Deadline`), enforced at every
    channel read/write of the framed message.
    """

    name = "tcp"

    def __init__(self, channel: Channel) -> None:
        self._channel = channel
        self._shim = DeadlineChannel(channel)

    def send_request(self, payload, content_type: str, *, deadline=None) -> int:
        return write_message(self._bounded(deadline), payload, content_type)

    def receive_response(self, *, deadline=None) -> tuple[bytes, str]:
        return read_message(self._bounded(deadline))

    def _bounded(self, deadline) -> Channel:
        dl = as_deadline(deadline)
        if dl is None:
            return self._channel
        self._shim.deadline = dl
        return self._shim

    def close(self) -> None:
        self._channel.close()


class TcpServerBinding:
    """Server half of the binding concept: receive_request / send_response."""

    name = "tcp"

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def receive_request(self) -> tuple[bytes, str]:
        return read_message(self._channel)

    def send_response(self, payload: bytes, content_type: str) -> int:
        return write_message(self._channel, payload, content_type)

    def close(self) -> None:
        self._channel.close()
