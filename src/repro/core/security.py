"""A security policy for the generic engine — §5's extensibility claim.

"It will be straightforward to introduce more policies (e.g., a security
policy) into the generic engine by just adding more template parameters."
This module is that policy, Python-style: an optional third argument to
:class:`~repro.core.engine.SoapEngine` satisfying the three valid
expressions ``header_name`` / ``sign(envelope)`` / ``verify(envelope)``.
The *concept* (``check_security_policy``) lives with the other concept
checks in :mod:`repro.core.concepts`, which is all the engine imports; this
module holds the *models*, and is loaded by whoever constructs one.

:class:`HmacSigningPolicy` signs the *data model*, not the wire bytes: the
MAC is computed over the canonical form of the body children
(:func:`repro.xdm.digest.canonical_digest`), so a signed message stays
verifiable after re-encoding — XML ↔ BXSA transcoding at an intermediary
does not break it, exactly the property the paper's architecture needs
(WS-Security sits *above* the encoding layer in Figure 3).  The signature
travels in a ``sec:Signature`` header block.

This is deliberately symmetric-key (one shared service secret), standing in
for WS-Security's XML-Signature machinery the way the GridFTP substrate's
handshake stands in for GSI.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.core.concepts import check_security_policy  # noqa: F401 - re-exported
from repro.core.envelope import SoapEnvelope
from repro.core.fault import SoapFault
from repro.xbs.errors import XBSDecodeError
from repro.transport.base import _uninitialised
from repro.xbs.varint import decode_vls, encode_vls
from repro.xdm.digest import canonical_digest
from repro.xdm.nodes import ElementNode, LeafElement
from repro.xdm.qname import QName

#: Namespace of this project's security header.
SEC_URI = "urn:repro:security"

SIGNATURE_HEADER = QName("Signature", SEC_URI, "sec")

#: Fault code used for signature failures.
SECURITY_FAULT = "sec:InvalidSignature"


@runtime_checkable
class SecurityPolicy(Protocol):
    """The security policy concept (its valid expressions)."""

    def sign(self, envelope: SoapEnvelope) -> None: ...

    def verify(self, envelope: SoapEnvelope) -> None: ...


class NullSecurity:
    """The no-security model (the engine's default behaviour, reified)."""

    def sign(self, envelope: SoapEnvelope) -> None:  # noqa: D102 - concept
        return None

    def verify(self, envelope: SoapEnvelope) -> None:  # noqa: D102 - concept
        return None


class SecretKey:
    """A shared MAC key."""

    __slots__ = ("_key", "key_id")

    def __init__(self, key: bytes, key_id: str = "k1") -> None:
        if len(key) < 16:
            raise ValueError("keys shorter than 16 bytes are not acceptable")
        self._key = bytes(key)
        self.key_id = key_id

    @classmethod
    def generate(cls, key_id: str = "k1") -> "SecretKey":
        return cls(os.urandom(32), key_id)

    def mac(self, payload: bytes) -> bytes:
        return hmac.new(self._key, payload, hashlib.sha256).digest()

    def hasher(self):
        """An incremental HMAC-SHA256 under this key: ``update``, then
        ``digest``."""
        return hmac.new(self._key, digestmod=hashlib.sha256)


def _body_mac(key: SecretKey, envelope: SoapEnvelope) -> bytes:
    """HMAC of the body children's canonical forms, in order.

    ``canonical_digest`` writes each child's prefix-free encoding (Clark
    names, sorted attributes, canonical NaN, arrays little-endian) into
    the MAC as it walks the tree, so arrays are read where they lie:
    nothing payload-sized is built, and a big-endian decode signs alike.
    """
    mac = key.hasher()
    for child in envelope.body_children:
        canonical_digest(child, mac)
    return mac.digest()


class HmacSigningPolicy:
    """Signs outgoing envelopes, verifies incoming ones.

    Parameters
    ----------
    key:
        The shared :class:`SecretKey`.
    require_signature:
        When True (default) an incoming envelope without a signature header
        is rejected; set False for migration scenarios where unsigned
        traffic is still tolerated (but bad signatures always reject).
    """

    def __init__(self, key: SecretKey, *, require_signature: bool = True) -> None:
        self.key = key
        self.require_signature = require_signature

    # ------------------------------------------------------------------

    def sign(self, envelope: SoapEnvelope) -> None:
        """Attach (or replace) the signature header."""
        envelope.header_blocks = [
            block
            for block in envelope.header_blocks
            if not (isinstance(block, ElementNode) and block.name == SIGNATURE_HEADER)
        ]
        mac = _body_mac(self.key, envelope)
        header = ElementNode(SIGNATURE_HEADER)
        header.declare_namespace("sec", SEC_URI)
        header.children.append(LeafElement("keyId", self.key.key_id, "string"))
        header.children.append(LeafElement("algorithm", "hmac-sha256", "string"))
        header.children.append(LeafElement("value", mac.hex(), "string"))
        envelope.header_blocks.append(header)

    def verify(self, envelope: SoapEnvelope) -> None:
        """Raise :class:`SoapFault` unless the body matches its signature."""
        header = envelope.header(SIGNATURE_HEADER.local)
        if header is None or header.name != SIGNATURE_HEADER:
            if self.require_signature:
                raise SoapFault(SECURITY_FAULT, "message is not signed")
            return
        fields = {
            child.name.local: str(child.value)
            for child in header.elements()
            if isinstance(child, LeafElement)
        }
        if fields.get("algorithm") != "hmac-sha256":
            raise SoapFault(
                SECURITY_FAULT, f"unsupported algorithm {fields.get('algorithm')!r}"
            )
        if fields.get("keyId") != self.key.key_id:
            raise SoapFault(SECURITY_FAULT, f"unknown key id {fields.get('keyId')!r}")
        try:
            claimed = bytes.fromhex(fields.get("value", ""))
        except ValueError:
            raise SoapFault(SECURITY_FAULT, "malformed signature value") from None
        expected = _body_mac(self.key, envelope)
        if not hmac.compare_digest(claimed, expected):
            raise SoapFault(SECURITY_FAULT, "body does not match its signature")


# ----------------------------------------------------------------------
# non-blocking chunk signatures for streamed messages
#
# HmacSigningPolicy above needs the whole data model in hand before it can
# MAC anything — exactly what the streaming pipeline cannot afford.  This
# layer follows Kohring & Lo Iacono's non-blocking signature idea instead:
# sign the message *as it flows*, a MAC per chunk, so the receiver
# verifies (and may process) each chunk on arrival and neither side ever
# holds the message.  Wire format, riding inside any byte stream (for this
# project: a chunked HTTP body carrying a streamed BXSA document)::
#
#     signed stream := *signed-chunk  trailer
#     signed-chunk  := VLS(len > 0)  payload[len]  mac[32]
#     trailer       := VLS(0)  final-mac[32]
#
#     mac_i     = HMAC-SHA256(key, "repro:chunk" ‖ u64be(i) ‖ payload)
#     final-mac = HMAC-SHA256(key, "repro:final" ‖ u64be(n) ‖ chain)
#     chain     = SHA-256(mac_0 ‖ mac_1 ‖ … ‖ mac_{n-1})
#
# The sequence number inside each per-chunk MAC pins position (no
# reordering or replay within the stream); the trailer MAC over the chain
# digest pins the chunk *set* and count (no truncation, no splicing of
# individually-valid chunks) — a stream without its trailer never
# verifies.  Chunk payloads are bounded (MAX_SIGNED_CHUNK) so a verifier's
# buffering stays O(chunk), never O(message).


#: HMAC-SHA256 output size — every MAC on the wire.
MAC_SIZE = 32

#: Ceiling on one signed chunk's payload; keeps verifier buffering bounded
#: and rejects absurd length prefixes before allocating for them.
MAX_SIGNED_CHUNK = 16 * 1024 * 1024

_CHUNK_TAG = b"repro:chunk"
_FINAL_TAG = b"repro:final"


def _chunk_mac(key: SecretKey, seq: int, payload) -> bytes:
    """``mac_i`` above, fed in pieces: the payload is read where it lies."""
    mac = key.hasher()
    mac.update(_CHUNK_TAG)
    mac.update(struct.pack(">Q", seq))
    mac.update(payload)
    return mac.digest()


class ChunkSignatureError(Exception):
    """A signed stream failed verification (tampered, reordered,
    truncated, or malformed framing)."""


class ChunkSigner:
    """Wrap a flow of byte pieces into the signed-chunk format.

    One-shot, stateful: :meth:`wrap` each payload in order, then
    :meth:`trailer` exactly once.  :func:`sign_stream` is the generator
    form that composes directly with a streamed HTTP body.
    """

    def __init__(self, key: SecretKey) -> None:
        self.key = key
        self._seq = 0
        self._chain = hashlib.sha256()
        self._finished = False

    def wrap(self, payload: bytes | bytearray | memoryview) -> bytes:
        """One signed chunk for ``payload`` (empty payloads not allowed —
        a zero length is the trailer marker)."""
        if self._finished:
            raise ChunkSignatureError("signer already emitted its trailer")
        view = memoryview(payload).cast("B")
        if not view:
            raise ChunkSignatureError("cannot sign an empty chunk")
        if len(view) > MAX_SIGNED_CHUNK:
            raise ChunkSignatureError(
                f"chunk of {len(view)} bytes exceeds MAX_SIGNED_CHUNK"
            )
        mac = _chunk_mac(self.key, self._seq, view)
        self._seq += 1
        self._chain.update(mac)
        # the one copy of the payload: into the chunk that goes out
        return b"".join([encode_vls(len(view)), view, mac])

    def trailer(self) -> bytes:
        """The terminal zero-length marker + MAC over the whole chain."""
        if self._finished:
            raise ChunkSignatureError("signer already emitted its trailer")
        self._finished = True
        final = self.key.mac(
            _FINAL_TAG + struct.pack(">Q", self._seq) + self._chain.digest()
        )
        return encode_vls(0) + final


class ChunkVerifier:
    """Incrementally verify a signed stream, yielding payloads as they
    prove authentic.

    Push parser: :meth:`feed` returns the payloads completed by the bytes
    so far (each already MAC-checked — a consumer may act on them
    immediately, the non-blocking property).  After the trailer verifies,
    :attr:`done` is set; any byte past it, a bad MAC, or :meth:`close`
    before the trailer raises :class:`ChunkSignatureError`.

    One chunk is resident, once: a payload lands in a buffer of its own
    size as soon as its length prefix is read and checked, its MAC is
    checked where it landed, and it is handed on as a read-only view.
    """

    def __init__(self, key: SecretKey) -> None:
        self.key = key
        self._buf = bytearray()  # a length prefix, then a MAC: never a payload
        self._seq = 0
        self._chain = hashlib.sha256()
        self._need: int | None = None  # payload length once the VLS parsed
        self._payload: memoryview | None = None  # where that payload lands
        self._filled = 0
        self.done = False

    def feed(self, data: bytes | bytearray | memoryview) -> list[memoryview]:
        if self.done:
            if len(data):
                raise ChunkSignatureError("data past the signature trailer")
            return []
        buf = self._buf
        rest = memoryview(data).cast("B")
        out: list[memoryview] = []
        while True:
            if self._need is None:
                length, used = self._read_vls(rest)
                rest = rest[used:]
                if length is None:
                    break
                if length > MAX_SIGNED_CHUNK:
                    raise ChunkSignatureError(
                        f"declared chunk length {length} exceeds MAX_SIGNED_CHUNK"
                    )
                self._need = length
                if length:
                    self._payload = _uninitialised(length)
                    self._filled = 0
            payload = self._payload
            if payload is not None and self._filled < self._need:
                take = min(len(rest), self._need - self._filled)
                payload[self._filled : self._filled + take] = rest[:take]
                self._filled += take
                rest = rest[take:]
                if self._filled < self._need:
                    break
            take = MAC_SIZE - len(buf)
            buf += rest[:take]
            rest = rest[take:]
            if len(buf) < MAC_SIZE:
                break
            if payload is None:  # the zero-length marker: this is the trailer
                expected = self.key.mac(
                    _FINAL_TAG + struct.pack(">Q", self._seq) + self._chain.digest()
                )
                if not hmac.compare_digest(buf, expected):
                    raise ChunkSignatureError(
                        "trailer signature does not match the chunk chain"
                    )
                self.done = True
                if rest:
                    raise ChunkSignatureError("data past the signature trailer")
                break
            if not hmac.compare_digest(buf, _chunk_mac(self.key, self._seq, payload)):
                raise ChunkSignatureError(
                    f"chunk {self._seq} failed its signature check"
                )
            self._chain.update(buf)
            buf.clear()
            self._need = self._payload = None
            self._seq += 1
            out.append(payload.toreadonly())
        return out

    def _read_vls(self, rest: memoryview) -> tuple[int | None, int]:
        """``(length, bytes of rest used)``: the length prefix, gathered in
        ``_buf``, once ``rest`` completes it (else ``None``)."""
        buf = self._buf
        for used, byte in enumerate(rest, 1):
            if len(buf) >= 10:
                raise ChunkSignatureError("malformed chunk length prefix")
            buf.append(byte)
            if not byte & 0x80:
                try:
                    value, _end = decode_vls(bytes(buf))
                except XBSDecodeError as exc:
                    raise ChunkSignatureError(
                        f"malformed chunk length prefix: {exc}"
                    ) from None
                buf.clear()
                return value, used
        return None, len(rest)

    def close(self) -> None:
        """Assert the stream ended exactly at its trailer."""
        if not self.done:
            raise ChunkSignatureError(
                "signed stream ended before its trailer — truncated or unterminated"
            )


def sign_stream(
    pieces: Iterable[bytes], key: SecretKey
) -> Iterator[bytes]:
    """Generator form of :class:`ChunkSigner`: yields wire pieces for a
    payload flow, trailer included.  Composes with a streamed HTTP body::

        response.stream = sign_stream(writer_pieces, key)
    """
    signer = ChunkSigner(key)
    for piece in pieces:
        if len(piece):
            yield signer.wrap(piece)
    yield signer.trailer()


def verify_stream(
    pieces: Iterable[bytes], key: SecretKey
) -> Iterator[bytes]:
    """Generator form of :class:`ChunkVerifier`: yields authenticated
    payloads as wire pieces arrive; raises :class:`ChunkSignatureError`
    on tampering or if the flow ends before the trailer."""
    verifier = ChunkVerifier(key)
    for piece in pieces:
        for payload in verifier.feed(piece):
            yield payload
    verifier.close()
