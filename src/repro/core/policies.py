"""Encoding policies: the pluggable serialization leg of the engine.

§5.2: an encoding policy is "an object that is able to serialize and
deserialize the bXDM model" — a Visitor for the encode direction and a
factory for the decode direction.  Both shipped models delegate to the
corresponding codec package; the engine only ever sees the three valid
expressions (``content_type``, ``encode``, ``decode``).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro import obs
from repro.bxsa.decoder import decode as bxsa_decode
from repro.bxsa.encoder import BXSAEncoder
from repro.bxsa.session import CodecSession
from repro.xbs.constants import NATIVE_ENDIAN
from repro.xdm.nodes import DocumentNode
from repro.xmlcodec.parser import parse_document
from repro.xmlcodec.serializer import XMLSerializer

#: Content types tagging each encoding on either binding.
XML_CONTENT_TYPE = "text/xml"
BXSA_CONTENT_TYPE = "application/bxsa"


@runtime_checkable
class EncodingPolicy(Protocol):
    """The encoding policy concept (its "valid expressions")."""

    @property
    def content_type(self) -> str: ...

    def encode(self, document: DocumentNode) -> bytes: ...

    def decode(self, payload: bytes) -> DocumentNode: ...


class XMLEncoding:
    """Textual XML 1.0 encoding — the SOAP default wire format.

    ``emit_types=True`` (default) writes xsi:type annotations so typed bXDM
    payloads survive; this is what the SOAP encoding rules require when no
    schema is shared (§4.2 of the paper).
    """

    content_type = XML_CONTENT_TYPE

    def __init__(self, *, emit_types: bool = True) -> None:
        self.emit_types = emit_types
        self._serializer: XMLSerializer | None = None

    def _get_serializer(self) -> XMLSerializer:
        # lazy create + hold: policies are constructed on negotiation paths
        # where the codec may never be used for this direction
        serializer = self._serializer
        if serializer is None:
            serializer = self._serializer = XMLSerializer(emit_types=self.emit_types)
        return serializer

    def encode(self, document: DocumentNode) -> bytes:
        # hot path: guard on the recorder so the disabled cost is one
        # attribute check, not a context-manager round trip
        serializer = self._get_serializer()
        recorder = obs.get_recorder()
        if not recorder.enabled:
            return serializer.run_bytes(document)
        with recorder.span("xml.encode") as sp:
            payload = serializer.run_bytes(document)
            sp.set("bytes", len(payload))
            return payload

    def decode(self, payload: bytes) -> DocumentNode:
        recorder = obs.get_recorder()
        if not recorder.enabled:
            return parse_document(payload, typed=True)
        with recorder.span("xml.decode", bytes=len(payload)):
            return parse_document(payload, typed=True)

    def __repr__(self) -> str:
        return f"XMLEncoding(emit_types={self.emit_types})"


class BXSAEncoding:
    """BXSA binary XML encoding.

    ``copy=False`` (default) decodes array payloads as zero-copy views over
    the received buffer — the receive path stays allocation-free for bulk
    data, which is where the unified scheme's large-message throughput
    comes from.

    ``session=True`` (default) backs the policy with a long-lived
    :class:`~repro.bxsa.session.CodecSession`: repeated same-shape messages
    hit compiled encode plans on the send side and compiled decode plans
    plus interned name tables on the receive side.  The wire bytes and the
    decoded trees are identical either way (the session self-verifies both
    directions and poisons divergent shapes; see its module docstring) —
    ``session=False`` exists for *measurement*, so the benchmark harness
    can keep timing the cold per-message codec cost that Figures 4-6
    report rather than warm-plan replay.  The ``copy=False`` aliasing
    contract is unchanged under plan replay: array payloads are the same
    zero-copy views over the received buffer.
    """

    content_type = BXSA_CONTENT_TYPE

    def __init__(
        self,
        byte_order: int = NATIVE_ENDIAN,
        *,
        copy: bool = False,
        session: bool = True,
    ) -> None:
        self.byte_order = byte_order
        self.copy = copy
        self.session = session
        # lazy create + hold (previously an encoder was built eagerly even
        # on negotiation paths that only ever decode)
        self._session: CodecSession | None = None
        self._encoder: BXSAEncoder | None = None

    def _get_session(self) -> CodecSession:
        codec = self._session
        if codec is None:
            codec = self._session = CodecSession(self.byte_order)
        return codec

    def _get_encoder(self) -> BXSAEncoder:
        encoder = self._encoder
        if encoder is None:
            encoder = self._encoder = BXSAEncoder(self.byte_order)
        return encoder

    def encode(self, document: DocumentNode) -> bytes:
        # hot path: guard on the recorder so the disabled cost is one
        # attribute check, not a context-manager round trip
        codec = self._get_session() if self.session else self._get_encoder()
        recorder = obs.get_recorder()
        if not recorder.enabled:
            return codec.encode(document)
        with recorder.span("bxsa.encode") as sp:
            payload = codec.encode(document)
            sp.set("bytes", len(payload))
            return payload

    def encode_pieces(self, document: DocumentNode) -> list:
        """:meth:`encode` as the pieces a gather-writing consumer sends.

        Not one of the policy's three valid expressions: a host that can
        write pieces looks for it and falls back to :meth:`encode`.  With
        a warm session a bulk message's array payloads come back as views
        of the tree's arrays, not copied — see
        :meth:`CodecSession.encode_pieces
        <repro.bxsa.session.CodecSession.encode_pieces>` for the aliasing
        contract; in every other case the one piece is :meth:`encode`'s.
        """
        if not self.session:
            return [self.encode(document)]
        codec = self._get_session()
        recorder = obs.get_recorder()
        if not recorder.enabled:
            return codec.encode_pieces(document)
        with recorder.span("bxsa.encode") as sp:
            pieces = codec.encode_pieces(document)
            sp.set("bytes", sum(len(piece) for piece in pieces))
            return pieces

    def _decode_node(self, payload: bytes):
        if self.session:
            return self._get_session().decode(payload, copy=self.copy)
        return bxsa_decode(payload, copy=self.copy)

    def decode(self, payload: bytes) -> DocumentNode:
        recorder = obs.get_recorder()
        if not recorder.enabled:
            node = self._decode_node(payload)
        else:
            with recorder.span("bxsa.decode", bytes=len(payload)):
                node = self._decode_node(payload)
        if not isinstance(node, DocumentNode):
            node = DocumentNode([node])
        return node

    def __repr__(self) -> str:
        return f"BXSAEncoding(byte_order={self.byte_order}, session={self.session})"


#: Extensible content-type → policy-factory registry.  The two shipped
#: encodings are pre-registered; user policies (compression wrappers,
#: custom formats) add themselves via :func:`register_content_type`.
_REGISTRY: dict[str, "object"] = {}


def register_content_type(content_type: str, factory) -> None:
    """Register a policy factory for server-side content negotiation.

    ``factory`` is a zero-argument callable returning a fresh policy whose
    ``content_type`` matches.  Re-registration replaces (tests and
    reconfiguration need that).
    """
    _REGISTRY[content_type.strip().lower()] = factory


register_content_type(XML_CONTENT_TYPE, XMLEncoding)
register_content_type("application/soap+xml", XMLEncoding)
register_content_type("application/xml", XMLEncoding)
register_content_type(BXSA_CONTENT_TYPE, BXSAEncoding)


def _base_type(content_type: str) -> str:
    """A wire content type without its parameters, lower-cased."""
    return content_type.split(";")[0].strip().lower()


def encoding_for_content_type(content_type: str) -> EncodingPolicy:
    """Instantiate the registered policy matching a wire content type.

    Servers use this to decode whatever a client sent and to reply in
    kind — the generic engine's server side is encoding-agnostic.
    """
    factory = _REGISTRY.get(_base_type(content_type))
    if factory is None:
        raise ValueError(f"no encoding policy for content type {content_type!r}")
    return factory()


class NegotiatedPolicies:
    """Per-message negotiation: one warm policy per content type spoken.

    ``default`` answers its own content type (and is what an unresolvable
    type is answered in); any other registered type gets a policy created
    on first use and held, so the cross-message codec state — compiled
    BXSA plans, interned names — survives on the negotiation path instead
    of being rebuilt per message.

    An instance belongs to whatever runs exchanges one at a time — a pool
    worker, a TCP connection, a client engine — so the policies it creates
    are used without locking and never shared across threads.
    """

    __slots__ = ("default", "_policies")

    def __init__(self, default: EncodingPolicy | None = None) -> None:
        self.default = default if default is not None else XMLEncoding()
        self._policies = {_base_type(self.default.content_type): self.default}

    def resolve(self, content_type: str) -> EncodingPolicy:
        """The policy for a wire content type; :class:`ValueError` when no
        registered policy speaks it."""
        # keyed by base type only — a peer's parameters must not grow the
        # table — so the bare, lower-case tag nearly every message carries
        # is the one-lookup path
        policy = self._policies.get(content_type)
        if policy is None:
            base = _base_type(content_type)
            policy = self._policies.get(base)
            if policy is None:
                policy = self._policies[base] = encoding_for_content_type(base)
        return policy
