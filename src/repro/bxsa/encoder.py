"""bXDM → BXSA tree encoder: the tree walk over a buffered frame emitter.

All of the format lives in :mod:`repro.bxsa.emitter`; encoding a tree is
:func:`~repro.bxsa.emitter.walk_tree` driving a
:class:`~repro.bxsa.emitter.FrameEmitter` that exists for that one call.
"""

from __future__ import annotations

from repro.bxsa.emitter import FrameEmitter, walk_tree
from repro.bxsa.errors import BXSAEncodeError
from repro.xbs.constants import NATIVE_ENDIAN
from repro.xdm.nodes import DocumentNode, Node


def encode(node: Node, byte_order: int = NATIVE_ENDIAN) -> bytes:
    """Encode a bXDM node (document or element) as a BXSA byte string."""
    return BXSAEncoder(byte_order).encode(node)


def encode_document(node: DocumentNode, byte_order: int = NATIVE_ENDIAN) -> bytes:
    """Encode a document; provided for symmetry with :func:`decode_document`."""
    if not isinstance(node, DocumentNode):
        raise BXSAEncodeError(f"expected DocumentNode, got {type(node).__name__}")
    return BXSAEncoder(byte_order).encode(node)


class BXSAEncoder:
    """Encoder instance; reusable and re-entrant (no per-document state)."""

    def __init__(self, byte_order: int = NATIVE_ENDIAN) -> None:
        if byte_order not in (0, 1):
            raise BXSAEncodeError(f"invalid byte order {byte_order!r}")
        self.byte_order = byte_order

    def encode(self, node: Node) -> bytes:
        """Encode ``node`` in O(document size); see :class:`FrameEmitter`."""
        emitter = FrameEmitter(self.byte_order)
        walk_tree(node, emitter)
        return emitter.getvalue()

    def encode_chunks(self, node: Node) -> list:
        """:meth:`encode` before its join: the frames as the emitter
        buffered them, array payloads as views of the tree's arrays."""
        emitter = FrameEmitter(self.byte_order)
        walk_tree(node, emitter)
        return emitter.chunks
