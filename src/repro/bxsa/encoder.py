"""bXDM → BXSA encoder.

Structured as a post-order assembly over the tree (children's frames are
byte-complete before the parent's ``Size`` field is written — the Size of a
container covers its embedded child frames).  The traversal uses an explicit
stack, so arbitrarily deep documents encode without recursion limits.

Numeric payloads never pass through Python-level per-element loops: a leaf
is one ``struct.pack`` and an array is one bulk ``ndarray.tobytes`` (with a
bulk byteswap when the target byte order differs from the host) — this is
the encoding-efficiency half of the paper's thesis.
"""

from __future__ import annotations

import numpy as np

from repro.bxsa.constants import FrameType, pack_prefix_byte
from repro.bxsa.errors import BXSAEncodeError
from repro.bxsa.namespaces import ScopeStack, declarations_of
from repro.xbs.constants import _ENDIAN_CHAR, NATIVE_ENDIAN, TypeCode, dtype_for
from repro.xbs.structcache import struct_for
from repro.xbs.varint import encode_vls
from repro.xdm.nodes import (
    ArrayElement,
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    Node,
    PINode,
    TextNode,
)
from repro.xdm.qname import QName


def encode(node: Node, byte_order: int = NATIVE_ENDIAN) -> bytes:
    """Encode a bXDM node (document or element) as a BXSA byte string."""
    return BXSAEncoder(byte_order).encode(node)


def encode_document(node: DocumentNode, byte_order: int = NATIVE_ENDIAN) -> bytes:
    """Encode a document; provided for symmetry with :func:`decode_document`."""
    if not isinstance(node, DocumentNode):
        raise BXSAEncodeError(f"expected DocumentNode, got {type(node).__name__}")
    return BXSAEncoder(byte_order).encode(node)


def array_frame_head(header: bytes, code: TypeCode, item_name: str | None, count: int) -> bytes:
    """An array frame's body up to its payload: element header, item type
    code, item-name hint, item count, pad length and pad.

    The pad aligns the payload to the item size relative to the body start
    so a consumer mapping the body can take an aligned view (the paper's
    memory-mapped I/O property); the pad length travels explicitly.
    """
    hint = (item_name or "").encode("utf-8")
    head = header + bytes((int(code),)) + encode_vls(len(hint)) + hint + encode_vls(count)
    pad = (-(len(head) + 1)) % code.size  # +1 = pad-length byte
    return head + bytes((pad,)) + b"\x00" * pad


_ENTER, _EXIT = 0, 1


class BXSAEncoder:
    """Encoder instance; reusable, one document per :meth:`encode` call."""

    def __init__(self, byte_order: int = NATIVE_ENDIAN) -> None:
        if byte_order not in (0, 1):
            raise BXSAEncodeError(f"invalid byte order {byte_order!r}")
        self.byte_order = byte_order
        self._endian_char = _ENDIAN_CHAR[byte_order]
        self._chunks: list | None = None
        self._nbytes = 0

    # ------------------------------------------------------------------

    def encode(self, node: Node) -> bytes:
        """Encode ``node`` in O(document size).

        Frames are emitted into one flat chunk list in document order.  A
        container frame's prefix/Size/header cannot be written until its
        children's total size is known, so each container reserves a
        placeholder slot on entry and back-patches it on exit using a
        running byte counter — no per-level flattening, no repeated list
        copying, and array payloads stay zero-copy views until the single
        final join.
        """
        scopes = ScopeStack()
        chunks: list = []
        self._chunks = chunks
        self._nbytes = 0  # total bytes across filled chunks

        # (node, placeholder index, byte counter at entry)
        open_containers: list[tuple[Node, int, int]] = []
        stack: list[tuple[int, Node]] = [(_ENTER, node)]
        while stack:
            action, current = stack.pop()
            if action == _EXIT:
                owner, placeholder, mark = open_containers.pop()
                children_len = self._nbytes - mark
                count_vls = encode_vls(len(owner.children))
                if isinstance(owner, DocumentNode):
                    frame_type = FrameType.DOCUMENT
                    header = b""
                else:
                    frame_type = FrameType.COMPONENT_ELEMENT
                    header = self._element_header(owner, scopes)  # type: ignore[arg-type]
                    scopes.pop()
                body_len = len(header) + len(count_vls) + children_len
                prefix = bytes((pack_prefix_byte(self.byte_order, frame_type),))
                patch = prefix + encode_vls(body_len) + header + count_vls
                chunks[placeholder] = patch
                self._nbytes += len(patch)
                continue
            if isinstance(current, LeafElement):
                self._leaf_frame(current, scopes)
            elif isinstance(current, ArrayElement):
                self._array_frame(current, scopes)
            elif isinstance(current, (DocumentNode, ElementNode)):
                if isinstance(current, ElementNode):
                    scopes.push(self._own_table(current))
                open_containers.append((current, len(chunks), self._nbytes))
                chunks.append(b"")  # placeholder, patched at EXIT
                stack.append((_EXIT, current))
                for child in reversed(current.children):
                    stack.append((_ENTER, child))
            elif isinstance(current, TextNode):
                self._string_frame(FrameType.CHARACTER_DATA, current.text)
            elif isinstance(current, CommentNode):
                self._string_frame(FrameType.COMMENT, current.text)
            elif isinstance(current, PINode):
                self._emit_frame(
                    FrameType.PI,
                    [self._string(current.target) + self._string(current.data)],
                )
            else:
                raise BXSAEncodeError(f"cannot encode node {type(current).__name__}")
        out = b"".join(chunks)
        self._chunks = None  # release references to payload views
        return out

    # ------------------------------------------------------------------
    # frame assembly

    def _emit(self, chunk) -> None:
        self._chunks.append(chunk)
        self._nbytes += len(chunk)

    def _emit_frame(self, frame_type: FrameType, body_chunks: list) -> None:
        """Emit prefix + Size followed by the body chunks (no copying)."""
        size = sum(len(chunk) for chunk in body_chunks)
        prefix = bytes((pack_prefix_byte(self.byte_order, frame_type),))
        self._emit(prefix + encode_vls(size))
        for chunk in body_chunks:
            self._emit(chunk)

    def _string(self, text: str) -> bytes:
        raw = text.encode("utf-8")
        return encode_vls(len(raw)) + raw

    def _string_frame(self, frame_type: FrameType, text: str) -> None:
        self._emit_frame(frame_type, [self._string(text)])

    # ------------------------------------------------------------------
    # element header

    def _own_table(self, node: ElementNode) -> list[tuple[str, str]]:
        """The element's explicit declarations, validated, as a mutable table."""
        table = declarations_of(node)
        seen: set[str] = set()
        for prefix, _uri in table:
            if prefix in seen:
                raise BXSAEncodeError(
                    f"element {node.name.clark()} declares prefix {prefix!r} twice"
                )
            seen.add(prefix)
        return table

    def _name_ref(self, name: QName, scopes: ScopeStack) -> tuple[int, int]:
        """(scope depth, index) for a QName, auto-declaring when needed.

        Depth 0 means "no namespace"; the index is then meaningless.
        """
        if not name.uri:
            return 0, -1
        found = scopes.find(name.uri)
        if found is not None:
            return found
        # Auto-declare in the innermost table (mirrors the XML serializer).
        prefix = self._pick_prefix(name.prefix, scopes)
        return 1, scopes.declare(prefix, name.uri)

    def _pick_prefix(self, hint: str, scopes: ScopeStack) -> str:
        """Choose a free prefix as a pure function of (hint, taken set).

        No document-global counter: the streaming writer serializes headers
        pre-order while the tree encoder back-patches them post-order, and a
        counter threaded through both orders would hand out different names.
        Determinism in the local scope state keeps the two byte-identical.
        """
        taken = scopes.all_prefixes()
        if hint and hint not in taken:
            return hint
        base = hint or "ns"
        n = 2 if hint else 1
        while f"{base}{n}" in taken:
            n += 1
        return f"{base}{n}"

    def _element_header(self, node: ElementNode, scopes: ScopeStack) -> bytes:
        """Serialize the header *after* children were encoded.

        The element's table (top of ``scopes``) may have been extended with
        auto-declarations by :meth:`_name_ref` calls for the element's own
        name and attributes — but NOT by children (children auto-declare in
        their own frames), so resolving name/attrs here, before writing N1,
        is safe and keeps the table complete.
        """
        parts: list[bytes] = []
        name_depth, name_index = self._name_ref(node.name, scopes)
        attr_refs: list[tuple[int, int, AttributeNode]] = []
        seen_attrs: set = set()
        for attr in node.attributes:
            if attr.name in seen_attrs:
                raise BXSAEncodeError(
                    f"element {node.name.clark()} has duplicate attribute "
                    f"{attr.name.clark()}"
                )
            seen_attrs.add(attr.name)
            depth, index = self._name_ref(attr.name, scopes)
            attr_refs.append((depth, index, attr))

        table = scopes.current()
        parts.append(encode_vls(len(table)))
        for prefix, uri in table:
            parts.append(self._string(prefix))
            parts.append(self._string(uri))
        parts.append(self._ref_bytes(name_depth, name_index))
        parts.append(self._string(node.name.local))
        parts.append(encode_vls(len(attr_refs)))
        for depth, index, attr in attr_refs:
            parts.append(self._ref_bytes(depth, index))
            parts.append(self._string(attr.name.local))
            parts.append(self._typed_value(attr.atype.code, attr.value))
        return b"".join(parts)

    def _ref_bytes(self, depth: int, index: int) -> bytes:
        if depth == 0:
            return encode_vls(0)
        return encode_vls(depth) + encode_vls(index)

    # ------------------------------------------------------------------
    # typed payloads

    def _typed_value(self, code: TypeCode, value) -> bytes:
        out = bytes((int(code),))
        if code is TypeCode.STRING:
            return out + self._string(value)
        if code is TypeCode.BOOL:
            return out + (b"\x01" if value else b"\x00")
        return out + struct_for(self.byte_order, code).pack(value)

    def _leaf_frame(self, node: LeafElement, scopes: ScopeStack) -> None:
        scopes.push(self._own_table(node))
        try:
            header = self._element_header(node, scopes)
        finally:
            scopes.pop()
        self._emit_frame(
            FrameType.LEAF_ELEMENT,
            [header + self._typed_value(node.atype.code, node.value)],
        )

    def _array_frame(self, node: ArrayElement, scopes: ScopeStack) -> None:
        scopes.push(self._own_table(node))
        try:
            header = self._element_header(node, scopes)
        finally:
            scopes.pop()
        code = node.atype.code
        head = array_frame_head(header, code, node.item_name, int(node.values.size))
        target = dtype_for(code, self.byte_order)
        # zero-copy when the values already have the target byte order;
        # otherwise ascontiguousarray performs the one unavoidable byteswap
        normalized = np.ascontiguousarray(node.values, dtype=target)
        payload = memoryview(normalized).cast("B") if normalized.size else b""
        self._emit_frame(FrameType.ARRAY_ELEMENT, [head, payload])
