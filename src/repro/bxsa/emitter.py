"""The one BXSA frame emitter: the encode-side grammar, written once.

The mirror of :mod:`repro.bxsa.walker`.  What bytes a production becomes is
decided here only — prefix + Size, the element header, both container
profiles, the namespace scope stack and its auto-declaration rule, the array
frame head — and every encode entry point is a handler of the productions::

    start_document()                              end_document()
    start_element(name, namespaces, attributes)   end_element()
    leaf(name, namespaces, attributes, code, value)
    array(name, namespaces, attributes, code, item_name, values)
    text(content)    comment(content)    pi(target, data)

(``name`` a QName, ``namespaces`` / ``attributes`` the element's
NamespaceNode / AttributeNode lists, ``code`` a TypeCode.)  :func:`walk_tree`
drives a handler from a bXDM tree by calling it with the nodes' fields — no
materialised events.  :class:`FrameEmitter` turns productions into bytes: the
tree encoder is the walk over a buffered one, the stream writer calls one
from its public methods.  The encode-plan recorder in
:mod:`repro.bxsa.session` turns them into plan instructions.  Plan *replay*
is deliberately not a handler: it is the separately written assembler that
compile-time self-verification compares against.

Numeric payloads never pass through per-element Python loops: a leaf is one
``struct.pack``, an array one bulk view (byteswapped in bulk if need be).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bxsa.constants import FrameType, pack_prefix_byte
from repro.bxsa.errors import BXSAEncodeError
from repro.bxsa.namespaces import ScopeStack
from repro.xbs.constants import TypeCode, dtype_for
from repro.xbs.structcache import struct_for
from repro.xbs.varint import encode_vls
from repro.xdm.nodes import (
    ArrayElement,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    PINode,
    TextNode,
)

#: The Common Frame Prefix's first byte per byte order, per frame type.
_PREFIXES = tuple([
    {frame_type: bytes((pack_prefix_byte(order, frame_type),)) for frame_type in FrameType}
    for order in (0, 1)
])


def string_bytes(text: str) -> bytes:
    """A wire string: VLS byte length + UTF-8."""
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BXSAEncodeError(f"string is not encodable as UTF-8: {exc}") from exc
    return encode_vls(len(raw)) + raw


def typed_value(byte_order: int, code: TypeCode, value) -> bytes:
    """Type code byte + the value as that type (a leaf's or attribute's)."""
    out = bytes((int(code),))
    if code is TypeCode.STRING:
        return out + string_bytes(value)
    if code is TypeCode.BOOL:
        return out + (b"\x01" if value else b"\x00")
    try:
        return out + struct_for(byte_order, code).pack(value)
    except (struct.error, OverflowError) as exc:
        raise BXSAEncodeError(f"{value!r} does not fit wire type {code.name}: {exc}") from exc


def array_frame_head(header: bytes, code: TypeCode, item_name: str | None, count: int) -> bytes:
    """An array frame's body up to its payload: element header, item type
    code, item-name hint, item count, pad length and pad.

    The pad aligns the payload to the item size relative to the body start
    so a consumer mapping the body can take an aligned view (the paper's
    memory-mapped I/O property); the pad length travels explicitly.
    """
    head = header + bytes((int(code),)) + string_bytes(item_name or "") + encode_vls(count)
    pad = (-(len(head) + 1)) % code.size  # +1 = pad-length byte
    return head + bytes((pad,)) + b"\x00" * pad


# ---------------------------------------------------------------------------
# element header


def _pick_prefix(hint: str, scopes: ScopeStack) -> str:
    """A free prefix, as a pure function of (hint, prefixes in scope): with
    no document-global counter a header's bytes depend on its scope chain
    only, which is what lets an encode plan pre-render them per shape."""
    taken = scopes.all_prefixes()
    if hint and hint not in taken:
        return hint
    base = hint or "ns"
    n = 2 if hint else 1
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"


def _name_ref(name, scopes: ScopeStack) -> bytes:
    """A QName's tokenized namespace reference, auto-declaring when needed:
    scope depth, then (for depth > 0) the index in that frame's table."""
    if not name.uri:
        return b"\x00"  # depth 0 = no namespace
    found = scopes.find(name.uri)
    if found is None:
        # auto-declare in the innermost table (mirrors the XML serializer)
        found = 1, scopes.declare(_pick_prefix(name.prefix, scopes), name.uri)
    return encode_vls(found[0]) + encode_vls(found[1])


def element_header(scopes: ScopeStack, name, namespaces, attributes, container: bool = False):
    """The one element-header serializer; leaves ``scopes`` as the frames
    that follow must see it.

    Attribute *values* (type code byte included) stay ``(attribute index,
    type code)`` holes: the result is ``[bytes, hole, bytes, hole, ...]``, or
    plain ``bytes`` without attributes.  A byte emitter fills the holes at
    once; a plan keeps them per shape.

    The element's own table is pushed while its name and attributes resolve
    (auto-declarations extend it).  A container's table stays pushed for its
    children — the caller pops it at the end frame — but cut back to the
    explicit declarations: auto-declarations stay invisible to descendants,
    which re-declare such URIs themselves.  That is wire format
    (``tests/golden/bxsa`` pins it), not an accident to tidy away.
    """
    table: list[tuple[str, str]] = []
    declared: set[str] = set()
    for ns in namespaces:
        if ns.prefix in declared:
            raise BXSAEncodeError(f"element {name.clark()} declares prefix {ns.prefix!r} twice")
        declared.add(ns.prefix)
        table.append((ns.prefix, ns.uri))
    explicit = len(table)
    scopes.push(table)
    # resolve every reference before serializing the table they may extend
    name_ref = _name_ref(name, scopes)
    attr_refs: list[bytes] = []
    seen: set = set()
    for attr in attributes:
        if attr.name in seen:
            raise BXSAEncodeError(
                f"element {name.clark()} has duplicate attribute {attr.name.clark()}"
            )
        seen.add(attr.name)
        attr_refs.append(_name_ref(attr.name, scopes))
    const = [encode_vls(len(table))]
    for prefix, uri in table:
        const.append(string_bytes(prefix))
        const.append(string_bytes(uri))
    const.append(name_ref)
    const.append(string_bytes(name.local))
    const.append(encode_vls(len(attr_refs)))
    scopes.pop()
    if container:
        scopes.push(table[:explicit])
    if not attr_refs:
        return b"".join(const)
    segments: list = []
    for index, attr in enumerate(attributes):
        const.append(attr_refs[index])
        const.append(string_bytes(attr.name.local))
        segments.append(b"".join(const))
        const = []
        segments.append((index, attr.atype.code))
    return segments


# ---------------------------------------------------------------------------
# handlers


class FrameHandler:
    """What every handler keeps: byte order and its frame prefixes, the
    scope stack, the open containers with their child counts.  Subclasses
    get header segments here, on this scope stack — not from a serializer
    of their own."""

    def __init__(self, byte_order: int) -> None:
        if byte_order not in (0, 1):
            raise BXSAEncodeError(f"invalid byte order {byte_order!r}")
        self.byte_order = byte_order
        self._prefixes = _PREFIXES[byte_order]
        self._scopes = ScopeStack()
        # one list per open container: [child count, *the subclass's fields]
        self._open: list[list] = []

    def _child(self) -> None:
        """Every production but the end frames is one more child."""
        if self._open:
            self._open[-1][0] += 1

    def _header_segments(self, name, namespaces, attributes, container: bool = False):
        return element_header(self._scopes, name, namespaces, attributes, container)

    def end_element(self) -> None:
        self._scopes.pop()
        self._exit()

    def end_document(self) -> None:
        self._exit()


class FrameEmitter(FrameHandler):
    """Turn productions into frames, one top-level frame per instance.

    Without ``out``, frames accumulate in one flat chunk list in document
    order and :meth:`getvalue` joins them once.  A container's prefix, Size
    and header depend on its children's total size, so it reserves a
    placeholder chunk on entry and back-patches it on exit from a running
    byte counter — O(n), no per-level flattening, and array payloads stay
    zero-copy views until the final join.

    With ``out`` (a callable taking a bytes-like chunk) each chunk is handed
    over once complete and nothing is retained.  Flushed bytes cannot be
    back-patched, so containers go out in the streamed profile (``STREAM_*``,
    see :mod:`repro.bxsa.constants`); atom frames are the same in both.

    A production that raises leaves the state undefined: the owner discards
    the emitter (tree encode) or refuses further use (stream writer).
    """

    def __init__(self, byte_order: int, out=None) -> None:
        super().__init__(byte_order)
        #: Bytes emitted so far (a placeholder counts once it is patched).
        self.nbytes = 0
        self._out = out
        self._chunks: list = []

    @property
    def depth(self) -> int:
        """Open container frames (the document counts as one)."""
        return len(self._open)

    @property
    def chunks(self) -> list:
        """The buffered frames, unjoined, in document order."""
        return self._chunks

    def getvalue(self) -> bytes:
        """The buffered frames, joined."""
        return b"".join(self._chunks)

    def emit(self, chunk) -> None:
        """Append raw bytes: the payload a caller owes :meth:`array_head`."""
        self.nbytes += len(chunk)
        if self._out is None:
            self._chunks.append(chunk)
        else:
            self._out(chunk)

    def _frame(self, frame_type: FrameType, body: bytes) -> None:
        self.emit(self._prefixes[frame_type] + encode_vls(len(body)) + body)

    def _header(self, name, namespaces, attributes, container: bool = False) -> bytes:
        header = element_header(self._scopes, name, namespaces, attributes, container)
        if attributes:
            order = self.byte_order
            header = b"".join(
                seg if type(seg) is bytes else typed_value(order, seg[1], attributes[seg[0]].value)
                for seg in header
            )
        return header

    def _enter(self, frame_type: FrameType, streamed_type: FrameType, header: bytes) -> None:
        self._child()
        if self._out is None:
            # [count, placeholder index, byte mark at entry, frame type, header]
            self._open.append([0, len(self._chunks), self.nbytes, frame_type, header])
            self._chunks.append(b"")  # placeholder, patched by _exit
        else:
            self._open.append([0])
            self._frame(streamed_type, header)

    def _exit(self) -> None:
        entry = self._open.pop()
        count_vls = encode_vls(entry[0])
        if self._out is not None:
            self._frame(FrameType.STREAM_END, count_vls)
            return
        _count, placeholder, mark, frame_type, header = entry
        tail = header + count_vls
        patch = self._prefixes[frame_type] + encode_vls(len(tail) + self.nbytes - mark) + tail
        self._chunks[placeholder] = patch
        self.nbytes += len(patch)

    # -- productions ----------------------------------------------------

    def start_document(self) -> None:
        self._enter(FrameType.DOCUMENT, FrameType.STREAM_DOCUMENT, b"")

    def start_element(self, name, namespaces, attributes) -> None:
        header = self._header(name, namespaces, attributes, container=True)
        self._enter(FrameType.COMPONENT_ELEMENT, FrameType.STREAM_ELEMENT, header)

    def leaf(self, name, namespaces, attributes, code, value) -> None:
        self._child()
        header = self._header(name, namespaces, attributes)
        self._frame(FrameType.LEAF_ELEMENT, header + typed_value(self.byte_order, code, value))

    def array_head(self, name, namespaces, attributes, code, item_name, count: int) -> None:
        """An array frame up to its payload, Size included: the caller owes
        exactly ``count`` items of payload bytes through :meth:`emit`."""
        self._child()
        head = array_frame_head(self._header(name, namespaces, attributes), code, item_name, count)
        size = encode_vls(len(head) + count * code.size)
        self.emit(self._prefixes[FrameType.ARRAY_ELEMENT] + size + head)

    def array(self, name, namespaces, attributes, code, item_name, values) -> None:
        # zero-copy when the values already have the target byte order;
        # otherwise ascontiguousarray performs the one unavoidable byteswap
        normalized = np.ascontiguousarray(values, dtype=dtype_for(code, self.byte_order))
        self.array_head(name, namespaces, attributes, code, item_name, normalized.size)
        if normalized.size:
            self.emit(memoryview(normalized).cast("B"))

    def text(self, content: str) -> None:
        self._child()
        self._frame(FrameType.CHARACTER_DATA, string_bytes(content))

    def comment(self, content: str) -> None:
        self._child()
        self._frame(FrameType.COMMENT, string_bytes(content))

    def pi(self, target: str, data: str) -> None:
        self._child()
        self._frame(FrameType.PI, string_bytes(target) + string_bytes(data))


# ---------------------------------------------------------------------------
# the tree walk


_END_ELEMENT, _END_DOCUMENT = object(), object()


def walk_tree(root, handler) -> None:
    """Drive ``handler`` from a bXDM tree — the one loop that dispatches on
    node type to emit frames.  ``root`` is a document or any node that makes
    a frame of its own.  Pre-order over an explicit stack, so arbitrarily
    deep documents encode without recursion limits."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafElement):
            handler.leaf(node.name, node.namespaces, node.attributes, node.atype.code, node.value)
        elif isinstance(node, ArrayElement):
            handler.array(
                node.name, node.namespaces, node.attributes,
                node.atype.code, node.item_name, node.values,
            )  # fmt: skip
        elif isinstance(node, ElementNode):
            handler.start_element(node.name, node.namespaces, node.attributes)
            stack.append(_END_ELEMENT)
            stack.extend(reversed(node.children))
        elif node is _END_ELEMENT:
            handler.end_element()
        elif isinstance(node, TextNode):
            handler.text(node.text)
        elif isinstance(node, CommentNode):
            handler.comment(node.text)
        elif isinstance(node, PINode):
            handler.pi(node.target, node.data)
        elif isinstance(node, DocumentNode):
            handler.start_document()
            stack.append(_END_DOCUMENT)
            stack.extend(reversed(node.children))
        elif node is _END_DOCUMENT:
            handler.end_document()
        else:
            raise BXSAEncodeError(f"cannot encode node {type(node).__name__}")
