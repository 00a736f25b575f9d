"""Compiled BXSA decode plans: replay the byte stream of a known shape.

The stateless :class:`~repro.bxsa.decoder.BXSADecoder` re-runs the whole
parse machinery for every message: per-frame type dispatch, scope pushes and
pops, VLS name references resolved against the scope stack, UTF-8 decoding
of the same header strings, QName construction, attribute list assembly.
In the repeated-message regime the paper's Figures 4-6 measure, all of that
work is identical from one message to the next — only the *values* change.

A decode plan is the receive-side mirror of the session's encode plans
(:mod:`repro.bxsa.session`).  After the first stateless decode of a shape,
:func:`compile_decode_plan` re-walks the same bytes — as one more handler
over :class:`~repro.bxsa.walker.FrameWalker`, partitioning the stream by the
value spans the walker reports — and records a flat instruction list in
which every value-independent byte run (frame prefixes, namespace tables,
name references, local names, attribute names and type codes, child counts,
array item-name hints, PI targets) is captured as a constant, and only the
value-dependent holes (frame sizes, attribute and leaf values, text runs,
array counts/pads/payloads) remain live.  Names and
QNames are resolved **once, at compile time**, through the session's intern
tables; replay never touches a scope stack or decodes a header string.

**Replay is self-checking by construction.**  Every constant run is compared
(``memcmp``) against the incoming bytes and every frame ``Size`` field is
validated against the actually-consumed span, exactly as the stateless
decoder validates it; any mismatch makes :func:`replay_decode_plan` return
``None`` and the caller falls back to the stateless path, which either
succeeds (and recompiles) or raises the proper error.  On top of that the
session byte/structure-checks the first reuse of every plan against a full
stateless decode and poisons the fingerprint if they diverge — see
``CodecSession.decode``.

Array payloads keep the documented ``copy=False`` aliasing contract: replay
hands out the same zero-copy ``np.frombuffer`` views over the input buffer
that the stateless decoder produces (``copy=True`` materializes independent
native-order arrays), so a warm session is a pure execution strategy on the
receive side too.
"""

from __future__ import annotations

import numpy as np

from repro.bxsa.constants import FrameType, unpack_prefix_byte
from repro.bxsa.errors import BXSADecodeError
from repro.bxsa.frames import read_vls, skip_header_names
from repro.bxsa.walker import FrameWalker
from repro.xbs.constants import TypeCode
from repro.xbs.errors import XBSDecodeError
from repro.xbs.structcache import struct_for
from repro.xbs.varint import decode_vls
from repro.xdm.nodes import (
    ArrayElement,
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    NamespaceNode,
    PINode,
    TextNode,
)

# Plan instruction tags.  Each op is a tuple whose first element is one of
# these; the replay loop dispatches on it with a flat if/elif chain.
_D_CONST = 0  # (tag, expected)   structural bytes, memcmp'd against the stream
_D_SIZE = 1  # (tag,)             read a frame Size field, push the frame end
_D_DOC = 2  # (tag,)              open a DocumentNode container
_D_ELEM = 3  # (tag, qname, ns_pairs, attr_meta)  open a component element
_D_END = 4  # (tag,)              close a container: size check + attach
_D_LEAF = 5  # (tag, qname, ns_pairs, attr_meta, atype, size, struct, is_bool)
_D_ARRAY = 6  # (tag, qname, ns_pairs, attr_meta, atype, item_name, dtype, item_size)
_D_TEXT = 7  # (tag,)             CHARACTER_DATA frame
_D_COMMENT = 8  # (tag,)
_D_PI = 9  # (tag, target)
_D_ATTRVAL = 10  # (tag, size, struct, is_bool)  one attribute's value bytes

#: Frame types that start with an element header (whose name part is the
#: structural fingerprint material).
_HEADER_FRAMES = frozenset(
    (FrameType.COMPONENT_ELEMENT, FrameType.LEAF_ELEMENT, FrameType.ARRAY_ELEMENT)
)


class DecodePlan:
    """A compiled per-shape instruction list (internal to the session)."""

    __slots__ = ("ops", "verified")

    def __init__(self, ops: list[tuple]) -> None:
        self.ops = ops
        #: Set by the session once a replay has been byte/structure-checked
        #: against the stateless decoder (first reuse).
        self.verified = False


def decode_fingerprint(data, offset: int = 0) -> tuple:
    """A cheap, value-independent structural key for the frame at ``offset``.

    Captures the frame prefix byte plus the *name* part of the root
    element's header (namespace table, QName reference, local name — see
    :func:`repro.bxsa.frames.skip_header_names`); for document frames, the
    child count and the first child's name bytes.  Those bytes are
    identical across same-shape messages and differ for most distinct
    shapes, so the key is a good cache index — it does **not** need to be
    collision-free, because replay memcmps every structural byte anyway and
    bails to the stateless path on any mismatch.

    Raises :class:`BXSADecodeError` on a malformed frame head; the caller
    routes such buffers straight to the stateless decoder for the real
    error message.
    """
    if offset >= len(data):
        raise BXSADecodeError(f"truncated frame prefix at offset {offset}")
    lead = data[offset]
    _, frame_type = unpack_prefix_byte(lead)
    size, pos = read_vls(data, offset + 1)
    if pos + size > len(data):
        raise BXSADecodeError(
            f"frame at offset {offset} claims {size} body bytes but only "
            f"{len(data) - pos} remain"
        )
    if frame_type in _HEADER_FRAMES:
        return (lead, bytes(data[pos : skip_header_names(data, pos)]))
    if frame_type is FrameType.DOCUMENT:
        count, pos = read_vls(data, pos)
        if count == 0 or pos >= len(data):
            return (lead, count)
        child_lead = data[pos]
        _, child_type = unpack_prefix_byte(child_lead)
        _, cpos = read_vls(data, pos + 1)
        if child_type in _HEADER_FRAMES:
            return (lead, count, child_lead, bytes(data[cpos : skip_header_names(data, cpos)]))
        return (lead, count, child_lead)
    return (lead,)


# ---------------------------------------------------------------------------
# compilation


def _scalar_slot(byte_order: int, code: TypeCode) -> tuple:
    """``(size, struct, is_bool)`` for a scalar value hole; STRING values
    are VLS-length-prefixed, which replay spells ``(0, None, False)``."""
    if code is TypeCode.STRING:
        return 0, None, False
    return code.size, struct_for(byte_order, code), code is TypeCode.BOOL


class _Compiler:
    """Walker handler that records a plan for an already-validated frame.

    The walker parses; this handler only partitions the byte stream by the
    value spans the walker reports (``walker.holes``): each hole becomes the
    op that reads it at replay time, everything between two holes becomes a
    constant (structural) run.  The caller decodes the buffer statelessly
    *first*, so compilation only ever sees well-formed input; any surprise
    raises — the session poisons the fingerprint in response.
    """

    def __init__(self, data, offset: int, qname_cache: dict | None) -> None:
        self.data = data
        self.ops: list[tuple] = []
        self._const_start = offset
        self._walker = FrameWalker(self, qname_cache=qname_cache, record_spans=True)

    def compile(self) -> DecodePlan:
        try:
            self._walker.walk(self.data, self._const_start)
        finally:
            # the walker holds this handler and this handler the message
            # buffer: left as a cycle, the whole body lingers until a full
            # collection long after the exchange that compiled the plan
            self._walker = None
        return DecodePlan(self.ops)

    # -- byte partitioning ------------------------------------------------

    def _const_until(self, pos: int) -> None:
        """Emit the structural bytes up to ``pos`` as one constant run."""
        if pos > self._const_start:
            self.ops.append((_D_CONST, bytes(self.data[self._const_start : pos])))
            self._const_start = pos

    def _hole(self, span: tuple[int, int], op: tuple) -> None:
        """``op`` reads the value bytes ``span`` at replay time."""
        self._const_until(span[0])
        self.ops.append(op)
        self._const_start = span[1]

    def _head(self, attrs=()) -> tuple:
        """The frame's Size field and attribute values; returns ``attr_meta``."""
        holes = self._walker.holes
        self._hole(holes[0], (_D_SIZE,))
        order = self._walker.byte_order
        for attr, span in zip(attrs, holes[1:]):
            self._hole(span, (_D_ATTRVAL, *_scalar_slot(order, attr.atype.code)))
        return tuple([(attr.name, attr.atype) for attr in attrs])

    # -- productions ------------------------------------------------------

    def start_document(self) -> None:
        self._head()
        self.ops.append((_D_DOC,))  # the child count rides the constant run

    def start_element(self, name, attrs, table) -> None:
        self.ops.append((_D_ELEM, name, tuple(table), self._head(attrs)))

    def end_element(self, name=None) -> None:
        self._const_until(self._walker.offset)  # e.g. an empty element's child count
        self.ops.append((_D_END,))

    end_document = end_element

    def leaf(self, name, attrs, table, value, atype) -> None:
        attr_meta = self._head(attrs)
        slot = _scalar_slot(self._walker.byte_order, atype.code)
        self._hole(
            self._walker.holes[-1], (_D_LEAF, name, tuple(table), attr_meta, atype, *slot)
        )

    def array(self, name, attrs, table, values, atype, item_name) -> None:
        attr_meta = self._head(attrs)
        # count, pad and payload are per-message; the op reads them
        self._hole(
            self._walker.holes[-1],
            (_D_ARRAY, name, tuple(table), attr_meta, atype, item_name,
             values.dtype, values.dtype.itemsize),
        )

    def text(self, content) -> None:
        self._head()
        self._hole(self._walker.holes[-1], (_D_TEXT,))

    def comment(self, content) -> None:
        self._head()
        self._hole(self._walker.holes[-1], (_D_COMMENT,))

    def pi(self, target, data) -> None:
        self._head()
        self._hole(self._walker.holes[-1], (_D_PI, target))  # the target is structural


def compile_decode_plan(data, offset: int = 0, *, qname_cache: dict | None = None) -> DecodePlan:
    """Compile a plan for the (already stateless-decoded) frame at ``offset``.

    ``qname_cache`` is the session's intern table: the QNames baked into the
    plan are the very objects the stateless warm path interned, so plan
    replay preserves cross-message name identity.
    """
    return _Compiler(data, offset, qname_cache).compile()


# ---------------------------------------------------------------------------
# replay


def _string_value(data, pos: int, n: int):
    """Read a VLS-length-prefixed UTF-8 value; ``(None, 0)`` on any
    malformed input (the caller bails to the stateless path, which raises
    the proper error)."""
    try:
        length, pos = decode_vls(data, pos)
    except XBSDecodeError:
        return None, 0
    end = pos + length
    if end > n:
        return None, 0
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError:
        return None, 0


def _make_attrs(attr_meta: tuple, values: list) -> list:
    attrs = []
    for (qname, atype), value in zip(attr_meta, values):
        attr = AttributeNode.__new__(AttributeNode)
        attr.name = qname
        attr.value = value
        attr.atype = atype
        attrs.append(attr)
    values.clear()
    return attrs


def _make_ns(ns_pairs: tuple) -> list:
    if not ns_pairs:
        return []
    # NamespaceNode is mutable — each replayed tree gets fresh instances
    return [NamespaceNode(prefix, uri) for prefix, uri in ns_pairs]


def replay_decode_plan(plan: DecodePlan, data, pos: int, copy: bool):
    """Run ``plan`` against ``data`` starting at ``pos``.

    Returns ``(root_node, end_pos)`` on success, or ``None`` whenever the
    stream does not byte-match the plan's structure or a size field fails
    validation — the caller falls back to the stateless decoder, which
    either decodes the (differently-shaped) message correctly or raises the
    decoder's own error for malformed input.  Node-validity errors that the
    stateless path would raise (e.g. ``--`` inside a comment) propagate as
    exceptions and are treated as bails by the session.
    """
    n = len(data)
    ends: list[int] = []
    stack: list = []  # open container nodes, innermost last
    attr_values: list = []
    root = None
    for op in plan.ops:
        tag = op[0]
        if tag == _D_CONST:
            expected = op[1]
            new_pos = pos + len(expected)
            if data[pos:new_pos] != expected:
                return None
            pos = new_pos
        elif tag == _D_SIZE:
            try:
                size, pos = decode_vls(data, pos)
            except XBSDecodeError:
                return None
            end = pos + size
            if end > n:
                return None
            ends.append(end)
        elif tag == _D_ATTRVAL:
            _, vsize, packer, is_bool = op
            if packer is not None:
                if pos + vsize > n:
                    return None
                value = packer.unpack_from(data, pos)[0]
                pos += vsize
                if is_bool:
                    value = bool(value)
            else:
                value, pos = _string_value(data, pos, n)
                if value is None:
                    return None
            attr_values.append(value)
        elif tag == _D_LEAF:
            _, qname, ns_pairs, attr_meta, atype, vsize, packer, is_bool = op
            if packer is not None:
                if pos + vsize > n:
                    return None
                value = packer.unpack_from(data, pos)[0]
                pos += vsize
                if is_bool:
                    value = bool(value)
            else:
                value, pos = _string_value(data, pos, n)
                if value is None:
                    return None
            if pos != ends.pop():
                return None
            node = LeafElement.__new__(LeafElement)
            node.name = qname
            node.attributes = _make_attrs(attr_meta, attr_values)
            node.namespaces = _make_ns(ns_pairs)
            node.children = []
            node.atype = atype
            node.value = value
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
        elif tag == _D_ARRAY:
            _, qname, ns_pairs, attr_meta, atype, item_name, dtype, item_size = op
            try:
                count, pos = decode_vls(data, pos)
            except XBSDecodeError:
                return None
            end = ends.pop()
            if pos >= end:
                return None
            pad = data[pos]
            pos += 1 + pad
            nbytes = count * item_size
            if pos + nbytes > end:
                return None
            values = np.frombuffer(data[pos : pos + nbytes], dtype=dtype, count=count)
            if copy:
                values = values.astype(dtype.newbyteorder("="), copy=True)
            pos += nbytes
            if pos != end:
                return None
            node = ArrayElement.__new__(ArrayElement)
            node.name = qname
            node.attributes = _make_attrs(attr_meta, attr_values)
            node.namespaces = _make_ns(ns_pairs)
            node.children = []
            node.atype = atype
            node.values = values
            node.item_name = item_name
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
        elif tag == _D_ELEM:
            _, qname, ns_pairs, attr_meta = op
            node = ElementNode.__new__(ElementNode)
            node.name = qname
            node.attributes = _make_attrs(attr_meta, attr_values)
            node.namespaces = _make_ns(ns_pairs)
            node.children = []
            stack.append(node)
        elif tag == _D_DOC:
            node = DocumentNode.__new__(DocumentNode)
            node.children = []
            stack.append(node)
        elif tag == _D_END:
            if pos != ends.pop():
                return None
            node = stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
        elif tag == _D_TEXT or tag == _D_COMMENT:
            text, pos = _string_value(data, pos, n)
            if text is None:
                return None
            if pos != ends.pop():
                return None
            # the real constructors so malformed content (e.g. "--" in a
            # comment) raises exactly as the stateless decoder would
            node = TextNode(text) if tag == _D_TEXT else CommentNode(text)
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
        elif tag == _D_PI:
            pi_data, pos = _string_value(data, pos, n)
            if pi_data is None:
                return None
            if pos != ends.pop():
                return None
            node = PINode(op[1], pi_data)
            if stack:
                stack[-1].children.append(node)
            else:
                root = node
        else:  # pragma: no cover - compiler/replayer must stay in sync
            raise AssertionError(f"unknown decode plan op {tag}")
    if root is None or stack or ends:  # pragma: no cover - compiler invariant
        return None
    return root, pos
