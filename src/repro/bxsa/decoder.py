"""BXSA → bXDM decoder (the encoding policy's "factory method").

The decoder is the tree-building consumer of the one frame grammar in
:mod:`repro.bxsa.walker`: :class:`~repro.bxsa.walker.FrameWalker` makes the
single forward pass over the buffer (explicit container stack, no
recursion) and *validates* every frame ``Size`` against the bytes actually
consumed — a frame whose content over- or under-runs its declared size is
rejected, which is what makes the scanner's skip-by-size trustworthy —
while the handler here turns each production into a bXDM node.

Array payloads come back as zero-copy numpy views over the input buffer by
default (read-only when the buffer is immutable), the Python counterpart of
the paper's memory-mapped ArrayElement I/O; pass ``copy=True`` for
independent, writable, native-order arrays.
"""

from __future__ import annotations

from repro.bxsa.errors import BXSADecodeError
from repro.bxsa.namespaces import to_nodes
from repro.bxsa.walker import FrameWalker
from repro.xdm.errors import XDMError
from repro.xdm.nodes import (
    ArrayElement,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    Node,
    PINode,
    TextNode,
)
from repro.xdm.qname import QName


def decode(data, offset: int = 0, *, copy: bool = False, whole: bool | None = None) -> Node:
    """Decode one BXSA frame (document or element tree) from ``data``.

    By default a decode starting at ``offset == 0`` is a *whole-message*
    decode: trailing bytes after the top-level frame are rejected.  A
    non-zero ``offset`` decodes an *embedded* frame from a larger buffer
    (a pipelined keep-alive buffer, a scanner extract) and ignores whatever
    follows the frame.  Pass ``whole=True``/``False`` to force either
    behaviour regardless of offset; use :class:`BXSADecoder` directly to
    pull consecutive frames from a stream.

    Aliasing contract for ``copy=False`` (the default):

    * Every *materialized* value — scalar leaf values, attribute values,
      strings, QNames, namespace tables, text/comment/PI content — is fully
      converted to independent Python objects during the decode pass.
      Mutating or releasing the source buffer afterwards cannot corrupt
      them.
    * :class:`~repro.xdm.nodes.ArrayElement` payloads are the one
      exception: ``node.values`` is a zero-copy ``numpy`` view **aliasing
      the source buffer**.  If the source is writable (e.g. a
      ``bytearray``), mutating it mutates the decoded array in place — and
      writing through the array mutates the buffer; if the source is
      immutable ``bytes``, the view is read-only.  Callers that outlive or
      recycle the receive buffer must pass ``copy=True`` (independent,
      writable, native-order arrays) or copy the arrays they keep.
    """
    decoder = BXSADecoder(data, offset, copy=copy)
    node = decoder.read_node()
    if whole is None:
        whole = offset == 0
    if whole and decoder.pos != len(decoder.data):
        raise BXSADecodeError(
            f"{len(decoder.data) - decoder.pos} trailing bytes after frame"
        )
    return node


def decode_document(
    data, offset: int = 0, *, copy: bool = False, whole: bool | None = None
) -> DocumentNode:
    """Decode and require a document frame."""
    node = decode(data, offset, copy=copy, whole=whole)
    if not isinstance(node, DocumentNode):
        raise BXSADecodeError(f"expected a document frame, found {type(node).__name__}")
    return node


class _TreeBuilder:
    """Walker handler that builds the bXDM tree.

    Every ``XDMError`` a node constructor raises (a comment containing
    ``--``, an invalid PI target) becomes a :class:`BXSADecodeError`: the
    bytes are a well-formed frame but not a decodable document.
    """

    def __init__(self, copy: bool) -> None:
        self.copy = copy
        self.root: Node | None = None
        self._open: list = []  # container nodes under construction

    def _attach(self, node: Node) -> None:
        if self._open:
            self._open[-1].children.append(node)
        else:
            self.root = node

    def _build(self, cls, *args, **header) -> None:
        try:
            node = cls(*args, **header)
        except XDMError as exc:
            raise BXSADecodeError(str(exc)) from exc
        self._attach(node)

    def start_document(self) -> None:
        self._open.append(DocumentNode())

    def start_element(self, name, attrs, table) -> None:
        self._open.append(ElementNode(name, attributes=attrs, namespaces=to_nodes(table)))

    def end_element(self, name=None) -> None:
        self._attach(self._open.pop())

    end_document = end_element

    def leaf(self, name, attrs, table, value, atype) -> None:
        self._build(LeafElement, name, value, atype, attributes=attrs, namespaces=to_nodes(table))

    def array(self, name, attrs, table, values, atype, item_name) -> None:
        if self.copy:
            values = values.astype(values.dtype.newbyteorder("="), copy=True)
        node = ArrayElement.__new__(ArrayElement)
        ElementNode.__init__(node, name, attributes=attrs, namespaces=to_nodes(table))
        # Bypass the constructor's ascontiguousarray to keep zero-copy
        # views (possibly non-native byte order) intact.
        node.atype = atype
        node.values = values
        node.item_name = item_name
        self._attach(node)

    def text(self, content) -> None:
        self._build(TextNode, content)

    def comment(self, content) -> None:
        self._build(CommentNode, content)

    def pi(self, target, data) -> None:
        self._build(PINode, target, data)


class BXSADecoder:
    """Streaming decoder: repeated :meth:`read_node` calls pull consecutive
    top-level frames (the TCP binding uses this for message framing).

    ``copy=False`` decodes array payloads as zero-copy views over ``data``;
    see :func:`decode` for the exact aliasing contract.

    ``string_cache`` / ``qname_cache`` are optional intern tables (usually
    owned by a :class:`~repro.bxsa.session.CodecSession`) mapping raw
    UTF-8 bytes → ``str`` and ``(local, uri, prefix)`` → ``QName``.  They
    only apply to *names* (namespace prefixes/URIs, element and attribute
    local names), which repeat heavily across same-shaped messages; value
    strings are never interned.  Passing shared dicts across decoders is
    safe because both cached types are immutable.
    """

    def __init__(
        self,
        data,
        offset: int = 0,
        *,
        copy: bool = False,
        outer_tables: list[list[tuple[str, str]]] | None = None,
        string_cache: dict[bytes, str] | None = None,
        qname_cache: dict[tuple, QName] | None = None,
    ) -> None:
        self.data = memoryview(data) if not isinstance(data, memoryview) else data
        self.pos = offset
        self.copy = copy
        #: Namespace tables of the frame's ancestors (outermost first).
        #: Required to decode a frame extracted from mid-document whose
        #: QName references reach outer scopes — BXSA frames are skippable
        #: in isolation but only *decodable* with their scope chain, a
        #: direct consequence of §4.1's tokenization.
        self.outer_tables = list(outer_tables or [])
        self._string_cache = string_cache
        self._qname_cache = qname_cache

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def read_node(self) -> Node:
        """Decode the frame at the current position into a bXDM tree."""
        builder = _TreeBuilder(self.copy)
        walker = FrameWalker(
            builder,
            outer_tables=self.outer_tables,
            string_cache=self._string_cache,
            qname_cache=self._qname_cache,
        )
        self.pos = walker.walk(self.data, self.pos)
        return builder.root
