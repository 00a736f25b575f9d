"""Streaming BXSA: event-based writing and incremental, pull-based reading.

XBS is "a *streaming* binary serializer" (the paper's §4 heritage); this
module carries that property up to the BXSA layer.  It lets producers emit
frames as data becomes available — without ever materializing a bXDM tree —
and consumers iterate events the way a StAX/pull parser walks textual XML:

* :class:`BXSAStreamWriter` — ``start_element`` / ``attribute-carrying``
  starts, ``leaf`` / ``array`` / ``text`` / ``comment`` / ``pi`` items,
  ``end_element``.  Two assembly modes:

  - **buffered** (default): the document is assembled with the same O(n)
    placeholder back-patching as the tree encoder and returned by
    :meth:`~BXSAStreamWriter.end_document` as one ``bytes`` blob, using the
    standard container frames — byte-identical to the tree encoder.
  - **sink-driven** (``sink=``): completed bytes are handed to ``sink`` in
    bounded chunks *as they are produced*.  Container Size fields cannot be
    back-patched once flushed, so containers are written in the streamed
    profile (``STREAM_DOCUMENT``/``STREAM_ELEMENT``/``STREAM_END``, see
    :mod:`repro.bxsa.constants`); atom frames stay byte-identical to the
    standard profile.  Peak memory is O(chunk size), independent of the
    message size — :meth:`~BXSAStreamWriter.array_blocks` even lets the
    payload of one giant array arrive block by block.

* :class:`BXSAStreamReader` — pull events from a *complete* buffer with
  zero-copy numpy views over array payloads.
* :class:`StreamDecoder` — ``feed(bytes)`` returns the events completed by
  those bytes, however the stream was split.  It accepts both the standard
  and the streamed container profiles; within one ``feed`` call array events
  are zero-copy views into the caller's buffer.  With
  ``array_chunk_threshold`` set, arrays at least that large are delivered as
  ``ARRAY_BEGIN`` / ``ARRAY_CHUNK`` / ``ARRAY_END`` so a multi-GiB payload
  never has to be resident at once.

Neither reader parses: both collect the events of the one frame grammar in
:class:`repro.bxsa.walker.FrameWalker` (the pull reader steps it over a
complete buffer, the incremental decoder feeds it), so they cannot disagree
with each other or with the tree decoder about which bytes are a document.

A round trip through writer → bytes → reader → writer reproduces the byte
stream exactly; :func:`write_document` drives a writer from a bXDM tree and
(in buffered mode) reproduces the tree encoder's bytes exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import obs
from repro.bxsa.constants import FrameType, pack_prefix_byte
from repro.bxsa.encoder import BXSAEncoder, array_frame_head
from repro.bxsa.errors import BXSAEncodeError
from repro.bxsa.namespaces import ScopeStack, to_nodes
from repro.bxsa.walker import FrameWalker
from repro.xbs.constants import NATIVE_ENDIAN, TypeCode, dtype_for
from repro.xbs.varint import encode_vls
from repro.xdm.nodes import (
    ArrayElement,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    NamespaceNode,
    PINode,
    TextNode,
)
from repro.xdm.qname import QName
from repro.xdm.types import atomic_type_for_xsd

#: Default sink-mode flush granularity: bytes are handed to the sink in
#: pieces of (at most) this many bytes.
DEFAULT_CHUNK_SIZE = 64 * 1024


class EventKind(enum.Enum):
    START_DOCUMENT = "start-document"
    END_DOCUMENT = "end-document"
    START_ELEMENT = "start-element"
    END_ELEMENT = "end-element"
    LEAF = "leaf"
    ARRAY = "array"
    ARRAY_BEGIN = "array-begin"
    ARRAY_CHUNK = "array-chunk"
    ARRAY_END = "array-end"
    TEXT = "text"
    COMMENT = "comment"
    PI = "pi"


@dataclass(frozen=True)
class StreamEvent:
    """One pull-parsing event.

    Population by kind: START/END_ELEMENT carry ``name`` (+ ``attributes``/
    ``namespaces`` on START); LEAF carries ``name``, ``value``, ``atype``;
    ARRAY carries ``name``, ``values`` (zero-copy), ``atype``, ``item_name``,
    ``count``; TEXT/COMMENT carry ``text``; PI carries ``target`` and
    ``text`` (data).  :class:`StreamDecoder` in chunked-array mode replaces
    ARRAY with ARRAY_BEGIN (``count``), ARRAY_CHUNK (``values`` holding
    ``len(values)`` items starting at item index ``item_offset``) and
    ARRAY_END (``item_offset == count``).
    """

    kind: EventKind
    name: QName | None = None
    attributes: tuple = ()
    namespaces: tuple = ()
    value: object = None
    values: np.ndarray | None = None
    atype: object = None
    item_name: str | None = None
    text: str = ""
    target: str = ""
    depth: int = 0  #: element nesting depth at which the event occurs
    count: int | None = None  #: total item count of the (chunked) array
    item_offset: int = 0  #: index of the first item carried by an ARRAY_CHUNK


def _type_code_of(atype) -> TypeCode:
    if isinstance(atype, TypeCode):
        return atype
    code = getattr(atype, "code", None)
    if code is not None:
        return code
    if isinstance(atype, str):
        return atomic_type_for_xsd(atype).code
    raise BXSAEncodeError(f"cannot derive an array item type from {atype!r}")


def _namespace_items(namespaces):
    if not namespaces:
        return ()
    if isinstance(namespaces, dict):
        return namespaces.items()
    out = []
    for entry in namespaces:
        if isinstance(entry, NamespaceNode):
            out.append((entry.prefix, entry.uri))
        else:
            prefix, uri = entry
            out.append((prefix, uri))
    return out


# ---------------------------------------------------------------------------
# writer


class BXSAStreamWriter:
    """Emit a BXSA document incrementally.

    The writer reuses the tree encoder's header serialization (namespace
    tokenization, auto-declaration, typed attributes) by building
    throwaway header-only nodes; payloads never pass through bXDM.

    Without ``sink`` the document accumulates in memory and
    :meth:`end_document` returns it, byte-identical to the tree encoder.
    With ``sink`` (any callable accepting a bytes-like object — a socket's
    ``sendall``, ``hashlib``'s ``update``, a chunked-HTTP body writer),
    bytes are flushed in pieces of at most ``chunk_size`` as soon as they
    are complete, containers use the streamed profile, and
    :meth:`end_document` returns ``b""``.  The sink must consume (or copy)
    each piece before returning: large array payloads are passed as
    memoryviews whose buffer is reused afterwards.
    """

    def __init__(
        self,
        byte_order: int = NATIVE_ENDIAN,
        *,
        sink=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self._encoder = BXSAEncoder(byte_order)
        self.byte_order = byte_order
        self._sink = sink
        self._chunk_size = int(chunk_size)
        if sink is not None and self._chunk_size <= 0:
            raise BXSAEncodeError(f"chunk_size must be positive, got {chunk_size}")
        self._pending = bytearray()
        self._chunks: list = []
        self._nbytes = 0
        self._pieces = 0
        self._scopes = ScopeStack()
        # (placeholder index, byte mark, child count, header bytes|None);
        # sink mode keeps only the child count (no back-patching)
        self._open: list[list] = []
        self._document_started = False
        self._finished = False

    # -- plumbing ------------------------------------------------------

    def _emit(self, chunk) -> None:
        self._nbytes += len(chunk)
        if self._sink is None:
            self._chunks.append(chunk)
        else:
            self._sink_write(chunk)

    def _piece_out(self, piece) -> None:
        # a traced stream marks when its first piece left (TTFB's encode
        # half) — the matching stream.last_chunk lands in end_document
        if self._pieces == 0:
            obs.event("stream.first_chunk", bytes=len(piece))
        self._pieces += 1
        self._sink(piece)

    def _sink_write(self, chunk) -> None:
        cs = self._chunk_size
        pending = self._pending
        if len(chunk) >= cs:
            view = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
            if view.format != "B":
                view = view.cast("B")
            n = len(view)
            if pending:
                # flush the buffered tail as its own (short) piece instead
                # of topping it up to a full chunk: topping up would pull
                # the large payload through the bytearray — two extra
                # chunk-sized copies per chunk, which for a streamed
                # gigabyte array *is* the pipeline's peak memory.  Pieces
                # stay at most ``chunk_size``; only their boundaries shift.
                self._piece_out(bytes(pending))
                pending.clear()
            off = 0
            while n - off >= cs:
                self._piece_out(view[off : off + cs])
                off += cs
            if off < n:
                pending += view[off:]
            return
        pending += chunk
        while len(pending) >= cs:
            self._piece_out(bytes(pending[:cs]))
            del pending[:cs]

    def _flush_pending(self) -> None:
        if self._pending:
            self._piece_out(bytes(self._pending))
            self._pending.clear()

    def _count_child(self) -> None:
        if not self._open:
            raise BXSAEncodeError("content outside the document")
        self._open[-1][2] += 1

    def _emit_frame(self, frame_type: FrameType, body_chunks: list) -> None:
        size = sum(len(c) for c in body_chunks)
        prefix = bytes((pack_prefix_byte(self.byte_order, frame_type),))
        self._emit(prefix + encode_vls(size))
        for chunk in body_chunks:
            self._emit(chunk)

    def _header_for(self, name: QName | str, attributes, namespaces) -> bytes:
        qname = name if isinstance(name, QName) else QName.parse(name)
        shell = ElementNode(qname)
        for prefix, uri in _namespace_items(namespaces):
            shell.declare_namespace(prefix, uri)
        if attributes:
            if isinstance(attributes, dict):
                for attr_name, attr_value in attributes.items():
                    shell.set_attribute(attr_name, attr_value)
            else:
                for attr in attributes:
                    shell.set_attribute(attr.name, attr.value, attr.atype)
        table = self._encoder._own_table(shell)
        explicit = len(table)
        self._scopes.push(table)
        try:
            header = self._encoder._element_header(shell, self._scopes)
        except BXSAEncodeError:
            self._scopes.pop()
            raise
        if len(table) > explicit:
            # Auto-declarations serialized into this header must stay
            # invisible to descendant frames: the tree encoder resolves a
            # container's header only after its children are encoded, so
            # descendants re-declare such URIs in their own frames.  Byte
            # identity between the two engines depends on doing the same.
            self._scopes.pop()
            self._scopes.push(table[:explicit])
        return header

    # -- structure ------------------------------------------------------

    def start_document(self) -> "BXSAStreamWriter":
        if self._document_started:
            raise BXSAEncodeError("document already started")
        self._document_started = True
        if self._sink is not None:
            self._open.append([None, None, 0, None])
            self._emit_frame(FrameType.STREAM_DOCUMENT, [])
        else:
            self._open.append([len(self._chunks), self._nbytes, 0, None])
            self._chunks.append(b"")  # placeholder
        return self

    def start_element(
        self,
        name: QName | str,
        *,
        attributes=None,
        namespaces=None,
    ) -> "BXSAStreamWriter":
        if not self._document_started:
            raise BXSAEncodeError("start_document() first")
        self._count_child()
        header = self._header_for(name, attributes, namespaces)
        if self._sink is not None:
            self._open.append([None, None, 0, None])
            self._emit_frame(FrameType.STREAM_ELEMENT, [header])
        else:
            self._open.append([len(self._chunks), self._nbytes, 0, header])
            self._chunks.append(b"")
        return self

    def end_element(self) -> "BXSAStreamWriter":
        if len(self._open) <= 1:
            raise BXSAEncodeError("no element open")
        placeholder, mark, n_children, header = self._open.pop()
        self._scopes.pop()
        if self._sink is not None:
            self._emit_frame(FrameType.STREAM_END, [encode_vls(n_children)])
        else:
            self._patch(
                placeholder, mark, n_children, FrameType.COMPONENT_ELEMENT, header
            )
        return self

    def end_document(self) -> bytes:
        if len(self._open) != 1:
            raise BXSAEncodeError(f"{len(self._open) - 1} element(s) still open")
        placeholder, mark, n_children, _ = self._open.pop()
        self._finished = True
        if self._sink is not None:
            self._emit_frame(FrameType.STREAM_END, [encode_vls(n_children)])
            self._flush_pending()
            obs.event("stream.last_chunk", pieces=self._pieces, bytes=self._nbytes)
            obs.counter("bxsa.stream.bytes_written").add(self._nbytes)
            return b""
        self._patch(placeholder, mark, n_children, FrameType.DOCUMENT, b"")
        out = b"".join(self._chunks)
        obs.counter("bxsa.stream.bytes_written").add(len(out))
        return out

    def _patch(self, placeholder, mark, n_children, frame_type, header) -> None:
        children_len = self._nbytes - mark
        count_vls = encode_vls(n_children)
        body_len = len(header) + len(count_vls) + children_len
        prefix = bytes((pack_prefix_byte(self.byte_order, frame_type),))
        chunk = prefix + encode_vls(body_len) + header + count_vls
        self._chunks[placeholder] = chunk
        self._nbytes += len(chunk)

    # -- content --------------------------------------------------------

    def leaf(
        self,
        name: QName | str,
        value,
        atype=None,
        *,
        attributes=None,
        namespaces=None,
    ) -> "BXSAStreamWriter":
        self._count_child()
        node = LeafElement(name, value, atype)
        header = self._header_for(node.name, attributes, namespaces)
        self._scopes.pop()
        self._emit_frame(
            FrameType.LEAF_ELEMENT,
            [header + self._encoder._typed_value(node.atype.code, node.value)],
        )
        return self

    def array(
        self,
        name: QName | str,
        values,
        atype=None,
        *,
        item_name: str | None = None,
        attributes=None,
        namespaces=None,
    ) -> "BXSAStreamWriter":
        self._count_child()
        node = ArrayElement(name, values, atype, item_name=item_name)
        header = self._header_for(node.name, attributes, namespaces)
        self._scopes.pop()
        code = node.atype.code
        head = array_frame_head(header, code, node.item_name, int(node.values.size))
        target = dtype_for(code, self.byte_order)
        normalized = np.ascontiguousarray(node.values, dtype=target)
        payload = memoryview(normalized).cast("B") if normalized.size else b""
        self._emit_frame(FrameType.ARRAY_ELEMENT, [head, payload])
        return self

    def array_blocks(
        self,
        name: QName | str,
        count: int,
        blocks,
        atype,
        *,
        item_name: str | None = None,
        attributes=None,
        namespaces=None,
    ) -> "BXSAStreamWriter":
        """One array frame whose payload arrives as an iterable of blocks.

        The frame Size is computed up front from ``count`` and the item
        type, so the payload streams through without ever being assembled —
        the producer-side complement of :class:`StreamDecoder`'s chunked
        array events.  ``atype`` is mandatory (an atomic type, its xsd name,
        or a :class:`TypeCode`): there is no materialized payload to infer
        it from.  The block byte total must match ``count`` items exactly;
        a mismatch poisons the writer (bytes may already be flushed) and
        raises.
        """
        self._count_child()
        code = _type_code_of(atype)
        if code is TypeCode.STRING:
            raise BXSAEncodeError("array frames cannot hold strings")
        count = int(count)
        if count < 0:
            raise BXSAEncodeError(f"array item count must be >= 0, got {count}")
        header = self._header_for(name, attributes, namespaces)
        self._scopes.pop()
        head = array_frame_head(header, code, item_name, count)
        nbytes = count * code.size
        prefix = bytes((pack_prefix_byte(self.byte_order, FrameType.ARRAY_ELEMENT),))
        self._emit(prefix + encode_vls(len(head) + nbytes))
        self._emit(head)
        target = dtype_for(code, self.byte_order)
        written = 0
        for block in blocks:
            normalized = np.ascontiguousarray(block, dtype=target)
            if not normalized.size:
                continue
            payload = memoryview(normalized).cast("B")
            written += len(payload)
            if written > nbytes:
                raise BXSAEncodeError(
                    f"array_blocks promised {count} items ({nbytes} bytes) but "
                    f"received at least {written} payload bytes"
                )
            self._emit(payload)
        if written != nbytes:
            raise BXSAEncodeError(
                f"array_blocks promised {count} items ({nbytes} bytes) but "
                f"received {written} payload bytes"
            )
        return self

    def text(self, content: str) -> "BXSAStreamWriter":
        self._count_child()
        self._emit_frame(FrameType.CHARACTER_DATA, [self._encoder._string(content)])
        return self

    def comment(self, content: str) -> "BXSAStreamWriter":
        self._count_child()
        self._emit_frame(FrameType.COMMENT, [self._encoder._string(content)])
        return self

    def pi(self, target: str, data: str = "") -> "BXSAStreamWriter":
        self._count_child()
        self._emit_frame(
            FrameType.PI, [self._encoder._string(target) + self._encoder._string(data)]
        )
        return self


_ENTER, _EXIT = 0, 1


def write_document(writer: BXSAStreamWriter, document: DocumentNode) -> bytes:
    """Drive ``writer`` from a bXDM document tree.

    In buffered mode the result is byte-identical to
    :func:`repro.bxsa.encoder.encode`; in sink mode the same logical
    document goes out in the streamed profile.  Iterative, so arbitrarily
    deep documents transfer without recursion limits.
    """
    if not isinstance(document, DocumentNode):
        raise BXSAEncodeError(f"expected DocumentNode, got {type(document).__name__}")
    writer.start_document()
    work: list[tuple[int, object]] = [
        (_ENTER, child) for child in reversed(document.children)
    ]
    while work:
        action, node = work.pop()
        if action == _EXIT:
            writer.end_element()
        elif isinstance(node, LeafElement):
            writer.leaf(
                node.name,
                node.value,
                node.atype,
                attributes=list(node.attributes),
                namespaces=list(node.namespaces),
            )
        elif isinstance(node, ArrayElement):
            writer.array(
                node.name,
                node.values,
                node.atype,
                item_name=node.item_name,
                attributes=list(node.attributes),
                namespaces=list(node.namespaces),
            )
        elif isinstance(node, ElementNode):
            writer.start_element(
                node.name,
                attributes=list(node.attributes),
                namespaces=list(node.namespaces),
            )
            work.append((_EXIT, node))
            for child in reversed(node.children):
                work.append((_ENTER, child))
        elif isinstance(node, TextNode):
            writer.text(node.text)
        elif isinstance(node, CommentNode):
            writer.comment(node.text)
        elif isinstance(node, PINode):
            writer.pi(node.target, node.data)
        else:
            raise BXSAEncodeError(f"cannot stream node {type(node).__name__}")
    return writer.end_document()


# ---------------------------------------------------------------------------
# readers: event-collecting consumers of the frame walker


class _EventCollector:
    """Walker handler that materialises each production as a StreamEvent."""

    def __init__(self) -> None:
        self.events: list[StreamEvent] = []
        self._depth = 0  # open element frames
        self._array: dict = {}  # the open chunked array's common event fields

    def _add(self, kind: EventKind, name=None, attrs=(), table=(), **fields) -> None:
        namespaces = tuple(to_nodes(table)) if table else ()
        self.events.append(
            StreamEvent(kind, name, tuple(attrs), namespaces, depth=self._depth, **fields)
        )

    def start_document(self) -> None:
        self._add(EventKind.START_DOCUMENT)

    def end_document(self) -> None:
        self._add(EventKind.END_DOCUMENT)

    def start_element(self, name, attrs, table) -> None:
        self._add(EventKind.START_ELEMENT, name, attrs, table)
        self._depth += 1

    def end_element(self, name) -> None:
        self._depth -= 1
        self._add(EventKind.END_ELEMENT, name)

    def leaf(self, name, attrs, table, value, atype) -> None:
        self._add(EventKind.LEAF, name, attrs, table, value=value, atype=atype)

    def array(self, name, attrs, table, values, atype, item_name) -> None:
        self._add(
            EventKind.ARRAY, name, attrs, table,
            values=values, atype=atype, item_name=item_name, count=len(values),
        )

    def array_begin(self, name, attrs, table, atype, item_name, count) -> None:
        self._array = {"name": name, "atype": atype, "item_name": item_name, "count": count}
        self._add(EventKind.ARRAY_BEGIN, attrs=attrs, table=table, **self._array)

    def array_chunk(self, values, item_offset) -> None:
        self._add(EventKind.ARRAY_CHUNK, values=values, item_offset=item_offset, **self._array)

    def array_end(self) -> None:
        self._add(EventKind.ARRAY_END, item_offset=self._array["count"], **self._array)

    def text(self, content) -> None:
        self._add(EventKind.TEXT, text=content)

    def comment(self, content) -> None:
        self._add(EventKind.COMMENT, text=content)

    def pi(self, target, data) -> None:
        self._add(EventKind.PI, target=target, text=data)


class BXSAStreamReader:
    """Pull events from a BXSA buffer without building a tree.

    Accepts any buffer (``bytes``, ``bytearray``, ``memoryview``, mmap)
    without copying: array events are numpy views aliasing the caller's
    buffer, extending the codec's documented ``copy=False`` contract to the
    stream layer.  Lazy: the walker is stepped one frame per pull, so a
    frame is only parsed (and can only fail) once its events are asked for.
    """

    def __init__(self, data, offset: int = 0) -> None:
        self.data = memoryview(data) if not isinstance(data, memoryview) else data
        self._pos = offset

    def __iter__(self) -> Iterator[StreamEvent]:
        return self.events()

    def events(self) -> Iterator[StreamEvent]:
        """Yield the event stream for the frame at the start offset."""
        collector = _EventCollector()
        walker = FrameWalker(collector)
        pos = self._pos
        count = 0
        while not walker.done:
            pos = walker.step(self.data, pos)
            count += len(collector.events)
            yield from collector.events
            collector.events.clear()
        # metrics land once per document, not per event, so the pull loop
        # costs nothing extra whether or not a recorder is active
        obs.counter("bxsa.stream.events_read").add(count)


class StreamDecoder:
    """Incremental BXSA reader: feed bytes as they arrive, collect events.

    ``feed(data)`` returns the :class:`StreamEvent` list completed by those
    bytes.  The event sequence is independent of how the byte stream is
    split across ``feed`` calls; within one call, array payload views are
    zero-copy over the caller's buffer whenever the decoder is not forced
    to reassemble a frame that straddled a previous call (straddling
    remainders are buffered — bounded by the frame head size plus one feed).

    Accepts both container profiles: the standard embedded-Size frames the
    tree encoder produces and the streamed ``STREAM_*`` profile of the
    sink-driven writer.  Corruption whose detection needs bytes that have
    not arrived yet is reported once the frame's claimed extent is
    buffered (or at :meth:`close`); structural lies that are provable
    early — a child frame overrunning its container — fail immediately,
    before any event for that frame is delivered.

    With ``array_chunk_threshold=t``, arrays of at least ``t`` payload
    bytes are delivered as ARRAY_BEGIN / ARRAY_CHUNK… / ARRAY_END instead
    of one ARRAY event, and their payloads are never buffered: peak memory
    stays O(feed size), not O(array size).  Chunk boundaries follow feed
    boundaries; everything else about the event stream is unchanged.
    """

    def __init__(self, *, array_chunk_threshold: int | None = None) -> None:
        if array_chunk_threshold is not None and array_chunk_threshold <= 0:
            raise ValueError(
                f"array_chunk_threshold must be positive, got {array_chunk_threshold}"
            )
        self._collector = _EventCollector()
        self._walker = FrameWalker(
            self._collector,
            streamed_profile=True,
            array_chunk_threshold=array_chunk_threshold,
        )

    @property
    def done(self) -> bool:
        """True once a complete document (or bare top-level frame) ended."""
        return self._walker.done

    def feed(self, data) -> list[StreamEvent]:
        events = self._collector.events = []
        self._walker.feed(data)
        obs.counter("bxsa.stream.events_read").add(len(events))
        return events

    def close(self) -> None:
        """Assert the stream ended exactly at a document boundary."""
        self._walker.close()
