"""Streaming BXSA: event-based writing and incremental, pull-based reading.

XBS is "a *streaming* binary serializer" (the paper's §4 heritage); this
module carries that property up to the BXSA layer.  It lets producers emit
frames as data becomes available — without ever materializing a bXDM tree —
and consumers iterate events the way a StAX/pull parser walks textual XML:

* :class:`BXSAStreamWriter` — ``start_element`` / ``attribute-carrying``
  starts, ``leaf`` / ``array`` / ``text`` / ``comment`` / ``pi`` items,
  ``end_element``: the public, input-normalising face of the one
  :class:`~repro.bxsa.emitter.FrameEmitter`.  **Buffered** (default), it
  returns the tree encoder's bytes, being the tree encoder's emitter;
  **sink-driven** (``sink=``), completed bytes reach ``sink`` in bounded
  chunks *as they are produced*, containers in the streamed profile, and
  peak memory is O(chunk size) whatever the message size —
  :meth:`~BXSAStreamWriter.array_blocks` even lets the payload of one giant
  array arrive block by block.

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
stream exactly; :func:`write_document` drives a writer from a bXDM tree.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import obs
from repro.bxsa.emitter import FrameEmitter, walk_tree
from repro.bxsa.errors import BXSAEncodeError
from repro.bxsa.namespaces import to_nodes
from repro.bxsa.walker import FrameWalker
from repro.xbs.constants import NATIVE_ENDIAN, TypeCode, dtype_for
from repro.xdm.nodes import (
    ArrayElement,
    AttributeNode,
    DocumentNode,
    LeafElement,
    NamespaceNode,
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


def _qname(name) -> QName:
    return name if isinstance(name, QName) else QName.parse(name)


def _namespace_nodes(namespaces) -> list:
    if not namespaces:
        return []
    if isinstance(namespaces, dict):
        namespaces = namespaces.items()
    return [ns if isinstance(ns, NamespaceNode) else NamespaceNode(*ns) for ns in namespaces]


def _attribute_nodes(attributes) -> list:
    if not attributes:
        return []
    if isinstance(attributes, dict):
        return [AttributeNode(name, value) for name, value in attributes.items()]
    return list(attributes)


# ---------------------------------------------------------------------------
# writer


def _production(method):
    """The one rule of every public writer call: refuse a poisoned writer,
    and poison it when the call raises — a frame may be half-emitted, a
    child counted, a scope pushed, bytes already with the sink."""

    @functools.wraps(method)
    def guarded(self, *args, **kwargs):
        if self._poisoned:
            raise BXSAEncodeError("an earlier call failed; the writer's output is unusable")
        try:
            return method(self, *args, **kwargs)
        except BaseException:
            self._poisoned = True
            raise

    return guarded


class BXSAStreamWriter:
    """Emit a BXSA document incrementally.

    The public methods normalise their input (``str`` names, ``dict``
    attributes and namespaces, type inference) and call the productions of
    one :class:`~repro.bxsa.emitter.FrameEmitter`.

    Without ``sink`` the document accumulates in memory and
    :meth:`end_document` returns it, byte-identical to the tree encoder.
    With ``sink`` (any callable accepting a bytes-like object — a socket's
    ``sendall``, ``hashlib``'s ``update``, a chunked-HTTP body writer),
    bytes are flushed in pieces of at most ``chunk_size`` as soon as they
    are complete, containers use the streamed profile, and
    :meth:`end_document` returns ``b""``.  The sink must consume (or copy)
    each piece before returning: large array payloads are passed as
    memoryviews whose buffer is reused afterwards.

    A call that raises poisons the writer: every later call, including
    :meth:`end_document`, raises :class:`BXSAEncodeError`.
    """

    def __init__(
        self,
        byte_order: int = NATIVE_ENDIAN,
        *,
        sink=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.byte_order = byte_order
        self._sink = sink
        self._chunk_size = int(chunk_size)
        if sink is not None and self._chunk_size <= 0:
            raise BXSAEncodeError(f"chunk_size must be positive, got {chunk_size}")
        self._pending = bytearray()
        self._pieces = 0
        self._emitter = FrameEmitter(byte_order, None if sink is None else self._sink_write)
        self._poisoned = False

    # -- sink chunking --------------------------------------------------

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

    # -- structure ------------------------------------------------------

    def _content(self) -> FrameEmitter:
        if not self._emitter.depth:
            raise BXSAEncodeError("content outside the document")
        return self._emitter

    @_production
    def start_document(self) -> "BXSAStreamWriter":
        if self._emitter.depth or self._emitter.nbytes:
            raise BXSAEncodeError("document already started")
        self._emitter.start_document()
        return self

    @_production
    def start_element(
        self,
        name: QName | str,
        *,
        attributes=None,
        namespaces=None,
    ) -> "BXSAStreamWriter":
        self._content().start_element(
            _qname(name), _namespace_nodes(namespaces), _attribute_nodes(attributes)
        )
        return self

    @_production
    def end_element(self) -> "BXSAStreamWriter":
        if self._emitter.depth <= 1:
            raise BXSAEncodeError("no element open")
        self._emitter.end_element()
        return self

    @_production
    def end_document(self) -> bytes:
        emitter = self._emitter
        if emitter.depth != 1:
            raise BXSAEncodeError(f"{emitter.depth - 1} element(s) still open")
        emitter.end_document()
        if self._sink is None:
            out = emitter.getvalue()
        else:
            if self._pending:
                self._piece_out(bytes(self._pending))
                self._pending.clear()
            obs.event("stream.last_chunk", pieces=self._pieces, bytes=emitter.nbytes)
            out = b""
        obs.counter("bxsa.stream.bytes_written").add(emitter.nbytes)
        return out

    # -- content --------------------------------------------------------

    @_production
    def leaf(
        self,
        name: QName | str,
        value,
        atype=None,
        *,
        attributes=None,
        namespaces=None,
    ) -> "BXSAStreamWriter":
        # the node constructor is the normaliser: type inference, coercion
        node = LeafElement(
            name, value, atype,
            attributes=_attribute_nodes(attributes), namespaces=_namespace_nodes(namespaces),
        )  # fmt: skip
        walk_tree(node, self._content())
        return self

    @_production
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
        """One array frame.  ``values`` is not copied until the document is
        joined (buffered) or the sink takes it: do not mutate it before."""
        node = ArrayElement(
            name, values, atype, item_name=item_name,
            attributes=_attribute_nodes(attributes), namespaces=_namespace_nodes(namespaces),
        )  # fmt: skip
        walk_tree(node, self._content())
        return self

    @_production
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

        A block belongs to the producer again as soon as the next one is
        asked for, so one refilled buffer can feed the whole array: with a
        sink each block has been handed over by then, and without one each
        block is copied on entry (unlike :meth:`array`'s single payload).
        """
        code = _type_code_of(atype)
        if code is TypeCode.STRING:
            raise BXSAEncodeError("array frames cannot hold strings")
        count = int(count)
        if count < 0:
            raise BXSAEncodeError(f"array item count must be >= 0, got {count}")
        emitter = self._content()
        emitter.array_head(
            _qname(name), _namespace_nodes(namespaces), _attribute_nodes(attributes),
            code, item_name, count,
        )  # fmt: skip
        nbytes = count * code.size
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
            emitter.emit(payload if self._sink is not None else bytes(payload))
        if written != nbytes:
            raise BXSAEncodeError(
                f"array_blocks promised {count} items ({nbytes} bytes) but "
                f"received {written} payload bytes"
            )
        return self

    @_production
    def text(self, content: str) -> "BXSAStreamWriter":
        self._content().text(content)
        return self

    @_production
    def comment(self, content: str) -> "BXSAStreamWriter":
        self._content().comment(content)
        return self

    @_production
    def pi(self, target: str, data: str = "") -> "BXSAStreamWriter":
        self._content().pi(target, data)
        return self

    @_production
    def _subtrees(self, nodes) -> None:
        emitter = self._content()
        for node in nodes:
            walk_tree(node, emitter)


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
    writer._subtrees(document.children)
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
