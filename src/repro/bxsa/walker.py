"""The one BXSA frame walker: a resumable parser driving a handler protocol.

§4.1 of the paper defines BXSA as *one* frame grammar — Common Frame Prefix +
Size, element header, seven frame bodies (:mod:`repro.bxsa.constants`).
:class:`FrameWalker` is the only decode-side code that dispatches on
:class:`~repro.bxsa.constants.FrameType` and the only element-header reader.
It owns prefix + Size reading, the container stack of both profiles, the
namespace scope stack, every Size check and the need-more-bytes resumption;
what gets *built* is the consumer's business, expressed as a handler with one
method per grammar production::

    start_document()                      end_document()
    start_element(name, attrs, table)     end_element(name)
    leaf(name, attrs, table, value, atype)
    array(name, attrs, table, values, atype, item_name)
    array_begin(name, attrs, table, atype, item_name, count)
    array_chunk(values, item_offset)      array_end()
    text(content)    comment(content)     pi(target, data)

``name`` is a resolved :class:`~repro.xdm.qname.QName`, ``attrs`` a list of
:class:`~repro.xdm.nodes.AttributeNode`, ``table`` the frame's ordered
``(prefix, uri)`` declarations, ``values`` a numpy view over the wire bytes
(frame byte order).  The ``array_begin/chunk/end`` triple replaces ``array``
only for payloads of at least ``array_chunk_threshold`` bytes.

Consumers: the tree decoder (:mod:`repro.bxsa.decoder`), the pull reader and
the incremental decoder (:mod:`repro.bxsa.stream`), the decode-plan compiler
(:mod:`repro.bxsa.decodeplan`).  The skip-based scanner and plan replay do
not parse and do not come through here.

The walker validates the wire grammar, not node validity: content only a
node constructor rejects (``--`` in a comment) reaches the handler, and it is
the tree-building handler that turns ``XDMError`` into ``BXSADecodeError``.
"""

from __future__ import annotations

import numpy as np

from repro.bxsa.constants import FrameType, unpack_prefix_byte
from repro.bxsa.errors import BXSADecodeError
from repro.bxsa.frames import (
    read_name_ref,
    read_namespace_table,
    read_scalar_value,
    read_string,
    read_type_code,
    read_vls,
)
from repro.bxsa.namespaces import ScopeStack
from repro.xbs.constants import TypeCode
from repro.xbs.errors import XBSDecodeError
from repro.xbs.structcache import wire_dtype
from repro.xbs.varint import _MAX_VLS_BYTES, decode_vls
from repro.xdm.errors import XDMError
from repro.xdm.nodes import AttributeNode
from repro.xdm.qname import QName
from repro.xdm.types import atomic_type_for_code


class _NeedMore(Exception):
    """Internal: the current frame cannot complete with the bytes buffered."""


# container-stack entry kinds (standard kinds sort below streamed ones)
_STD_DOC, _STD_ELEM, _S_DOC, _S_ELEM = 0, 1, 2, 3


def _vls_failure(data, pos: int, exc: XBSDecodeError) -> Exception:
    """Why ``decode_vls(data, pos)`` failed: cut short by the end of the
    buffer (more bytes can still complete it), or malformed."""
    tail = data[pos : pos + _MAX_VLS_BYTES]
    if len(tail) < _MAX_VLS_BYTES and all(byte & 0x80 for byte in tail):
        return _NeedMore()
    return BXSADecodeError(str(exc))


def _size_mismatch(pos: int, end: int) -> BXSADecodeError:
    return BXSADecodeError(f"frame size mismatch: content ends at {pos}, Size field says {end}")


def _truncated(data, pos: int) -> BXSADecodeError:
    return BXSADecodeError(
        f"truncated frame at offset {pos}: it needs more than the "
        f"{max(len(data) - pos, 0)} bytes that remain"
    )


class FrameWalker:
    """Walk one top-level BXSA frame (usually a document), calling ``handler``.

    Two ways to drive it, both over the same parser:

    * a *complete* buffer — :meth:`step` parses the frame at an offset and
      returns the offset of the next one, :meth:`walk` steps until the
      top-level frame closed (:attr:`done`); running out of bytes is an error;
    * an *arriving* byte stream — :meth:`feed` takes the pieces however they
      were split and :meth:`close` asserts the stream ended on a document
      boundary.  A frame that straddles pieces is buffered (bounded by the
      frame head size plus one feed), array views are zero-copy over the
      caller's piece whenever the frame did not straddle, and arrays of at
      least ``array_chunk_threshold`` payload bytes are never buffered at all.

    ``streamed_profile`` admits the ``STREAM_*`` container frames of the
    sink-driven writer.  ``outer_tables`` seeds the scope stack for a frame
    extracted from mid-document.  ``string_cache`` / ``qname_cache`` are the
    session's intern tables; they apply to *names* only, never to values.

    With ``record_spans`` (complete buffers only) the walker also reports
    where the value-dependent bytes sit, which is what the plan compiler
    partitions the stream by: before each production :attr:`holes` lists the
    current frame's ``(start, end)`` value spans in wire order — the Size
    field, each attribute value, then an atom frame's payload through the
    frame end — and :attr:`byte_order` is the frame's; during ``end_element``
    / ``end_document`` :attr:`offset` is where the closing container ends.
    Every other byte of the frame is structural.
    """

    def __init__(
        self,
        handler,
        *,
        streamed_profile: bool = False,
        array_chunk_threshold: int | None = None,
        outer_tables=(),
        string_cache: dict[bytes, str] | None = None,
        qname_cache: dict[tuple, QName] | None = None,
        record_spans: bool = False,
    ) -> None:
        self.handler = handler
        #: True once a complete document (or bare top-level frame) ended.
        self.done = False
        self.holes: list[tuple[int, int]] | None = [] if record_spans else None
        self.byte_order = 0
        self.offset = 0
        self._streamed = streamed_profile
        self._threshold = array_chunk_threshold
        self._scopes = ScopeStack()
        for table in outer_tables:
            self._scopes.push(list(table))
        self._strings = string_cache
        self._qnames = qname_cache
        # entries: [kind, name, end_abs|None, children remaining|seen]
        self._stack: list[list] = []
        self._array: dict | None = None  # the chunked array being delivered
        self._buf = bytearray()  # a straddling frame's bytes so far
        self._abs = 0  # absolute stream offset of the next unconsumed byte

    # -- complete buffers -----------------------------------------------

    def step(self, data, pos: int) -> int:
        """Parse the one frame at ``data[pos]``; returns the next offset."""
        try:
            return self._frame(data, pos, 0, True)
        except _NeedMore:
            raise _truncated(data, pos) from None

    def walk(self, data, pos: int = 0) -> int:
        """Parse the whole top-level frame at ``pos``; returns its end."""
        try:
            while not self.done:
                pos = self._frame(data, pos, 0, True)
        except _NeedMore:
            raise _truncated(data, pos) from None
        return pos

    # -- arriving byte streams ------------------------------------------

    def feed(self, data) -> None:
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        buf = self._buf
        if buf:
            # a frame straddles the previous piece: reassemble it, and parse
            # this piece from the copy as well (arrays in it are copied out)
            buf += view
            pos = self._parse(buf, zero_copy=False)
            del buf[:pos]
        else:
            pos = self._parse(view, zero_copy=True)
            buf += view[pos:]
        self._abs += pos

    def close(self) -> None:
        """Assert the stream ended exactly at a document boundary."""
        if self._array is not None:
            raise BXSADecodeError("stream ended inside an array payload")
        if self._buf:
            raise BXSADecodeError(f"stream ended with a truncated frame at offset {self._abs}")
        if self._stack:
            raise BXSADecodeError(
                f"stream ended with {len(self._stack)} container frame(s) still open"
            )
        if not self.done:
            raise BXSADecodeError("stream ended before any document content")

    def _parse(self, data, zero_copy: bool) -> int:
        """Consume as much of ``data`` (which starts at stream offset
        ``self._abs``) as is complete; returns how many bytes that was."""
        base = self._abs
        n = len(data)
        pos = 0
        while pos < n:
            if self.done:
                raise BXSADecodeError(f"{n - pos} byte(s) past the end of the document")
            if self._array is not None:
                pos = self._consume_array(data, pos, zero_copy)
                continue
            try:
                pos = self._frame(data, pos, base, zero_copy)
            except _NeedMore:
                break
        return pos

    # -- the grammar ----------------------------------------------------

    def _header(self, data, pos: int, byte_order: int):
        """Element header → ``(QName, [AttributeNode], table, new pos)``.

        Touches no walker state: the frame's own table resolves depth-1
        references without being pushed, so a header cut short by the end
        of the buffer is simply reparsed when more bytes arrive.  A
        container frame pushes ``table`` for its children once its head is
        complete.
        """
        strings = self._strings
        table, pos = read_namespace_table(data, pos, strings)
        depth, index, pos = read_name_ref(data, pos)
        local, pos = read_string(data, pos, strings)
        name = self._qname(local, depth, index, table)
        n2, pos = read_vls(data, pos)
        attrs: list[AttributeNode] = []
        for _ in range(n2):
            depth, index, pos = read_name_ref(data, pos)
            local, pos = read_string(data, pos, strings)
            code, pos = read_type_code(data, pos)
            value, end = read_scalar_value(data, pos, code, byte_order)
            if self.holes is not None:
                self.holes.append((pos, end))
            qname = self._qname(local, depth, index, table)
            try:
                attrs.append(AttributeNode(qname, value, atomic_type_for_code(code)))
            except XDMError as exc:
                raise BXSADecodeError(str(exc)) from exc
            pos = end
        return name, attrs, table, pos

    def _qname(self, local: str, depth: int, index: int, table) -> QName:
        if depth == 0:
            uri = prefix = ""
        else:
            prefix, uri = self._scopes.resolve(depth, index, table)
        cache = self._qnames
        if cache is None:
            return QName(local, uri, prefix)
        key = (local, uri, prefix)
        name = cache.get(key)
        if name is None:
            name = cache[key] = QName(local, uri, prefix)
        return name

    def _frame(self, data, pos: int, base: int, zero_copy: bool) -> int:
        """Parse the frame at ``data[pos]`` (absolute offset ``base + pos``),
        report its production(s) and return the offset to continue at."""
        n = len(data)
        if pos >= n:
            raise _NeedMore
        byte_order, frame_type = unpack_prefix_byte(data[pos])
        try:
            size, body = decode_vls(data, pos + 1)
        except XBSDecodeError as exc:
            raise _vls_failure(data, pos + 1, exc) from None
        frame_end = body + size
        top = self._stack[-1] if self._stack else None
        if top is not None and top[2] is not None and base + frame_end > top[2]:
            # a child whose Size reaches past its container would hand the
            # consumer bytes belonging to the *next* frame; provable from
            # the prefix alone — fail now, before any event for the frame
            raise BXSADecodeError(
                f"frame at offset {base + pos} ends at {base + frame_end}, "
                f"overrunning its enclosing frame's end {top[2]}"
            )
        holes = self.holes
        if holes is not None:  # offsets into the one complete buffer: base is 0
            self.byte_order = byte_order
            holes[:] = [(pos + 1, body)]
        handler = self.handler

        if frame_type is FrameType.DOCUMENT:
            try:
                count, p = decode_vls(data, body)
            except XBSDecodeError as exc:
                raise _vls_failure(data, body, exc) from None
            handler.start_document()
            self._open(_STD_DOC, None, base + frame_end, count, base + p)
            return p

        if frame_type is FrameType.COMPONENT_ELEMENT:
            try:
                name, attrs, table, p = self._header(data, body, byte_order)
                count, p = read_vls(data, p)
            except BXSADecodeError:
                if frame_end <= n:
                    raise
                raise _NeedMore from None
            self._scopes.push(table)
            handler.start_element(name, attrs, table)
            self._open(_STD_ELEM, name, base + frame_end, count, base + p)
            return p

        if frame_type is FrameType.ARRAY_ELEMENT:
            return self._array_frame(data, body, frame_end, base, byte_order, zero_copy)

        # the remaining frame types are small and forward-length: parse
        # only once every byte the frame claims has arrived
        if frame_end > n:
            raise _NeedMore

        if frame_type is FrameType.LEAF_ELEMENT:
            name, attrs, table, p = self._header(data, body, byte_order)
            code, start = read_type_code(data, p)
            value, end = read_scalar_value(data, start, code, byte_order)
            report = handler.leaf
            args = (name, attrs, table, value, atomic_type_for_code(code))
        elif frame_type is FrameType.CHARACTER_DATA or frame_type is FrameType.COMMENT:
            start = body
            content, end = read_string(data, body)
            report = handler.comment if frame_type is FrameType.COMMENT else handler.text
            args = (content,)
        elif frame_type is FrameType.PI:
            target, start = read_string(data, body)
            content, end = read_string(data, start)
            report = handler.pi
            args = (target, content)
        else:
            return self._stream_frame(frame_type, data, body, frame_end, base, byte_order)
        # one check for every atom frame: content must end where Size says
        if end != frame_end:
            raise _size_mismatch(base + end, base + frame_end)
        if holes is not None:
            holes.append((start, frame_end))
        report(*args)
        self._child_done(base + frame_end)
        return frame_end

    def _stream_frame(
        self, frame_type, data, body: int, frame_end: int, base: int, byte_order: int
    ) -> int:
        """The streamed container profile (a complete ``STREAM_*`` frame)."""
        if not self._streamed:
            raise BXSADecodeError(
                f"streamed-profile frame {frame_type.name} in a whole-buffer "
                "decoder (the tree decoder or the pull reader); feed this byte "
                "stream to repro.bxsa.stream.StreamDecoder"
            )
        top = self._stack[-1] if self._stack else None
        if frame_type is FrameType.STREAM_END:
            count, end = read_vls(data, body)
            if end != frame_end:
                raise _size_mismatch(base + end, base + frame_end)
            if top is None or top[0] < _S_DOC:
                raise BXSADecodeError("STREAM_END with no open streamed container")
            if count != top[3]:
                raise BXSADecodeError(
                    f"STREAM_END child count {count} does not match the {top[3]} children seen"
                )
            self._close(base + frame_end)
            self._child_done(base + frame_end)
            return frame_end
        if top is not None and top[0] < _S_DOC:
            raise BXSADecodeError("streamed-profile frame inside a standard container frame")
        if frame_type is FrameType.STREAM_DOCUMENT:
            if body != frame_end:
                raise BXSADecodeError("STREAM_DOCUMENT frame carries a non-empty body")
            self.handler.start_document()
            self._stack.append([_S_DOC, None, None, 0])
        else:
            name, attrs, table, end = self._header(data, body, byte_order)
            if end != frame_end:
                raise BXSADecodeError("STREAM_ELEMENT frame size does not match its header")
            self._scopes.push(table)
            self.handler.start_element(name, attrs, table)
            self._stack.append([_S_ELEM, name, None, 0])
        return frame_end

    def _array_frame(
        self, data, body: int, frame_end: int, base: int, byte_order: int, zero_copy: bool
    ) -> int:
        n = len(data)
        try:
            name, attrs, table, p = self._header(data, body, byte_order)
            code, p = read_type_code(data, p)
            if code is TypeCode.STRING:
                raise BXSADecodeError("array frames cannot hold strings")
            item_name, value_start = read_string(data, p)
            count, p = read_vls(data, value_start)
            # the pad byte must live inside *this* frame: validating against
            # len(data) alone would read the next frame's bytes when the
            # Size field was truncated
            if p >= frame_end or p >= n:
                raise BXSADecodeError(f"truncated array frame at offset {base + p}")
            p += 1 + data[p]
            if p > n:  # the pad bytes themselves have not arrived yet
                raise BXSADecodeError(f"truncated array frame at offset {base + n}")
            nbytes = count * code.size
            if p + nbytes > frame_end:
                raise BXSADecodeError(
                    f"array payload of {nbytes} bytes overruns its frame's end "
                    f"{base + frame_end}"
                )
        except BXSADecodeError:
            if frame_end <= n:
                raise
            raise _NeedMore from None
        if p + nbytes != frame_end:
            raise _size_mismatch(base + p + nbytes, base + frame_end)
        atype = atomic_type_for_code(code)
        dtype = wire_dtype(byte_order, code)
        if self._threshold is None or nbytes < self._threshold:
            if frame_end > n:
                raise _NeedMore
            raw = data[p:frame_end]
            if not zero_copy:
                raw = bytes(raw)  # the reassembly buffer is about to be recycled
            values = np.frombuffer(raw, dtype=dtype, count=count)
            if self.holes is not None:
                self.holes.append((value_start, frame_end))
            self.handler.array(name, attrs, table, values, atype, item_name or None)
            self._child_done(base + frame_end)
            return frame_end
        self.handler.array_begin(name, attrs, table, atype, item_name or None, count)
        self._array = {
            "dtype": dtype,
            "itemsize": code.size,
            "remaining": nbytes,
            "carry": bytearray(),  # a partial item split across pieces
            "item_offset": 0,
            "frame_end_abs": base + frame_end,
        }
        return p

    def _consume_array(self, data, pos: int, zero_copy: bool) -> int:
        """Deliver the open chunked array's payload bytes in ``data[pos:]``."""
        st = self._array
        n = len(data)
        itemsize = st["itemsize"]
        carry = st["carry"]
        while pos < n and st["remaining"] > 0:
            whole = 0 if carry else min(n - pos, st["remaining"]) // itemsize * itemsize
            if whole:  # whole items, straight off the piece
                take = whole
                raw = data[pos : pos + whole]
                if not zero_copy:
                    raw = bytes(raw)
            else:  # an item split across pieces: gather it until it is whole
                take = min(itemsize - len(carry), n - pos, st["remaining"])
                carry += data[pos : pos + take]
                raw = bytes(carry) if len(carry) == itemsize else None
            pos += take
            st["remaining"] -= take
            if raw is not None:
                values = np.frombuffer(raw, dtype=st["dtype"])
                self.handler.array_chunk(values, st["item_offset"])
                st["item_offset"] += len(values)
                carry.clear()
        if st["remaining"] == 0:
            self._array = None
            self.handler.array_end()
            self._child_done(st["frame_end_abs"])
        return pos

    # -- containers -----------------------------------------------------

    def _open(self, kind: int, name, end_abs: int, count: int, pos_abs: int) -> None:
        """A standard container's head ended at ``pos_abs``; await ``count``
        children, or close at once when it declares none."""
        self._stack.append([kind, name, end_abs, count])
        if count == 0:
            self._close(pos_abs)
            self._child_done(pos_abs)

    def _close(self, pos_abs: int) -> None:
        """Close the innermost container, whose content ended at ``pos_abs``."""
        kind, name, end_abs, _ = self._stack.pop()
        if end_abs is not None and pos_abs != end_abs:
            raise _size_mismatch(pos_abs, end_abs)
        self.offset = pos_abs
        if kind == _STD_ELEM or kind == _S_ELEM:
            self._scopes.pop()
            self.handler.end_element(name)
        else:
            self.handler.end_document()

    def _child_done(self, pos_abs: int) -> None:
        """A child frame completed at ``pos_abs``; update its container.

        Standard containers count down and close (strictly at their
        recorded end) when they reach zero, cascading upward; streamed
        containers count up and close only on their explicit STREAM_END.
        """
        stack = self._stack
        while stack:
            top = stack[-1]
            if top[0] >= _S_DOC:
                top[3] += 1
                return
            top[3] -= 1
            if top[3] > 0:
                return
            self._close(pos_abs)
        self.done = True
