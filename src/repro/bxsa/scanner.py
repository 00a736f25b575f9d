"""Accelerated sequential access over BXSA documents.

§4.1 of the paper: the ``Size`` field "enables the accelerated sequential
access ability, by which we can sequentially scan frames without fully
parsing all parts of the document".  :class:`FrameScanner` is that ability:
it walks frame boundaries (and, for container frames, their children) using
only prefixes, sizes and header skips — no tree is built, no array payload
is touched — and can hand any frame to the decoder on demand.

Typical use: pull the 3rd child of a SOAP Body out of a 64 MB message
without decoding its 64 MB sibling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bxsa.constants import FrameType
from repro.bxsa.errors import BXSADecodeError
from repro.bxsa.frames import (
    read_frame_prefix,
    read_namespace_table,
    read_string,
    read_vls,
    skip_element_header,
    skip_name_ref,
    skip_namespace_table,
)

#: Frame types whose body starts with an element header.
_ELEMENT_FRAMES = (
    FrameType.COMPONENT_ELEMENT,
    FrameType.LEAF_ELEMENT,
    FrameType.ARRAY_ELEMENT,
)


@dataclass(frozen=True, slots=True)
class FrameInfo:
    """Location and shape of one frame, discovered without decoding it."""

    frame_type: FrameType
    byte_order: int
    start: int  #: offset of the prefix byte
    body_start: int  #: offset just past the Size field
    end: int  #: offset just past the frame

    @property
    def size(self) -> int:
        """Declared body size in bytes."""
        return self.end - self.body_start

    @property
    def total_size(self) -> int:
        """Full frame size including prefix and Size field."""
        return self.end - self.start

    @property
    def is_container(self) -> bool:
        return self.frame_type in (FrameType.DOCUMENT, FrameType.COMPONENT_ELEMENT)


class FrameScanner:
    """Random/sequential access over the frames of one BXSA buffer."""

    def __init__(self, data) -> None:
        self.data = memoryview(data) if not isinstance(data, memoryview) else data

    # ------------------------------------------------------------------

    def frame_at(self, offset: int = 0) -> FrameInfo:
        """Inspect the frame starting at ``offset`` (prefix + size only)."""
        byte_order, frame_type, body_start, end = read_frame_prefix(self.data, offset)
        return FrameInfo(frame_type, byte_order, offset, body_start, end)

    def children(self, offset: int = 0) -> Iterator[FrameInfo]:
        """Iterate the direct child frames of a container frame.

        Each child costs O(header) — array payloads and nested subtrees are
        skipped via their Size fields.
        """
        info = self.frame_at(offset)
        count, pos = self._child_count(info)
        for _ in range(count):
            if pos >= info.end:
                raise BXSADecodeError(
                    f"container at {offset} declares more children than fit its size"
                )
            child = self.frame_at(pos)
            yield child
            pos = child.end
        if pos != info.end:
            raise BXSADecodeError(
                f"container at {offset}: children end at {pos}, Size says {info.end}"
            )

    def child(self, offset: int, index: int) -> FrameInfo:
        """The ``index``-th child frame, skipping (not decoding) the others."""
        for i, info in enumerate(self.children(offset)):
            if i == index:
                return info
        raise IndexError(f"container at {offset} has no child {index}")

    def child_count(self, offset: int = 0) -> int:
        """Number of direct children of a container, header-skip only."""
        return self._child_count(self.frame_at(offset))[0]

    def _child_count(self, info: FrameInfo) -> tuple[int, int]:
        """``(child count, offset of the first child)`` of a container."""
        if not info.is_container:
            raise BXSADecodeError(f"frame type {info.frame_type.name} has no child frames")
        pos = info.body_start
        if info.frame_type is FrameType.COMPONENT_ELEMENT:
            pos = skip_element_header(self.data, pos)
        return read_vls(self.data, pos)

    # ------------------------------------------------------------------

    def element_name(self, offset: int) -> str:
        """Local name of an element frame, without decoding attributes."""
        info = self.frame_at(offset)
        if info.frame_type not in _ELEMENT_FRAMES:
            raise BXSADecodeError(f"frame type {info.frame_type.name} has no name")
        pos = skip_name_ref(self.data, skip_namespace_table(self.data, info.body_start))
        local, _ = read_string(self.data, pos)
        return local

    def find_child_named(self, offset: int, local_name: str) -> FrameInfo | None:
        """First child element frame with the given local name."""
        for info in self.children(offset):
            if (
                info.frame_type in _ELEMENT_FRAMES
                and self.element_name(info.start) == local_name
            ):
                return info
        return None

    def iter_frames(self, offset: int = 0) -> Iterator[FrameInfo]:
        """Depth-first iteration over every frame in the subtree."""
        root = self.frame_at(offset)
        stack = [root]
        while stack:
            info = stack.pop()
            yield info
            if info.is_container:
                stack.extend(reversed(list(self.children(info.start))))

    def namespace_table(self, offset: int) -> list[tuple[str, str]]:
        """The namespace declarations of an element frame (empty for
        document/text/comment/PI frames)."""
        info = self.frame_at(offset)
        if info.frame_type not in _ELEMENT_FRAMES:
            return []
        table, _ = read_namespace_table(self.data, info.body_start)
        return table

    def walk_with_ancestors(
        self, offset: int = 0
    ) -> Iterator[tuple[FrameInfo, tuple[int, ...]]]:
        """Depth-first walk yielding ``(frame, ancestor_offsets)``.

        ``ancestor_offsets`` lists the enclosing *element* frames, outermost
        first — exactly what :meth:`decode_frame` needs to resolve QName
        references that reach outer namespace scopes.
        """
        root = self.frame_at(offset)
        stack: list[tuple[FrameInfo, tuple[int, ...]]] = [(root, ())]
        while stack:
            info, ancestry = stack.pop()
            yield info, ancestry
            if info.is_container:
                child_ancestry = ancestry
                if info.frame_type is FrameType.COMPONENT_ELEMENT:
                    child_ancestry = ancestry + (info.start,)
                stack.extend(
                    (child, child_ancestry)
                    for child in reversed(list(self.children(info.start)))
                )

    def decode_frame(self, offset: int, *, copy: bool = False, ancestors: tuple[int, ...] = ()):
        """Fully decode the frame at ``offset`` into a bXDM node.

        ``ancestors`` are the offsets of the enclosing element frames
        (outermost first), needed when the frame's QNames reference outer
        namespace scopes — :meth:`walk_with_ancestors` supplies them.
        """
        from repro.bxsa.decoder import BXSADecoder

        outer = [self.namespace_table(a) for a in ancestors]
        return BXSADecoder(self.data, offset, copy=copy, outer_tables=outer).read_node()
