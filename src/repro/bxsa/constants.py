"""BXSA wire-format constants and the exact frame layout.

Common Frame Prefix (paper Figure 2)::

    byte 0   bits 7..6  byte-order of everything in this frame
                        (00 = little endian, 01 = big endian)
             bits 5..0  frame type code (FrameType)
    bytes 1+ Size       VLS integer: number of body bytes that follow it

Because the prefix carries the byte order *per frame*, a frame encoded on a
big-endian host can be embedded verbatim inside a little-endian document —
the paper's rationale for not making endianness a document-level property.

Frame bodies:

``DOCUMENT``
    child count (VLS), then that many child frames back to back.

``COMPONENT_ELEMENT``
    element header (below), child count (VLS), then child frames.

``LEAF_ELEMENT``
    element header, value type code (u8 :class:`~repro.xbs.constants.TypeCode`),
    value (fixed-width scalar in frame byte order; STRING = VLS length + UTF-8).

``ARRAY_ELEMENT``
    element header, item type code (u8), item-name hint (VLS length + UTF-8,
    zero length = none — an extension this implementation adds so textual
    re-serialization keeps the original item element names), item count
    (VLS), pad length (u8) + that many zero bytes aligning the payload to
    the item size relative to the body start, then ``count×size`` raw item
    bytes in frame byte order.

``CHARACTER_DATA`` / ``COMMENT``
    VLS byte length + UTF-8 text.

``PI``
    target (VLS length + UTF-8), data (VLS length + UTF-8).

Streamed container profile (the three ``STREAM_*`` frame types)
---------------------------------------------------------------

The container frames above embed their children, so their ``Size`` field
cannot be written until every child is byte-complete — fine for a tree
encoder that back-patches in memory, fatal for a sink-driven writer that
must flush bytes it will never see again.  The streamed profile replaces
each container frame with a *pair* of small forward-length frames; child
frames appear between them **byte-identical** to the standard profile
(leaf, array, text, comment and PI frames are already forward-length):

``STREAM_DOCUMENT``
    empty body.  Opens a document whose children follow as sibling frames.

``STREAM_ELEMENT``
    element header (exactly the layout above).  Opens an element; its
    namespace table participates in scope-depth resolution exactly as a
    ``COMPONENT_ELEMENT`` table would.

``STREAM_END``
    child count (VLS).  Closes the innermost open streamed container; the
    count is an integrity check against the children actually seen, the
    role the embedded child count plays in the standard profile.

Only :class:`~repro.bxsa.stream.BXSAStreamWriter` (in sink mode) emits
this profile and only :class:`~repro.bxsa.stream.StreamDecoder` consumes
it; the tree decoder and the pull reader reject the ``STREAM_*`` codes with
a pointer at it, and the scanner does not treat them as containers.

Element header (shared by the three element frame types)::

    N1 (VLS)                      number of namespace declarations
    N1 × { prefix (VLS len + UTF-8), uri (VLS len + UTF-8) }
    element name reference:
        scope depth (VLS)         0 = element is in no namespace
        [table index (VLS)]       present only when depth > 0
    element local name (VLS len + UTF-8)
    N2 (VLS)                      number of attributes
    N2 × { scope depth (VLS), [table index (VLS)],
           attribute local name (VLS len + UTF-8),
           value type code (u8), value (scalar / string as for leaves) }

A *scope depth* of ``d ≥ 1`` refers to the namespace table of the element
frame ``d − 1`` levels above the current one (1 = this frame's own table,
2 = the parent element's, …), counting element frames only — the paper's
"count backwards to indicate where the namespace was declared".  The table
index selects the entry within that frame's declarations.  This tokenized
reference is what replaces prefixes on the wire (§4.1).
"""

from __future__ import annotations

import enum

from repro.bxsa.errors import BXSADecodeError


class FrameType(enum.IntEnum):
    """6-bit frame type codes (wire values; do not renumber)."""

    DOCUMENT = 0x01
    COMPONENT_ELEMENT = 0x02
    LEAF_ELEMENT = 0x03
    ARRAY_ELEMENT = 0x04
    CHARACTER_DATA = 0x05
    COMMENT = 0x06
    PI = 0x07
    # streamed container profile (sink-driven writer / incremental reader)
    STREAM_DOCUMENT = 0x08
    STREAM_ELEMENT = 0x09
    STREAM_END = 0x0A


def pack_prefix_byte(byte_order: int, frame_type: FrameType) -> int:
    """Combine the 2-bit byte order and 6-bit frame type into byte 0."""
    return ((byte_order & 0x03) << 6) | (int(frame_type) & 0x3F)


#: Every valid prefix byte, pre-split: the per-frame hot path is one lookup.
_PREFIX_BYTES = {
    pack_prefix_byte(byte_order, frame_type): (byte_order, frame_type)
    for byte_order in (0, 1)
    for frame_type in FrameType
}


def unpack_prefix_byte(value: int) -> tuple[int, FrameType]:
    """Split byte 0 into (byte_order, frame_type), validating both."""
    try:
        return _PREFIX_BYTES[value]
    except KeyError:
        pass
    byte_order = (value >> 6) & 0x03
    if byte_order not in (0, 1):
        raise BXSADecodeError(f"reserved byte-order value {byte_order} in frame prefix")
    raise BXSADecodeError(f"unknown frame type code 0x{value & 0x3F:02x}")
