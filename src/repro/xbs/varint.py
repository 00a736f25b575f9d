"""VLS: the variable-length size integers used by BXSA frame headers.

The paper stores frame sizes, string lengths, counts and namespace scope
depths "in a variable-length integer format".  We use the standard base-128
continuation encoding: each byte carries 7 payload bits, the high bit is set
on every byte except the last, and payload groups are little-endian (least
significant group first).  Values are unsigned; encoders must reject
negatives.

The encoding is *canonical*: a decoder rejects padded encodings such as
``0x80 0x00`` for zero, so a value has exactly one wire form.  This keeps the
frame ``Size`` field deterministic, which BXSA's accelerated sequential
access relies on.
"""

from __future__ import annotations

from repro.xbs.errors import XBSDecodeError, XBSEncodeError

#: Safety bound: 10 bytes encode up to 70 bits, more than any 64-bit size.
_MAX_VLS_BYTES = 10


def vls_length(value: int) -> int:
    """Number of bytes :func:`encode_vls` will produce for ``value``."""
    if value < 0:
        raise XBSEncodeError(f"VLS values are unsigned, got {value}")
    length = 1
    value >>= 7
    while value:
        length += 1
        value >>= 7
    return length


def encode_vls(value: int) -> bytes:
    """Encode an unsigned integer as a VLS byte string."""
    if value < 0:
        raise XBSEncodeError(f"VLS values are unsigned, got {value}")
    out = bytearray()
    while True:
        group = value & 0x7F
        value >>= 7
        if value:
            out.append(group | 0x80)
        else:
            out.append(group)
            return bytes(out)


def decode_vls(data, offset: int = 0) -> tuple[int, int]:
    """Decode a VLS integer from ``data`` starting at ``offset``.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past the
    last byte consumed.  Raises :class:`XBSDecodeError` on truncation,
    over-long input, or non-canonical (zero-padded) encodings.
    """
    n = len(data)
    if offset < n and data[offset] < 0x80:
        # one-byte values (most counts, depths and small frame sizes) skip
        # the general loop; the checks below cannot fire for them
        return data[offset], offset + 1
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= n:
            raise XBSDecodeError("truncated VLS integer")
        if pos - offset >= _MAX_VLS_BYTES:
            raise XBSDecodeError("VLS integer longer than 10 bytes")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and pos - offset > 1:
                raise XBSDecodeError("non-canonical VLS encoding (padded zero)")
            if value > 0xFFFFFFFFFFFFFFFF:
                # 10 bytes carry up to 70 payload bits; the frame-size
                # domain is unsigned 64-bit, so the excess must be rejected
                # rather than silently accepted as a >2^64 "size"
                raise XBSDecodeError(f"VLS value {value} exceeds the unsigned 64-bit range")
            return value, pos
        shift += 7
