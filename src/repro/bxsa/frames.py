"""Low-level BXSA frame primitives shared by the walker and the scanner.

These functions read the wire structures documented in
:mod:`repro.bxsa.constants` from a buffer + offset, returning
``(value, new_offset)`` pairs.  They are deliberately free of any tree
construction so the :class:`~repro.bxsa.scanner.FrameScanner` can *skip*
structures at the same speed :class:`~repro.bxsa.walker.FrameWalker`
*parses* them.  The ``read_name_ref`` / ``read_type_code`` /
``read_scalar_value`` readers have exactly one caller outside this module,
the walker's element-header reader (``tools/lint.py`` enforces it).
"""

from __future__ import annotations

from repro.bxsa.constants import FrameType, unpack_prefix_byte
from repro.bxsa.errors import BXSADecodeError
from repro.xbs.constants import TypeCode
from repro.xbs.errors import XBSDecodeError
from repro.xbs.structcache import struct_for
from repro.xbs.varint import decode_vls


def read_vls(data, pos: int) -> tuple[int, int]:
    try:
        return decode_vls(data, pos)
    except XBSDecodeError as exc:
        raise BXSADecodeError(str(exc)) from exc


def read_frame_prefix(data, pos: int) -> tuple[int, FrameType, int, int]:
    """Read the Common Frame Prefix.

    Returns ``(byte_order, frame_type, body_start, frame_end)``.
    """
    if pos >= len(data):
        raise BXSADecodeError(f"truncated frame prefix at offset {pos}")
    byte_order, frame_type = unpack_prefix_byte(data[pos])
    size, body_start = read_vls(data, pos + 1)
    frame_end = body_start + size
    if frame_end > len(data):
        raise BXSADecodeError(
            f"frame at offset {pos} claims {size} body bytes but only "
            f"{len(data) - body_start} remain"
        )
    return byte_order, frame_type, body_start, frame_end


def read_string(data, pos: int, cache: dict[bytes, str] | None = None) -> tuple[str, int]:
    """Read a VLS-length-prefixed UTF-8 string.

    ``cache`` is an intern table (raw UTF-8 → ``str``) for *name* positions
    (namespace prefixes/URIs, local names), which repeat heavily across
    same-shaped messages; value strings are read without one.
    """
    length, pos = read_vls(data, pos)
    end = pos + length
    if end > len(data):
        raise BXSADecodeError(f"truncated string at offset {pos}")
    try:
        if cache is None:
            return str(data[pos:end], "utf-8"), end
        raw = bytes(data[pos:end])
        text = cache.get(raw)
        if text is None:
            text = cache[raw] = raw.decode("utf-8")
        return text, end
    except UnicodeDecodeError as exc:
        raise BXSADecodeError(f"invalid UTF-8 at offset {pos}: {exc}") from exc


def skip_string(data, pos: int) -> int:
    length, pos = read_vls(data, pos)
    end = pos + length
    if end > len(data):
        raise BXSADecodeError(f"truncated string at offset {pos}")
    return end


_TYPE_CODES = {int(code): code for code in TypeCode}


def read_type_code(data, pos: int) -> tuple[TypeCode, int]:
    if pos >= len(data):
        raise BXSADecodeError(f"truncated type code at offset {pos}")
    try:
        return _TYPE_CODES[data[pos]], pos + 1
    except KeyError:
        raise BXSADecodeError(f"unknown type code 0x{data[pos]:02x} at offset {pos}") from None


def read_scalar_value(data, pos: int, code: TypeCode, byte_order: int):
    """Read one typed value (attribute or leaf payload).

    Returns ``(python_value, new_offset)``.
    """
    if code is TypeCode.STRING:
        return read_string(data, pos)
    size = code.size
    if pos + size > len(data):
        raise BXSADecodeError(f"truncated {code.name} value at offset {pos}")
    (value,) = struct_for(byte_order, code).unpack_from(data, pos)
    if code is TypeCode.BOOL:
        value = bool(value)
    return value, pos + size


def skip_scalar_value(data, pos: int, code: TypeCode) -> int:
    if code is TypeCode.STRING:
        return skip_string(data, pos)
    end = pos + code.size
    if end > len(data):
        raise BXSADecodeError(f"truncated {code.name} value at offset {pos}")
    return end


def read_name_ref(data, pos: int) -> tuple[int, int, int]:
    """Read a (scope depth, index) QName reference.

    Returns ``(depth, index, new_offset)`` with ``index == -1`` when the
    name is in no namespace (depth 0).
    """
    depth, pos = read_vls(data, pos)
    if depth == 0:
        return 0, -1, pos
    index, pos = read_vls(data, pos)
    return depth, index, pos


def skip_name_ref(data, pos: int) -> int:
    depth, pos = read_vls(data, pos)
    if depth:
        _, pos = read_vls(data, pos)
    return pos


def read_namespace_table(data, pos: int, cache: dict[bytes, str] | None = None):
    """Read an element header's namespace declaration table.

    Returns ``(table, new_offset)`` with ``table`` the ordered
    ``(prefix, uri)`` pairs, interned through ``cache`` when given.
    """
    n1, pos = read_vls(data, pos)
    table: list[tuple[str, str]] = []
    for _ in range(n1):
        prefix, pos = read_string(data, pos, cache)
        uri, pos = read_string(data, pos, cache)
        table.append((prefix, uri))
    return table, pos


def skip_namespace_table(data, pos: int) -> int:
    n1, pos = read_vls(data, pos)
    for _ in range(n1):
        pos = skip_string(data, pos)  # prefix
        pos = skip_string(data, pos)  # uri
    return pos


def skip_header_names(data, pos: int) -> int:
    """Skip the name part of an element header: the namespace declaration
    table, the QName reference and the local name — stopping just before
    the attribute count.

    This span contains no attribute or leaf *values*: for a fixed document
    shape its bytes are identical from message to message, which is what
    lets :mod:`repro.bxsa.decodeplan` use it as a cheap structural
    fingerprint of the byte stream.
    """
    pos = skip_name_ref(data, skip_namespace_table(data, pos))
    return skip_string(data, pos)  # local name


def skip_element_header(data, pos: int) -> int:
    """Skip a full element header (namespace table, name, attributes)."""
    pos = skip_header_names(data, pos)
    n2, pos = read_vls(data, pos)
    for _ in range(n2):
        pos = skip_name_ref(data, pos)
        pos = skip_string(data, pos)  # attribute local name
        code, pos = read_type_code(data, pos)
        pos = skip_scalar_value(data, pos, code)
    return pos
