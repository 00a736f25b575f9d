"""Streaming XBS writer.

The writer appends primitives to a growable buffer.  Multi-byte numbers are
aligned to a multiple of their own size, measured from the start of the
stream, by inserting zero pad bytes; this is what lets BXSA array frames be
consumed with zero-copy ``memoryview`` slices (and, in the paper's C++
implementation, memory-mapped file I/O).

Array payloads always travel through numpy's bulk ``tobytes``/byteswap path —
never a per-element Python loop — per the packed-array idiom the paper's
ArrayElement is designed around.
"""

from __future__ import annotations

import numpy as np

from repro.xbs.constants import (
    _ENDIAN_CHAR,
    NATIVE_ENDIAN,
    TypeCode,
    dtype_for,
    type_code_for_dtype,
)
from repro.xbs.errors import XBSEncodeError
from repro.xbs.structcache import STRUCT_FMT, struct_for, struct_for_run
from repro.xbs.varint import encode_vls

_INT_RANGES = {
    TypeCode.INT8: (-(2**7), 2**7 - 1),
    TypeCode.INT16: (-(2**15), 2**15 - 1),
    TypeCode.INT32: (-(2**31), 2**31 - 1),
    TypeCode.INT64: (-(2**63), 2**63 - 1),
    TypeCode.UINT8: (0, 2**8 - 1),
    TypeCode.UINT16: (0, 2**16 - 1),
    TypeCode.UINT32: (0, 2**32 - 1),
    TypeCode.UINT64: (0, 2**64 - 1),
}

#: Legacy alias; the format table now lives in :mod:`repro.xbs.structcache`.
_STRUCT_FMT = STRUCT_FMT


class XBSWriter:
    """Accumulate an XBS byte stream.

    Parameters
    ----------
    byte_order:
        ``LITTLE_ENDIAN`` or ``BIG_ENDIAN``; defaults to the host order so
        the common case is a straight memory copy.
    align:
        When ``True`` (the default, matching the XBS spec) each multi-byte
        number is padded to a multiple of its size relative to stream start.
        BXSA turns this off for frame-header fields, which are byte-packed.
    buffer:
        Optional ``bytearray`` to accumulate into.  Passing a pooled buffer
        (cleared via :meth:`reset`) lets a long-lived producer amortize the
        allocation across messages; the writer takes ownership while active.
    """

    def __init__(
        self,
        byte_order: int = NATIVE_ENDIAN,
        *,
        align: bool = True,
        buffer: bytearray | None = None,
    ) -> None:
        if byte_order not in (0, 1):
            raise XBSEncodeError(f"invalid byte order {byte_order!r}")
        self.byte_order = byte_order
        self.align_enabled = align
        self._buf = buffer if buffer is not None else bytearray()
        self._endian_char = _ENDIAN_CHAR[byte_order]

    def reset(self) -> None:
        """Clear the accumulated stream, keeping the underlying buffer.

        ``bytearray`` keeps (a fraction of) its allocation across clears, so
        a pooled writer re-used per message skips most of the regrow cost.
        """
        del self._buf[:]

    # ------------------------------------------------------------------
    # positioning

    def tell(self) -> int:
        """Current stream length in bytes."""
        return len(self._buf)

    def align(self, size: int) -> int:
        """Pad with zero bytes to the next multiple of ``size``.

        Returns the number of pad bytes inserted.  No-op when alignment is
        disabled or the stream is already aligned.
        """
        if not self.align_enabled or size <= 1:
            return 0
        rem = len(self._buf) % size
        if rem == 0:
            return 0
        pad = size - rem
        self._buf.extend(b"\x00" * pad)
        return pad

    # ------------------------------------------------------------------
    # scalar writes

    def write_scalar(self, code: TypeCode, value) -> None:
        """Write one scalar of the given type code, with range checking."""
        code = TypeCode(code)
        if code is TypeCode.STRING:
            self.write_string(value)
            return
        if code in _INT_RANGES:
            value = int(value)
            lo, hi = _INT_RANGES[code]
            if not lo <= value <= hi:
                raise XBSEncodeError(f"{value} out of range for {code.name}")
        elif code is TypeCode.BOOL:
            value = 1 if value else 0
        else:
            value = float(value)
        self.align(code.size)
        self._buf.extend(struct_for(self.byte_order, code).pack(value))

    def write_scalars(self, code: TypeCode, values) -> None:
        """Write a homogeneous run of scalars with one bulk ``pack_into``.

        Byte-identical to calling :meth:`write_scalar` once per value: the
        stream is aligned once up front, and since every item is exactly
        ``code.size`` bytes the per-item alignment of the scalar path is a
        no-op after the first item.  The values are range-checked/coerced
        with the same rules as :meth:`write_scalar`.
        """
        code = TypeCode(code)
        if code is TypeCode.STRING:
            raise XBSEncodeError("write_scalars cannot write STRING runs")
        values = list(values)
        if not values:
            return
        if code in _INT_RANGES:
            lo, hi = _INT_RANGES[code]
            values = [int(v) for v in values]
            for v in values:
                if not lo <= v <= hi:
                    raise XBSEncodeError(f"{v} out of range for {code.name}")
        elif code is TypeCode.BOOL:
            values = [1 if v else 0 for v in values]
        else:
            values = [float(v) for v in values]
        self.align(code.size)
        buf = self._buf
        offset = len(buf)
        run = struct_for_run(self.byte_order, code, len(values))
        buf.extend(bytes(run.size))
        run.pack_into(buf, offset, *values)

    def write_int8(self, value: int) -> None:
        self.write_scalar(TypeCode.INT8, value)

    def write_int16(self, value: int) -> None:
        self.write_scalar(TypeCode.INT16, value)

    def write_int32(self, value: int) -> None:
        self.write_scalar(TypeCode.INT32, value)

    def write_int64(self, value: int) -> None:
        self.write_scalar(TypeCode.INT64, value)

    def write_uint8(self, value: int) -> None:
        self.write_scalar(TypeCode.UINT8, value)

    def write_uint16(self, value: int) -> None:
        self.write_scalar(TypeCode.UINT16, value)

    def write_uint32(self, value: int) -> None:
        self.write_scalar(TypeCode.UINT32, value)

    def write_uint64(self, value: int) -> None:
        self.write_scalar(TypeCode.UINT64, value)

    def write_float32(self, value: float) -> None:
        self.write_scalar(TypeCode.FLOAT32, value)

    def write_float64(self, value: float) -> None:
        self.write_scalar(TypeCode.FLOAT64, value)

    # ------------------------------------------------------------------
    # variable-size writes (never aligned)

    def write_vls(self, value: int) -> None:
        """Write a variable-length size integer (unaligned by design)."""
        self._buf.extend(encode_vls(value))

    def write_bytes(self, data: bytes | bytearray | memoryview) -> None:
        """Write raw bytes verbatim, without a length prefix or padding."""
        self._buf.extend(data)

    def write_string(self, text: str) -> None:
        """Write a UTF-8 string as a VLS byte count followed by the bytes."""
        raw = text.encode("utf-8")
        self.write_vls(len(raw))
        self._buf.extend(raw)

    # ------------------------------------------------------------------
    # array writes

    def write_array(self, values: np.ndarray, code: TypeCode | None = None) -> None:
        """Write a packed 1-D array: VLS element count, pad, then raw items.

        ``values`` must be one-dimensional.  When ``code`` is omitted it is
        derived from the array dtype.  The payload is byte-swapped in bulk if
        the writer's byte order differs from the array's.
        """
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise XBSEncodeError(f"XBS arrays are one-dimensional, got shape {arr.shape}")
        if code is None:
            code = type_code_for_dtype(arr.dtype)
        code = TypeCode(code)
        if code is TypeCode.STRING:
            raise XBSEncodeError("arrays of strings are not supported by XBS")
        target = dtype_for(code, self.byte_order)
        arr = np.ascontiguousarray(arr, dtype=target)
        self.write_vls(arr.size)
        self.align(code.size)
        self._buf.extend(arr.tobytes())

    # ------------------------------------------------------------------
    # output

    def getvalue(self) -> bytes:
        """Return the accumulated stream as an immutable byte string."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)
