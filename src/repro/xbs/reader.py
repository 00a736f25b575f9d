"""Streaming XBS reader.

The reader mirrors :class:`~repro.xbs.writer.XBSWriter` byte for byte: it
tracks the same stream-relative alignment rule and exposes zero-copy numpy
views over packed array payloads, which is the Python analogue of the paper's
memory-mapped ArrayElement I/O.
"""

from __future__ import annotations

import numpy as np

from repro.xbs.constants import (
    _ENDIAN_CHAR,
    NATIVE_ENDIAN,
    TypeCode,
    dtype_for,
)
from repro.xbs.errors import XBSDecodeError
from repro.xbs.structcache import struct_for, struct_for_run
from repro.xbs.varint import decode_vls


class XBSReader:
    """Consume an XBS byte stream produced by :class:`XBSWriter`.

    Parameters
    ----------
    data:
        The encoded bytes.  A ``memoryview`` is taken, so slices handed out
        by :meth:`read_array` alias the caller's buffer rather than copying.
    byte_order:
        Must match the writer's byte order.  (BXSA records the order in each
        frame's Common Frame Prefix and constructs readers accordingly.)
    align:
        Must match the writer's alignment setting.
    base:
        Stream offset of ``data[0]`` relative to the alignment origin.  BXSA
        decodes frames from the middle of documents, so it passes the frame
        payload's absolute offset here to keep alignment arithmetic correct.
    """

    def __init__(
        self,
        data,
        byte_order: int = NATIVE_ENDIAN,
        *,
        align: bool = True,
        base: int = 0,
    ) -> None:
        if byte_order not in (0, 1):
            raise XBSDecodeError(f"invalid byte order {byte_order!r}")
        self._data = memoryview(data)
        self.byte_order = byte_order
        self.align_enabled = align
        self._base = base
        self._pos = 0
        self._endian_char = _ENDIAN_CHAR[byte_order]

    # ------------------------------------------------------------------
    # positioning

    def tell(self) -> int:
        """Current read offset within ``data`` (not including ``base``)."""
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def seek(self, pos: int) -> None:
        if not 0 <= pos <= len(self._data):
            raise XBSDecodeError(f"seek to {pos} outside stream of {len(self._data)} bytes")
        self._pos = pos

    def skip(self, nbytes: int) -> None:
        self._require(nbytes)
        self._pos += nbytes

    def align(self, size: int) -> None:
        """Skip the pad bytes the writer inserted before a ``size``-aligned value."""
        if not self.align_enabled or size <= 1:
            return
        rem = (self._base + self._pos) % size
        if rem:
            self.skip(size - rem)

    def _require(self, nbytes: int) -> None:
        if self._pos + nbytes > len(self._data):
            raise XBSDecodeError(
                f"truncated stream: need {nbytes} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )

    # ------------------------------------------------------------------
    # scalar reads

    def read_scalar(self, code: TypeCode):
        """Read one scalar of the given type code as a Python int/float/str."""
        code = TypeCode(code)
        if code is TypeCode.STRING:
            return self.read_string()
        self.align(code.size)
        self._require(code.size)
        (value,) = struct_for(self.byte_order, code).unpack_from(self._data, self._pos)
        self._pos += code.size
        if code is TypeCode.BOOL:
            return bool(value)
        return value

    def read_scalars(self, code: TypeCode, count: int) -> tuple:
        """Read a homogeneous run written by :meth:`XBSWriter.write_scalars`.

        One bulk ``unpack_from`` over a zero-copy view of the stream; the
        result is a tuple of Python scalars in stream order.  Alignment is
        consumed once up front, mirroring the writer's single align.
        """
        code = TypeCode(code)
        if code is TypeCode.STRING:
            raise XBSDecodeError("read_scalars cannot read STRING runs")
        if count < 0:
            raise XBSDecodeError(f"negative run count {count}")
        if count == 0:
            return ()
        self.align(code.size)
        run = struct_for_run(self.byte_order, code, count)
        self._require(run.size)
        values = run.unpack_from(self._data, self._pos)
        self._pos += run.size
        if code is TypeCode.BOOL:
            return tuple([bool(v) for v in values])
        return values

    def read_int8(self) -> int:
        return self.read_scalar(TypeCode.INT8)

    def read_int16(self) -> int:
        return self.read_scalar(TypeCode.INT16)

    def read_int32(self) -> int:
        return self.read_scalar(TypeCode.INT32)

    def read_int64(self) -> int:
        return self.read_scalar(TypeCode.INT64)

    def read_uint8(self) -> int:
        return self.read_scalar(TypeCode.UINT8)

    def read_uint16(self) -> int:
        return self.read_scalar(TypeCode.UINT16)

    def read_uint32(self) -> int:
        return self.read_scalar(TypeCode.UINT32)

    def read_uint64(self) -> int:
        return self.read_scalar(TypeCode.UINT64)

    def read_float32(self) -> float:
        return self.read_scalar(TypeCode.FLOAT32)

    def read_float64(self) -> float:
        return self.read_scalar(TypeCode.FLOAT64)

    # ------------------------------------------------------------------
    # variable-size reads

    def read_vls(self) -> int:
        value, new_pos = decode_vls(self._data, self._pos)
        self._pos = new_pos
        return value

    def read_bytes(self, nbytes: int) -> memoryview:
        """Return a zero-copy view of the next ``nbytes`` bytes."""
        self._require(nbytes)
        view = self._data[self._pos : self._pos + nbytes]
        self._pos += nbytes
        return view

    def read_string(self) -> str:
        nbytes = self.read_vls()
        raw = self.read_bytes(nbytes)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise XBSDecodeError(f"invalid UTF-8 in string payload: {exc}") from exc

    # ------------------------------------------------------------------
    # array reads

    def read_scalars_into(self, code: TypeCode, out: np.ndarray) -> np.ndarray:
        """Read a homogeneous run into the preallocated array ``out``.

        The bulk counterpart of :meth:`read_scalars` for numeric consumers:
        one vectorized copy from the stream into a caller-owned buffer
        (native order, any dtype numpy can safely cast the wire values to),
        no per-element Python objects.  ``out.size`` determines the run
        length.  Returns ``out``.
        """
        code = TypeCode(code)
        if code is TypeCode.STRING:
            raise XBSDecodeError("read_scalars_into cannot read STRING runs")
        if out.ndim != 1:
            raise XBSDecodeError(f"read_scalars_into needs a 1-D target, got {out.ndim}-D")
        count = out.size
        if count == 0:
            return out
        self.align(code.size)
        nbytes = count * code.size
        raw = self.read_bytes(nbytes)
        wire = np.frombuffer(raw, dtype=dtype_for(code, self.byte_order), count=count)
        if code is TypeCode.BOOL:
            wire = wire.view(np.bool_)
        np.copyto(out, wire, casting="same_kind")
        return out

    def read_array(self, code: TypeCode, *, copy: bool = False) -> np.ndarray:
        """Read a packed 1-D array written by :meth:`XBSWriter.write_array`.

        Returns a numpy array in the *stream's* byte order.  By default the
        array is a zero-copy view of the underlying buffer (read-only when
        the buffer is); pass ``copy=True`` for an independent native-order
        copy.

        ``BOOL`` runs come back as ``np.bool_`` (a zero-copy reinterpretation
        of the wire bytes), so any nonzero byte — including the >1 values a
        hostile peer may write — compares equal to ``True``, exactly as the
        scalar :meth:`read_scalars` path canonicalizes them.
        """
        code = TypeCode(code)
        if code is TypeCode.STRING:
            raise XBSDecodeError("arrays of strings are not supported by XBS")
        count = self.read_vls()
        self.align(code.size)
        nbytes = count * code.size
        raw = self.read_bytes(nbytes)
        dtype = dtype_for(code, self.byte_order)
        arr = np.frombuffer(raw, dtype=dtype, count=count)
        if code is TypeCode.BOOL:
            # view, not astype: still zero-copy, and numpy's bool_ treats
            # every nonzero byte as True — element-equal to the scalar path
            return arr.astype(np.bool_) if copy else arr.view(np.bool_)
        if copy:
            return arr.astype(dtype.newbyteorder("="), copy=True)
        return arr
