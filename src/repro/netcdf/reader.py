"""Classic netCDF reader.

Parses CDF-1/CDF-2 headers and loads variable data as numpy arrays (one
bulk ``frombuffer`` + native-order conversion per variable).  Files with a
record (unlimited) dimension are rejected with a clear error — see the
package docstring.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.netcdf.errors import NetCDFFormatError
from repro.netcdf.format import (
    MAGIC,
    NC_ATTRIBUTE,
    NC_CHAR,
    NC_DIMENSION,
    NC_DTYPES,
    NC_VARIABLE,
    VERSION_64BIT,
    VERSION_CLASSIC,
    ZERO,
    element_size,
    padded,
)
from repro.netcdf.model import Dataset, Variable


def read_dataset(path) -> Dataset:
    """Read a classic netCDF file from disk."""
    with open(path, "rb") as fh:
        return read_dataset_bytes(fh.read())


def read_dataset_bytes(blob: bytes) -> Dataset:
    """Parse a classic netCDF byte stream."""
    return _Reader(blob).run()


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    # ------------------------------------------------------------------

    def run(self) -> Dataset:
        if len(self.blob) < 4:
            raise NetCDFFormatError(f"file of {len(self.blob)} bytes is too short")
        if self.blob[:3] != MAGIC:
            raise NetCDFFormatError(f"bad magic {self.blob[:3]!r}, not a netCDF file")
        version = self.blob[3]
        if version not in (VERSION_CLASSIC, VERSION_64BIT):
            raise NetCDFFormatError(
                f"unsupported netCDF version byte {version} (HDF5-based "
                f"netCDF-4 files are out of scope)"
            )
        self.pos = 4
        use_64bit = version == VERSION_64BIT

        numrecs = self._i4()
        ds = Dataset()
        dims = self._read_dim_list(ds)
        ds.attributes.update(self._read_att_list())
        self._read_var_list(ds, dims, numrecs, use_64bit)
        return ds

    # ------------------------------------------------------------------
    # primitives

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.blob):
            raise NetCDFFormatError(
                f"truncated file: need {n} bytes at offset {self.pos}"
            )

    def _i4(self) -> int:
        self._need(4)
        (value,) = struct.unpack_from(">i", self.blob, self.pos)
        self.pos += 4
        return value

    def _i8(self) -> int:
        self._need(8)
        (value,) = struct.unpack_from(">q", self.blob, self.pos)
        self.pos += 8
        return value

    def _name(self) -> str:
        length = self._i4()
        if length < 0:
            raise NetCDFFormatError(f"negative name length at offset {self.pos - 4}")
        self._need(padded(length))
        raw = self.blob[self.pos : self.pos + length]
        self.pos += padded(length)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise NetCDFFormatError(f"invalid UTF-8 name: {exc}") from exc

    def _tagged_count(self, expected_tag: int, what: str) -> int:
        tag = self._i4()
        count = self._i4()
        if tag == ZERO and count == 0:
            return 0
        if tag != expected_tag:
            raise NetCDFFormatError(f"bad {what} list tag 0x{tag:02x}")
        if count < 0:
            raise NetCDFFormatError(f"negative {what} count {count}")
        return count

    # ------------------------------------------------------------------
    # header sections

    def _read_dim_list(self, ds: Dataset) -> list[tuple[str, int]]:
        count = self._tagged_count(NC_DIMENSION, "dimension")
        dims: list[tuple[str, int]] = []
        for _ in range(count):
            name = self._name()
            length = self._i4()
            if length == 0:
                raise NetCDFFormatError(
                    "file uses the unlimited (record) dimension, which this "
                    "codec does not support"
                )
            if length < 0:
                raise NetCDFFormatError(
                    f"dimension {name!r}: negative length {length}"
                )
            if name in ds.dimensions:
                raise NetCDFFormatError(f"duplicate dimension {name!r}")
            ds.create_dimension(name, length)
            dims.append((name, length))
        return dims

    def _read_att_list(self) -> dict[str, object]:
        count = self._tagged_count(NC_ATTRIBUTE, "attribute")
        attrs: dict[str, object] = {}
        for _ in range(count):
            name = self._name()
            nc_type = self._i4()
            nelems = self._i4()
            if nelems < 0:
                raise NetCDFFormatError(f"negative attribute length for {name!r}")
            nbytes = nelems * element_size(nc_type)
            self._need(padded(nbytes))
            raw = self.blob[self.pos : self.pos + nbytes]
            self.pos += padded(nbytes)
            if nc_type == NC_CHAR:
                attrs[name] = str(raw, "utf-8", errors="replace")
            else:
                values = np.frombuffer(raw, dtype=NC_DTYPES[nc_type]).astype(
                    NC_DTYPES[nc_type].newbyteorder("=")
                )
                attrs[name] = values if values.size != 1 else values[0]
        return attrs

    def _read_var_list(self, ds, dims, numrecs: int, use_64bit: bool) -> None:
        count = self._tagged_count(NC_VARIABLE, "variable")
        for _ in range(count):
            name = self._name()
            ndims = self._i4()
            if ndims < 0:
                raise NetCDFFormatError(f"negative rank for variable {name!r}")
            dim_ids = [self._i4() for _ in range(ndims)]
            for dim_id in dim_ids:
                if not 0 <= dim_id < len(dims):
                    raise NetCDFFormatError(
                        f"variable {name!r} references unknown dimension {dim_id}"
                    )
            attrs = self._read_att_list()
            nc_type = self._i4()
            _vsize = self._i4()
            begin = self._i8() if use_64bit else self._i4()
            shape = tuple([dims[d][1] for d in dim_ids])
            nelems = int(np.prod(shape, dtype=np.int64)) if shape else 1
            nbytes = nelems * element_size(nc_type)
            if begin < 0 or begin + nbytes > len(self.blob):
                raise NetCDFFormatError(
                    f"variable {name!r} data [{begin}, {begin + nbytes}) falls "
                    f"outside the file of {len(self.blob)} bytes"
                )
            stored = NC_DTYPES[nc_type]
            flat = np.frombuffer(self.blob, dtype=stored, count=nelems, offset=begin)
            if nc_type == NC_CHAR:
                data = flat.reshape(shape)
            else:
                data = flat.astype(stored.newbyteorder("=")).reshape(shape)
            ds.variables[name] = Variable(
                name, tuple([dims[d][0] for d in dim_ids]), data, attrs
            )
