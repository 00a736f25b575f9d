"""A from-scratch netCDF-3 (classic format) reader and writer.

The paper's "separated solution" stores binary data in netCDF files pulled
over HTTP or GridFTP; this package implements the on-disk classic format
(CDF-1, and CDF-2 64-bit offsets) well enough to round-trip the
evaluation's datasets and anything similar: fixed-size dimensions,
variables of the six external types, global and per-variable attributes.

The unlimited (record) dimension is intentionally unsupported — the
evaluation never uses it — and is rejected loudly on read rather than
misparsed.

The layout follows the classic format specification: a big-endian header
(magic, dimension/attribute/variable lists with 4-byte-aligned names and
values) followed by each variable's data at its recorded ``begin`` offset,
padded to 4-byte boundaries.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "NetCDFError": "errors",
        "NetCDFFormatError": "errors",
        "Dataset": "model",
        "Variable": "model",
        "read_dataset": "reader",
        "read_dataset_bytes": "reader",
        "write_dataset": "writer",
        "write_dataset_bytes": "writer",
    },
)
