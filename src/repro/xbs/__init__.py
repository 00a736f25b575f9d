"""XBS: a streaming binary serializer for primitive types.

XBS (Chiu, HPC Symposium 2004) is the bottom layer of the BXSA stack.  It is a
minimalistic format that packs fundamental types into a byte sequence:

* 1-, 2-, 4- and 8-byte signed and unsigned integers,
* 4- and 8-byte IEEE 754 floating-point numbers,
* packed one-dimensional arrays of any of the above,
* variable-length size integers ("VLS") used by BXSA frame headers.

All multi-byte numbers are aligned to a multiple of their own size (relative
to the start of the stream), and both little-endian and big-endian encodings
are supported so that a reader can consume frames produced on either kind of
host without byte-swapping its own native data.

The public surface is :class:`XBSWriter`, :class:`XBSReader`, the
:mod:`~repro.xbs.varint` helpers and the :mod:`~repro.xbs.constants` type-code
registry.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "BIG_ENDIAN": "constants",
        "LITTLE_ENDIAN": "constants",
        "NATIVE_ENDIAN": "constants",
        "TypeCode": "constants",
        "dtype_for": "constants",
        "type_code_for_dtype": "constants",
        "XBSError": "errors",
        "XBSDecodeError": "errors",
        "XBSEncodeError": "errors",
        "XBSReader": "reader",
        "decode_vls": "varint",
        "encode_vls": "varint",
        "vls_length": "varint",
        "XBSWriter": "writer",
    },
)
