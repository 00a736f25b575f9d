"""BXSA: Binary XML for Scientific Applications.

The frame-based binary XML encoding of §4 of the paper, layered on XBS.  A
BXSA document is a sequence of *frames*, one per bXDM node, with container
frames (document, component element) embedding their children recursively.
Every frame starts with the Common Frame Prefix — a byte-order/frame-type
byte plus a variable-length ``Size`` field — so a consumer can skip over any
frame without parsing it (*accelerated sequential access*, exposed by
:mod:`repro.bxsa.scanner`).

Highlights reproduced from the paper:

* coarse frame granularity — attributes and namespace declarations live
  *inside* their element's frame rather than as separate tiny frames (§4.1);
* namespace tokenization — QNames reference a namespace by (scope depth,
  table index) instead of by prefix string (§4.1);
* typed leaf and array payloads in native machine form, with per-frame byte
  order so frames can be embedded in containers of a different endianness;
* transcodability with textual XML (§4.2), via :mod:`repro.bxsa.transcode`.

See :mod:`repro.bxsa.constants` for the exact wire layout.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "FrameType": "constants",
        "pack_prefix_byte": "constants",
        "unpack_prefix_byte": "constants",
        "BXSADecoder": "decoder",
        "decode": "decoder",
        "decode_document": "decoder",
        "BXSAEncoder": "encoder",
        "encode": "encoder",
        "encode_document": "encoder",
        "BXSADecodeError": "errors",
        "BXSAEncodeError": "errors",
        "BXSAError": "errors",
        "FrameInfo": "scanner",
        "FrameScanner": "scanner",
        "CodecSession": "session",
        "SessionStats": "session",
        "BXSAStreamReader": "stream",
        "BXSAStreamWriter": "stream",
        "EventKind": "stream",
        "StreamDecoder": "stream",
        "StreamEvent": "stream",
        "write_document": "stream",
        "bxsa_to_xml": "transcode",
        "xml_to_bxsa": "transcode",
    },
)
