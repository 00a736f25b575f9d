"""repro: a generic SOAP framework over binary XML (HPDC 2006 reproduction).

Public API re-exports.  The package layers, bottom-up:

``repro.xbs`` → ``repro.xdm`` → ``repro.bxsa`` / ``repro.xmlcodec`` →
``repro.core`` (the generic SOAP engine) → ``repro.transport`` bindings,
with the evaluation substrates (``netcdf``, ``gridftp``, ``datachannel``,
``netsim``, ``workloads``, ``services``, ``harness``) alongside.

Most applications only need what is re-exported here: the data-model
builders, the two encodings, the engine/service/client classes and a
transport.
"""

__version__ = "0.1.0"

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ArrayElement": "xdm",
        "DocumentNode": "xdm",
        "ElementNode": "xdm",
        "LeafElement": "xdm",
        "QName": "xdm",
        "TreeBuilder": "xdm",
        "array": "xdm",
        "deep_equal": "xdm",
        "doc": "xdm",
        "element": "xdm",
        "leaf": "xdm",
        "text": "xdm",
        "bxsa_decode": "bxsa:decode",
        "bxsa_encode": "bxsa:encode",
        "parse_document": "xmlcodec",
        "serialize": "xmlcodec",
        "BXSAEncoding": "core",
        "Dispatcher": "core",
        "ServiceProxy": "core",
        "SoapEngine": "core",
        "SoapEnvelope": "core",
        "SoapFault": "core",
        "SoapHttpClient": "core",
        "SoapHttpService": "core",
        "SoapTcpClient": "core",
        "SoapTcpService": "core",
        "XMLEncoding": "core",
        "MemoryNetwork": "transport",
        "TcpListener": "transport",
        "connect_tcp": "transport",
    },
)
__all__.append("__version__")
