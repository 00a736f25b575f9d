"""The generic SOAP engine — the paper's primary contribution (§5).

The engine is *generic* in the paper's C++ sense: it implements the SOAP
messaging model once, against two policy concepts it knows nothing concrete
about —

* an **encoding policy** serializes/deserializes bXDM documents
  (:class:`XMLEncoding`, :class:`BXSAEncoding` are the two models shipped);
* a **binding policy** carries octet streams between SOAP nodes
  (TCP framing and HTTP POST are the two models shipped, in
  :mod:`repro.transport`).

Where C++ templates check policy conformance at compile time, this Python
port checks the policies' *valid expressions* at engine construction
(:mod:`repro.core.concepts`) — same discipline, shifted to the earliest
moment Python has.  Any conforming class combines with any other: XML over
TCP, BXSA over HTTP and the two canonical pairings all work, which is
exactly the combinatorial freedom §5 claims.

On top of the engine sit the usual service-side pieces: a dispatcher
mapping body elements to handlers, a service host, a client proxy, SOAP
faults, and an intermediary node that re-binds message hops (§5.1's
up-link/down-link scenario, including BXSA as the intermediate protocol
between textual-XML endpoints).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "PolicyConceptError": "concepts",
        "check_binding_client": "concepts",
        "check_binding_server": "concepts",
        "check_encoding_policy": "concepts",
        "check_security_policy": "concepts",
        "SOAP_ENV_URI": "envelope",
        "SoapEnvelope": "envelope",
        "SoapFault": "fault",
        "BXSAEncoding": "policies",
        "XMLEncoding": "policies",
        "encoding_for_content_type": "policies",
        "register_content_type": "policies",
        "DeflateEncoding": "compression",
        "ServiceDescription": "wsdl",
        "WsdlError": "wsdl",
        "SoapEngine": "engine",
        "Dispatcher": "dispatcher",
        "SoapHttpService": "service",
        "SoapTcpService": "service",
        "ServiceProxy": "client",
        "SoapHttpClient": "client",
        "SoapTcpClient": "client",
        "TcpIntermediary": "intermediary",
        "ChunkSignatureError": "security",
        "ChunkSigner": "security",
        "ChunkVerifier": "security",
        "HmacSigningPolicy": "security",
        "NullSecurity": "security",
        "SecretKey": "security",
        "SECURITY_FAULT": "security",
        "sign_stream": "security",
        "verify_stream": "security",
    },
)
