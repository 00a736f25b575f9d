"""A from-scratch HTTP/1.1 subset: message codec, client, server, binding.

Implements what the paper's evaluation needs from Apache/libcurl:
request/response framing with ``Content-Length`` or chunked
``Transfer-Encoding`` bodies (including streamed bodies pulled from a
producer — the large-message pipeline), persistent connections
(``Connection: keep-alive``/``close``), status codes, and
``GET``/``POST``/``HEAD``.  No TLS, no proxies — neither of which the
reproduced experiments exercise.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ChunkedDecoder": "messages",
        "HttpError": "messages",
        "HttpRequest": "messages",
        "HttpResponse": "messages",
        "HttpUnsupportedTransferEncoding": "messages",
        "body_framing": "messages",
        "drain_stream": "messages",
        "read_request": "messages",
        "read_response": "messages",
        "HttpClient": "client",
        "HttpServer": "server",
        "HttpClientBinding": "binding",
        "SOAP_XML_TYPE": "binding",
        "SOAP_BXSA_TYPE": "binding",
    },
)
