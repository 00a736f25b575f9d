"""Transport layer: channels, listeners and SOAP transport bindings.

This package is the "Transportation Layer" of the paper's Figure 3.  It
provides:

* byte-stream **channels** over real TCP sockets (:mod:`~repro.transport.sockets`),
  in-process pipes (:mod:`~repro.transport.memory`), and byte-counting
  wrappers used by the experiment harness
  (:class:`~repro.transport.instrument.InstrumentedChannel`);
* the **TCP binding** — SOAP messages length-prefixed straight onto a
  stream, the paper's ``TCPBinding`` ("just dump the serialization directly
  to a TCP connection");
* a from-scratch **HTTP/1.1** stack (:mod:`repro.transport.http`) and the
  ``HttpBinding`` that POSTs SOAP messages over it.

Bindings implement the four valid expressions of the paper's binding
concept (§5.3): ``send_request`` / ``receive_response`` on the client side,
``receive_request`` / ``send_response`` on the server side — here at the
byte level, carrying a content-type tag so either encoding can ride either
binding.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Channel": "base",
        "Listener": "base",
        "TransportClosed": "base",
        "TransportError": "base",
        "ChannelStats": "instrument",
        "InstrumentedChannel": "instrument",
        "MemoryNetwork": "memory",
        "memory_pipe": "memory",
        "Deadline": "resilience",
        "DeadlineChannel": "resilience",
        "DeadlineExceeded": "resilience",
        "ResiliencePolicy": "resilience",
        "RetryBudgetExhausted": "resilience",
        "RetryPolicy": "resilience",
        "as_deadline": "resilience",
        "retry_call": "resilience",
        "SocketChannel": "sockets",
        "TcpListener": "sockets",
        "connect_tcp": "sockets",
        "TcpClientBinding": "tcp_binding",
        "TcpServerBinding": "tcp_binding",
        "read_message": "tcp_binding",
        "write_message": "tcp_binding",
    },
)
