"""SOAP intermediary nodes: hop-by-hop rebinding and transcoding.

§5.1: "the intermediary node can just simply deploy multiple generic SOAP
engines with different policy configurations to serve the up-link and
down-link message flows.  Furthermore, transcodability enables BXSA to be
the intermediate protocol over the message hops, even when the message
sender and receiver are communicating via textual XML."

:class:`TcpIntermediary` is that node: it accepts requests on one
encoding/binding pair and forwards them to the next hop on another,
re-encoding the *same* bXDM envelope in between — e.g. clients speak XML to
the intermediary while the backbone hop runs BXSA.

It is the SOAP/TCP host with a different ``handle``: messages run through
:func:`~repro.core.exchange.serve_exchange` with the next hop's ``call`` where
the service host has its dispatcher — so an undecodable request, a
downstream fault and a next hop gone are answered as every SOAP host does.
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import SoapEngine
from repro.core.exchange import serve_exchange
from repro.core.policies import EncodingPolicy, NegotiatedPolicies
from repro.transport.base import BufferedChannel, Channel, Listener, TransportError
from repro.transport.host import ConnectionHost
from repro.transport.tcp_binding import TcpClientBinding, serve_messages


class TcpIntermediary(ConnectionHost):
    """A SOAP hop: TCP in on one encoding, TCP out on another.

    Each inbound connection gets its own outbound connection to the next
    hop, so request/response ordering per client is trivially preserved;
    the outbound connection closes with the inbound one.
    """

    def __init__(
        self,
        listener: Listener,
        connect_next_hop: Callable[[], Channel],
        *,
        inbound_encoding: EncodingPolicy,
        outbound_encoding: EncodingPolicy,
        name: str = "soap-intermediary",
    ) -> None:
        super().__init__(listener, self._serve_connection, name=name)
        self._connect = connect_next_hop
        self._inbound_encoding = inbound_encoding
        self._outbound_encoding = outbound_encoding
        #: Number of envelopes forwarded (inspectable by tests/examples).
        self.forwarded = 0

    def _serve_connection(self, inbound: BufferedChannel) -> None:
        try:
            outbound = self._connect()
        except TransportError:
            return  # no next hop: the caller sees its connection close
        down = SoapEngine(self._outbound_encoding, TcpClientBinding(outbound))
        policies = NegotiatedPolicies(self._inbound_encoding)

        def answer(payload: bytes, content_type: str):
            # Forward on the downstream encoding; relay the response (or
            # the downstream fault) back on the upstream one.  The hop
            # joins the caller's trace: its span parents the next hop's
            # work (down.call re-stamps the envelope's context block with
            # this span as the new parent).
            served = serve_exchange(
                payload, content_type, down.call, policies, span="soap.forward"
            )
            if served.status == "ok":
                self.forwarded += 1
            return served.body, served.content_type

        try:
            serve_messages(inbound, self.receive, answer)
        finally:
            outbound.close()
