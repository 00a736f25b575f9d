"""The HTTP SOAP binding: envelopes POSTed over HTTP/1.1.

Client side implements the binding concept's ``send_request`` /
``receive_response`` pair over an :class:`~repro.transport.http.client.HttpClient`;
the server side is an :class:`HttpRequest` handler produced by the SOAP
service host (HTTP servers are request-driven, so the server half of the
binding concept is inverted into a callback there).
"""

from __future__ import annotations

from repro.transport.base import TransportError
from repro.transport.http.client import HttpClient
from repro.transport.http.messages import BodyPieces, HttpResponse
from repro.transport.resilience import ServerBusy, parse_retry_after

#: Content types for the two encodings riding HTTP (the XML one matches the
#: SOAP 1.1 convention; the BXSA one is this project's).
SOAP_XML_TYPE = "text/xml"
SOAP_BXSA_TYPE = "application/bxsa"


class HttpClientBinding:
    """Client half of the binding concept over HTTP POST.

    ``idempotent`` marks the SOAP operations sent through this binding as
    safe to replay: it unlocks the HTTP client's reconnect-and-resend
    recovery for the POSTs that carry them (a POST is otherwise never
    retried — see :mod:`repro.transport.http.client`).
    """

    name = "http"

    def __init__(
        self,
        client: HttpClient,
        target: str = "/soap",
        *,
        idempotent: bool = False,
    ) -> None:
        self._client = client
        self._target = target
        self._idempotent = idempotent
        self._pending: HttpResponse | None = None

    def send_request(self, payload, content_type: str, *, deadline=None) -> int:
        body = BodyPieces(payload) if type(payload) is list else payload
        headers = {"Content-Type": content_type, "SOAPAction": '""'}
        self._pending = self._client.post(
            self._target,
            body,
            headers=headers,
            idempotent=self._idempotent or None,
            deadline=deadline,
        )
        return len(body)

    def receive_response(self, *, deadline=None) -> tuple[bytes, str]:
        if self._pending is None:
            raise TransportError("receive_response before send_request")
        response, self._pending = self._pending, None
        content_type = response.headers.get("Content-Type") or SOAP_XML_TYPE
        if response.status == 503:
            # the server shed this request; surface its Retry-After hint
            # so a resilience retry loop can pace itself to the server
            raise ServerBusy(
                f"HTTP 503: {bytes(response.body[:200])!r}",
                retry_after=parse_retry_after(response.headers.get("Retry-After")),
            )
        if not response.ok and response.status != 500:
            # 500 carries SOAP faults per the SOAP/HTTP binding; anything
            # else is a transport-level failure.
            raise TransportError(f"HTTP {response.status}: {bytes(response.body[:200])!r}")
        return response.body, content_type.split(";")[0].strip()

    def close(self) -> None:
        self._client.close()
