"""The server side of request-response: one SOAP exchange, binding-free.

What a server does with one SOAP message is one function,
:func:`serve_exchange`: negotiate → decode → verify → join the caller's
trace → ``handle`` → sign → encode, every failure mapped — here and nowhere
else — to a SOAP fault in the encoding the client spoke.  The HTTP host, the
TCP host and the intermediary are its callers (DESIGN.md §10 "One server
side").  It is a module of its own, apart from the client engine
(:mod:`repro.core.engine`), so a serving process compiles neither the
client half nor the concept checks and retry layer that half imports.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro import obs
from repro.obs import propagation
from repro.core.envelope import SoapEnvelope
from repro.core.fault import CLIENT_FAULT, SERVER_FAULT, SoapFault
from repro.core.policies import EncodingPolicy, NegotiatedPolicies


def decode_envelope(encoding: EncodingPolicy, payload: bytes) -> SoapEnvelope:
    """``payload`` → envelope; what cannot be is the sender's ``soap:Client``."""
    try:
        document = encoding.decode(payload)
    except SoapFault:
        raise
    except Exception as exc:
        # any codec error (malformed XML, corrupt BXSA frames, bad
        # deflate, ...) is the sender's problem, not a crash here
        raise SoapFault(
            CLIENT_FAULT, f"cannot decode {encoding.content_type} payload: {exc}"
        ) from exc
    try:
        return SoapEnvelope.from_document(document)
    except ValueError as exc:
        raise SoapFault(CLIENT_FAULT, f"invalid SOAP envelope: {exc}") from exc


def encode_body(encoding: EncodingPolicy, document) -> "bytes | list":
    """The gather step both halves of the engine send through: one buffer,
    or the list of pieces a gathering policy (``encode_pieces``) hands over
    for a binding to write in order, by reference."""
    gather = getattr(encoding, "encode_pieces", None)
    if gather is None:
        return encoding.encode(document)
    pieces = gather(document)
    return pieces[0] if len(pieces) == 1 else pieces


class Served(NamedTuple):
    """What :func:`serve_exchange` answers one request with."""

    #: The encoded reply, as :func:`encode_body` made it.
    body: "bytes | list"
    #: Content type of ``body``.
    content_type: str
    #: RED operation label (``"?"`` until the request has been decoded).
    operation: str
    #: ``ok`` | ``client_fault`` | ``server_fault`` | ``unsupported_media``;
    #: anything but ``ok`` means ``body`` is a fault envelope.
    status: str
    #: Trace the exchange ran under (the RED histogram's exemplar), if any.
    trace_id: "str | None"


def serve_exchange(
    payload: bytes,
    content_type: str,
    handle: Callable[[SoapEnvelope], SoapEnvelope],
    policies: NegotiatedPolicies,
    *,
    security=None,
    label: Callable[[SoapEnvelope], str] | None = None,
    span: str | None = None,
) -> Served:
    """Serve one SOAP request; nothing the request, ``handle`` or the reply
    does makes it raise.

    ``handle`` turns the request envelope into the response envelope
    (``dispatcher.dispatch``, a next hop's ``call``) and fails by raising.
    ``policies`` resolves the wire content type; the caller owns the cache.
    ``label`` names the operation for RED.  ``span`` opens a logical span of
    that name around handle → sign → encode, joined to the trace context in
    the envelope's header block — a binding that carries the context in its
    own framing (HTTP) has joined already and passes none.

    Failure → fault, signed, in the encoding the client spoke:

    * no registered policy speaks ``content_type`` → ``soap:Client`` in
      ``policies.default``, status ``unsupported_media`` (a binding with a
      refusal of its own for that — HTTP's 400 — sends it instead);
    * decode, envelope → ``soap:Client``; verify → the policy's fault;
    * ``handle`` raises :class:`SoapFault` → that fault;
    * ``handle``, sign or encode raises anything else (a next hop gone, a
      reply the policy cannot encode) → ``soap:Server``.
    """
    try:
        encoding = policies.resolve(content_type)
    except ValueError as exc:
        fault = SoapFault(CLIENT_FAULT, str(exc))
        return _faulted(fault, policies.default, security, "?", "unsupported_media")
    operation = "?"
    try:
        envelope = decode_envelope(encoding, payload)
        if label is not None:
            operation = label(envelope)
        if security is not None:
            security.verify(envelope)
    except SoapFault as fault:
        return _faulted(fault, encoding, security, operation)
    if span is None:
        return _answer(envelope, handle, encoding, security, operation)
    # this binding has no headers of its own: the trace context arrives as
    # the envelope's SOAP header block
    ctx = propagation.extract_envelope(envelope)
    with obs.span(span, kind="logical", context=ctx, operation=operation), obs.use_context(ctx):
        return _answer(envelope, handle, encoding, security, operation)


def _answer(envelope, handle, encoding: EncodingPolicy, security, operation: str) -> Served:
    """handle → sign → encode; a failure that is not already a fault is the
    server's, exactly as the dispatcher treats a handler's."""
    try:
        response = handle(envelope)
        if security is not None:
            security.sign(response)
        body = encode_body(encoding, response.to_document())
    except SoapFault as fault:
        return _faulted(fault, encoding, security, operation)
    except Exception as exc:  # noqa: BLE001 - server boundary
        fault = SoapFault(SERVER_FAULT, f"{type(exc).__name__}: {exc}")
        return _faulted(fault, encoding, security, operation)
    return Served(body, encoding.content_type, operation, "ok", obs.current_trace_id())


def _faulted(
    fault: SoapFault, encoding: EncodingPolicy, security, operation: str, status: str | None = None
) -> Served:
    """The fault as a reply: wrapped, signed, in ``encoding``."""
    envelope = SoapEnvelope.wrap(fault.to_element())
    if security is not None:
        security.sign(envelope)
    if status is None:
        status = "client_fault" if fault.code == CLIENT_FAULT else "server_fault"
    body = encode_body(encoding, envelope.to_document())
    return Served(body, encoding.content_type, operation, status, obs.current_trace_id())
