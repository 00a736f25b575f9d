"""The generic SOAP engine.

The Python rendering of the paper's::

    template <class EncodingPolicy, class BindingPolicy>
    class SoapEngine { ... };

A :class:`SoapEngine` owns one encoding policy and one binding policy and
implements the SOAP message exchange patterns against them:

* client side — :meth:`SoapEngine.call` (request-response) and
  :meth:`SoapEngine.send` (one-way);
* receiving a one-way message — :meth:`SoapEngine.receive`.

The server side of request-response is one binding-free function,
:func:`repro.core.exchange.serve_exchange`, in a module of its own: a host
calls it and never loads this one (DESIGN.md §10 "One server side").

The engine is completely ignorant of what the policies do internally: any
object satisfying the concepts (checked at construction) composes, giving
the four combinations the paper demonstrates (XML/HTTP, XML/TCP, BXSA/HTTP,
BXSA/TCP) plus anything a user brings.
"""

from __future__ import annotations

import random
import time

from repro import obs
from repro.obs import propagation
from repro.core.concepts import (
    check_binding_client,
    check_binding_server,
    check_encoding_policy,
    check_security_policy,
)
from repro.core.envelope import SoapEnvelope
from repro.core.exchange import decode_envelope, encode_body
from repro.core.fault import CLIENT_FAULT, SoapFault
from repro.core.policies import EncodingPolicy, NegotiatedPolicies
from repro.transport.base import TransportError
from repro.transport.resilience import (
    DeadlineExceeded,
    ResiliencePolicy,
    ServerBusy,
    as_deadline,
    retry_call,
)


class SoapEngine:
    """One SOAP node endpoint: an encoding policy + a binding policy.

    Parameters
    ----------
    encoding:
        Any model of the encoding policy concept; it encodes what this
        engine sends.  A received message whose content type differs is
        decoded with the matching shipped policy — the paper's engines
        negotiate per message hop.
    binding:
        Any model of the client- or server-side binding concept (which side
        is needed depends on which methods are called; both are accepted).
    security:
        Optional model of the security policy concept (§5's "just add more
        policies"): its ``sign`` runs on every outgoing envelope and its
        ``verify`` on every incoming one (see :mod:`repro.core.security`).
    resilience:
        Optional :class:`~repro.transport.resilience.ResiliencePolicy`.
        When set, :meth:`call` runs under its retry budget and default
        deadline, and a transport failure that survives the budget is
        degraded to a ``soap:Server`` fault instead of escaping as a raw
        transport exception.  When unset (default), transport errors
        propagate unchanged — the seed behaviour.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  When set, every
        :meth:`call` is RED-counted into
        ``soap_client_requests_total{binding,status}`` /
        ``soap_client_request_seconds{binding}`` and the retry loop's
        labelled counters land here too.  Unset (default), the engine
        reports only to the ambient ``obs`` recorder.
    """

    def __init__(
        self,
        encoding: EncodingPolicy,
        binding,
        security=None,
        *,
        resilience: ResiliencePolicy | None = None,
        metrics=None,
    ) -> None:
        check_encoding_policy(encoding)
        if security is not None:
            check_security_policy(security)
        is_client = hasattr(binding, "send_request")
        is_server = hasattr(binding, "receive_request")
        if is_client:
            check_binding_client(binding)
        if is_server:
            check_binding_server(binding)
        if not (is_client or is_server):
            check_binding_client(binding)  # raise with the client-side message
        self.encoding = encoding
        self.binding = binding
        self.security = security
        self.resilience = resilience
        self.metrics = metrics
        self._retry_rng = random.Random()
        # a long-lived engine holds one warm policy per foreign content
        # type its peer has answered in
        self._policies = NegotiatedPolicies(encoding)

    # ------------------------------------------------------------------
    # client-side MEPs

    def call(self, envelope: SoapEnvelope, *, deadline=None) -> SoapEnvelope:
        """Request-response: send, block for the reply, surface faults.

        A ``soap:Fault`` in the response body is raised as
        :class:`SoapFault`; anything else is returned as an envelope.

        ``deadline`` (seconds or a Deadline) bounds the whole exchange; it
        defaults to the resilience policy's deadline when one is set.
        With a resilience policy, transport failures are retried within
        the policy's budget (replays only when the policy marks calls
        idempotent) and an exhausted budget or blown deadline surfaces as
        a ``soap:Server`` :class:`SoapFault` — graceful degradation.
        """
        res = self.resilience
        if deadline is None and res is not None:
            deadline = res.deadline
        dl = as_deadline(deadline)
        status = "ok"
        start = time.perf_counter()
        try:
            with obs.span(
                "soap.call", kind="logical", binding=getattr(self.binding, "name", "?")
            ):
                if res is None:
                    try:
                        self.send(envelope, deadline=dl)
                        return self.receive_response(deadline=dl)
                    except SoapFault:
                        status = "fault"
                        raise
                    except (DeadlineExceeded, TransportError):
                        status = "transport_error"
                        raise

                def attempt(_n: int) -> SoapEnvelope:
                    self.send(envelope, deadline=dl)
                    return self.receive_response(deadline=dl)

                try:
                    # a load-shed exchange (503 + Retry-After -> ServerBusy)
                    # was never admitted by the server, so replaying it is
                    # safe even for non-idempotent operations
                    return retry_call(
                        attempt,
                        res.retry,
                        deadline=dl,
                        may_retry=lambda exc, _attempt: (
                            res.idempotent or isinstance(exc, ServerBusy)
                        ),
                        rng=self._retry_rng,
                        metrics=self.metrics,
                    )
                except SoapFault:
                    status = "fault"
                    raise
                except (DeadlineExceeded, TransportError) as exc:
                    status = "degraded"
                    raise SoapFault(
                        "soap:Server", f"transport failure, degraded gracefully: {exc}"
                    ) from exc
        except BaseException:
            if status == "ok":  # an error no clause above classified
                status = "error"
            raise
        finally:
            if self.metrics is not None:
                binding = getattr(self.binding, "name", type(self.binding).__name__)
                self.metrics.counter(
                    "soap_client_requests_total",
                    labels={"binding": binding, "status": status},
                ).add()
                self.metrics.histogram(
                    "soap_client_request_seconds", labels={"binding": binding}
                ).observe(time.perf_counter() - start)

    def send(self, envelope: SoapEnvelope, *, deadline=None) -> int:
        """One-way send; returns the payload size in bytes."""
        with obs.span("soap.send", kind="logical") as sp:
            # trace context rides as a SOAP header block; injected before
            # signing so the signature covers it (replacing any stale
            # block, so proxy hops re-stamp rather than accumulate)
            ctx = propagation.outbound_context(sp)
            if ctx is not None:
                propagation.inject_envelope(envelope, ctx)
            if self.security is not None:
                self.security.sign(envelope)
            payload = encode_body(self.encoding, envelope.to_document())
            size = len(payload) if type(payload) is not list else sum(map(len, payload))
            sp.set("bytes", size)
            if deadline is None:
                self.binding.send_request(payload, self.encoding.content_type)
            else:
                # only deadline-aware bindings are asked to honour one
                self.binding.send_request(
                    payload, self.encoding.content_type, deadline=deadline
                )
            return size

    def receive_response(self, *, deadline=None) -> SoapEnvelope:
        with obs.span("soap.receive", kind="logical") as sp:
            if deadline is None:
                payload, content_type = self.binding.receive_response()
            else:
                payload, content_type = self.binding.receive_response(deadline=deadline)
            sp.set("bytes", len(payload))
            envelope = self._decode(payload, content_type)
            if self.security is not None:
                self.security.verify(envelope)
            fault_element = SoapFault.find_in(envelope.body_children)
            if fault_element is not None:
                raise SoapFault.from_element(fault_element)
            return envelope

    # ------------------------------------------------------------------
    # receiving side of the one-way MEP

    def receive(self) -> tuple[SoapEnvelope, str]:
        """Receive one message; returns (envelope, wire content type).

        Raises :class:`SoapFault` for one that cannot be decoded or verified
        (a request that wants an answer goes through
        :func:`~repro.core.exchange.serve_exchange`).
        """
        payload, content_type = self.binding.receive_request()
        with obs.span("soap.receive_request", kind="logical", bytes=len(payload)):
            envelope = self._decode(payload, content_type)
            if self.security is not None:
                self.security.verify(envelope)
            return envelope, content_type

    # ------------------------------------------------------------------

    def _decode(self, payload: bytes, content_type: str) -> SoapEnvelope:
        try:
            encoding = self._policies.resolve(content_type)
        except ValueError as exc:
            raise SoapFault(CLIENT_FAULT, str(exc)) from exc
        return decode_envelope(encoding, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoapEngine({self.encoding!r}, {type(self.binding).__name__})"
