"""Concept checking for engine policies.

The paper leans on C++ policy-based design: "every policy is just defined
as an abstract concept with a set of valid expressions", enforced by the
compiler.  Python has no compile step, so :class:`~repro.core.engine.SoapEngine`
runs these checks at construction — a malformed policy fails loudly at the
same place a C++ template instantiation would, instead of deep inside a
message exchange.
"""

from __future__ import annotations


class PolicyConceptError(TypeError):
    """A policy object does not satisfy its concept's valid expressions."""


def _require(obj, attr: str, concept: str, *, callable_: bool = True) -> None:
    if not hasattr(obj, attr):
        raise PolicyConceptError(
            f"{type(obj).__name__} does not model the {concept} concept: "
            f"missing {attr!r}"
        )
    if callable_ and not callable(getattr(obj, attr)):
        raise PolicyConceptError(
            f"{type(obj).__name__} does not model the {concept} concept: "
            f"{attr!r} is not callable"
        )


def check_encoding_policy(policy) -> None:
    """Valid expressions: ``content_type``, ``encode(doc)``, ``decode(bytes)``."""
    _require(policy, "content_type", "EncodingPolicy", callable_=False)
    if not isinstance(policy.content_type, str) or not policy.content_type:
        raise PolicyConceptError(
            f"{type(policy).__name__}.content_type must be a non-empty str"
        )
    _require(policy, "encode", "EncodingPolicy")
    _require(policy, "decode", "EncodingPolicy")


def check_binding_client(binding) -> None:
    """Valid expressions (client side): ``send_request``, ``receive_response``."""
    _require(binding, "send_request", "BindingPolicy(client)")
    _require(binding, "receive_response", "BindingPolicy(client)")


def check_binding_server(binding) -> None:
    """Valid expressions (server side): ``receive_request``, ``send_response``."""
    _require(binding, "receive_request", "BindingPolicy(server)")
    _require(binding, "send_response", "BindingPolicy(server)")


def check_security_policy(policy) -> None:
    """Valid expressions: ``sign(envelope)``, ``verify(envelope)``."""
    _require(policy, "sign", "SecurityPolicy")
    _require(policy, "verify", "SecurityPolicy")
