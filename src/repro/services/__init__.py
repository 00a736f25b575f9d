"""Example SOAP services used by the evaluation and the examples.

* :mod:`~repro.services.verification` — the paper's test service: the
  server verifies every value of the dataset and replies with the result,
  in both the unified (data-in-message) and separated (URL-in-message)
  styles;
* :mod:`~repro.services.echo` — the minimal service the quickstart uses;
* :mod:`~repro.services.eventing` — WS-Eventing-lite: publish/subscribe
  with XPath-lite filters over one-way SOAP messages (Figure 3's layer).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "echo_dispatcher": "echo",
        "EventSource": "eventing",
        "NotificationSink": "eventing",
        "Subscription": "eventing",
        "VerificationResult": "verification",
        "build_verification_dispatcher": "verification",
        "make_reference_request": "verification",
        "make_unified_request": "verification",
        "parse_verification_response": "verification",
    },
)
