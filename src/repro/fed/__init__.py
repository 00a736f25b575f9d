"""Federated multi-server data plane.

One serve instance tops out at one host's capacity; this package scales
the SOAP framework past it with three client-side building blocks:

* :mod:`repro.fed.balancer` — a client-side load balancer fronting N
  serve replicas (threaded or aio core) with pluggable replica-selection
  policies, ``/readyz`` health gating, circuit breaking and automatic
  failover through the :func:`~repro.transport.resilience.retry_call`
  resilience layer;
* :mod:`repro.fed.striping` — multi-source striped transfers: one large
  fetch split into byte-range stripes pulled concurrently from several
  replicas and reassembled with per-stripe verification;
* :mod:`repro.fed.cache` — a content-addressed response cache keyed by
  a digest of the canonical request, with TTL + LRU-bytes eviction and
  single-flight request coalescing;
* :mod:`repro.fed.node` — a standalone node process (``python -m
  repro.fed.node``) plus helpers to spawn a local cluster without
  sleep-polling for ephemeral ports.

``repro.harness.figure_fed`` ("Figure F") measures the federation:
concurrency × cache-hit-ratio matrix, aggregate goodput vs a saturated
single node, and node-kill failover with exact accounting.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Balancer": "balancer",
        "EwmaLatencyPolicy": "balancer",
        "FederatedClient": "balancer",
        "LeastOutstandingPolicy": "balancer",
        "NoReplicaAvailable": "balancer",
        "Replica": "balancer",
        "RoundRobinPolicy": "balancer",
        "CachingClient": "cache",
        "ResponseCache": "cache",
        "envelope_key": "cache",
        "request_key": "cache",
        "StripeStats": "striping",
        "StripeVerificationError": "striping",
        "striped_fetch": "striping",
    },
)
