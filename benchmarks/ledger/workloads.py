"""The four fixed workloads, their seeded payload pools and reply checks.

Names are part of the contract (``BENCHMARK.json``, later issues cite
them); the ``why`` strings are the ones ``BENCHMARK.json`` records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.envelope import SoapEnvelope
from repro.core.policies import BXSAEncoding, EncodingPolicy, XMLEncoding
from repro.workloads.lead import lead_dataset
from repro.workloads.sensors import sensor_stream
from repro.xdm import ArrayElement, ElementNode, LeafElement, deep_equal, element

#: Every n-th exchange of the timed window gets the full ``deep_equal``;
#: the others get the cheap structural check (root, lengths, edges).
FULL_CHECK_EVERY = 64


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"sensor"`` (one small reading) or ``"lead"`` (two equal arrays).
    payload: str
    #: Array length for ``lead`` payloads (ignored for ``sensor``).
    model_size: int
    #: ``"bxsa"`` or ``"xml"``: the client's encoding policy.
    encoding: str
    #: Serving core of the server child: ``"aio"`` or ``"threaded"``.
    core: str
    #: Distinct request records pre-built from the seed.
    pool_size: int
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "small_bxsa", "sensor", 0, "bxsa", "aio", 256,
        "200 B BXSA sensor reading, aio core: per-message fixed cost dominates "
        "(HTTP framing, selector loop, pool handoff, envelope, dispatch); codec byte work ~0",
    ),
    Workload(
        "bulk_bxsa", "lead", 100_000, "bxsa", "aio", 8,
        "1.2 MB BXSA arrays each way, aio core: byte moving dominates "
        "(array copies, body buffering, socket); per-message cost is noise",
    ),
    Workload(
        "bulk_bxsa_threaded", "lead", 100_000, "bxsa", "threaded", 8,
        "same bytes as bulk_bxsa on the threaded core: the pair isolates transport.aio "
        "from transport.http.server; a core-side change moves one and not the other",
    ),
    Workload(
        "text_xml", "lead", 1365, "xml", "aio", 32,
        "32 KB XML 1.0 (paper's mid size), aio core: xmlcodec float<->ASCII CPU dominates; "
        "a BXSA-only gain predicts no change, a shared-layer cost shows here",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def make_policy(workload: Workload) -> EncodingPolicy:
    """A fresh client-side policy, as ``SoapHttpClient`` would be given."""
    return BXSAEncoding() if workload.encoding == "bxsa" else XMLEncoding()


def build_pool(workload: Workload, seed: int) -> list:
    """Native request records: same shape, values drawn from ``seed``.

    Same shape means codec plans hit; different values mean nothing along
    the path can get away with caching a value.
    """
    if workload.payload == "sensor":
        return list(sensor_stream(workload.pool_size, seed=seed))
    # one generator seed per record: lead_dataset(seed=s) is deterministic
    return [
        lead_dataset(workload.model_size, seed=seed * 1009 + k)
        for k in range(workload.pool_size)
    ]


def pool_digest(pool: list) -> str:
    """SHA-256 over every record's native bytes (the determinism witness)."""
    digest = hashlib.sha256()
    for record in pool:
        for value in vars(record).values():
            digest.update(np.asarray(value).tobytes())
    return digest.hexdigest()


def build_envelope(record) -> SoapEnvelope:
    """bXDM build: native record -> ``Echo`` operation -> envelope.

    This is the ``xdm.build`` layer: the generator does it once per
    exchange, as an application binding its data would.
    """
    return SoapEnvelope.wrap(element("Echo", record.to_bxdm()))


def _echoed_pairs(request: SoapEnvelope, reply: SoapEnvelope):
    """``(sent child, echoed child)`` pairs, or ``None`` for a wrong root."""
    sent = request.body_root
    got = reply.body_root
    if got.name.local != "EchoResponse" or len(got.children) != len(sent.children):
        return None
    return list(zip(sent.children, got.children))


def quick_check(request: SoapEnvelope, reply: SoapEnvelope) -> bool:
    """Root name, child names, leaf values, array lengths and edge elements."""
    pairs = _echoed_pairs(request, reply)
    return pairs is not None and all(_same_edges(a, b) for a, b in pairs)


def _same_edges(a, b) -> bool:
    if type(a) is not type(b) or a.name.local != b.name.local:
        return False
    if isinstance(a, ArrayElement):
        va, vb = a.values, b.values
        if len(va) != len(vb):
            return False
        return len(va) == 0 or bool(va[0] == vb[0] and va[-1] == vb[-1])
    if isinstance(a, LeafElement):
        return bool(a.value == b.value)
    if isinstance(a, ElementNode):
        ca, cb = a.children, b.children
        return len(ca) == len(cb) and all(_same_edges(x, y) for x, y in zip(ca, cb))
    return True


def full_check(request: SoapEnvelope, reply: SoapEnvelope) -> bool:
    """``deep_equal`` of every echoed child against what was sent."""
    pairs = _echoed_pairs(request, reply)
    # the XML serializer auto-declares prefixes for its type annotations,
    # so a parsed-back tree legitimately carries extra declarations
    return pairs is not None and all(
        deep_equal(a, b, ignore_ns_decls=True) for a, b in pairs
    )
