"""Every metric the ledger reports: name, unit, direction.

``BENCHMARK.json`` carries the same lists plus the measured regression
bounds (``python -m benchmarks.ledger aa`` derives those);
``test_ledger.py`` checks the two agree, so a metric cannot be added to
one and forgotten in the other.
"""

from __future__ import annotations

#: ``(name, unit, better)`` — what a user of the system would see; the live
#: pass measures and prints all of them on every workload.
#: ``failed_share`` is not among them: it must be exactly 0, and the
#: contract asks for metrics that are never 0, so it travels as the
#: ``failed``/``attempted`` pair of every result and as ``correct``.
LIVE = (
    ("exchanges_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("server_cpu_ms_per_exchange", "ms", "lower"),
    ("client_cpu_ms_per_exchange", "ms", "lower"),
    ("server_peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Live metrics that could not hold a 0.10 bound in the A/A runs on the
#: reference machine (``python -m benchmarks.ledger aa``; spreads in
#: CHANGES.md): demoted to the per-layer set as ``ledger.<name>``, measured
#: there by a shorter live window, rather than given a wider bound.
DEMOTED = (
    "exchanges_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "server_cpu_ms_per_exchange",
    "client_cpu_ms_per_exchange",
)

#: The end-to-end metrics ``BENCHMARK.json`` bounds.
END_TO_END = tuple(entry for entry in LIVE if entry[0] not in DEMOTED)

_PROBES_US = (
    "xdm.build_us",
    "xbs.write_array_us",
    "xbs.read_array_us",
    "bxsa.encode_warm_us",
    "bxsa.decode_warm_us",
    "bxsa.encode_cold_us",
    "bxsa.decode_cold_us",
    "bxsa.stream_write_us",
    "bxsa.stream_decode_us",
    "bxsa.scan_us",
    "xmlcodec.serialize_us",
    "xmlcodec.parse_us",
    "core.envelope.to_document_us",
    "core.envelope.from_document_us",
    "core.policies.encode_us",
    "core.policies.decode_us",
    "core.dispatcher.dispatch_us",
    "core.security.sign_verify_us",
    "transport.http.messages.request_frame_us",
    "transport.http.messages.request_parse_us",
    "transport.http.messages.response_frame_us",
    "transport.http.messages.response_parse_us",
    "transport.http.messages.chunked_roundtrip_us",
    "transport.aio.exchange_us",
    "transport.http.server.exchange_us",
    "transport.sockets.roundtrip_us",
    "serve.pool.roundtrip_us",
    "serve.pool.shed_decision_us",
    "serve.service.memory_exchange_us",
    "fed.cache.key_us",
    "fed.cache.hit_us",
    "fed.balancer.acquire_release_us",
    "obs.trace.null_span_us",
    "obs.propagation.inject_extract_us",
    "ledger.loadgen_overhead_us",
    "ledger.spin_us",
    "ledger.trace_sum_layers_us",
    "ledger.trace_live_p50_us",
    "ledger.trace_residual_us",
)

#: ``(name, unit, better)`` — single layers, from the traced pass; no bounds.
PER_LAYER = tuple((name, "us", "lower") for name in _PROBES_US) + (
    ("bxsa.encode_plan_hit_ratio", "ratio", "higher"),
    ("bxsa.decode_plan_hit_ratio", "ratio", "higher"),
    ("bxsa.wire_bytes", "bytes", "lower"),
    ("xmlcodec.wire_bytes", "bytes", "lower"),
    # traced / untraced exchange rate: 1.0 means the spans cost nothing
    ("ledger.trace_overhead_ratio", "ratio", "higher"),
) + tuple(("ledger." + name, unit, better) for name, unit, better in LIVE if name in DEMOTED)

LIVE_NAMES = tuple(name for name, _unit, _better in LIVE)
END_TO_END_NAMES = tuple(name for name, _unit, _better in END_TO_END)
PER_LAYER_NAMES = tuple(name for name, _unit, _better in PER_LAYER)
