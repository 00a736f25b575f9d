"""Regenerate every experiment and write EXPERIMENTS.md.

Usage::

    python -m repro.harness.run_all [output-path]

Runs Table 1 and Figures 4-6 with the paper's full parameter sweeps,
prints each rendered result, and writes the paper-vs-measured record to
``EXPERIMENTS.md`` (or the given path).
"""

from __future__ import annotations

import platform
import sys

from repro.harness import (
    extension_attachments,
    extension_rtt,
    figure4,
    figure5,
    figure6,
    figure_fed,
    figure_load,
    figure_stream,
    table1,
)
from repro.harness.calibration import cpu_scale
from repro.harness.report import ExperimentResult

#: The paper's own numbers, quoted next to ours in the output.
PAPER_CONTEXT = {
    "Table 1": (
        "(model size 1000): native 12000 B (0%), BXSA 12156 B (+1.3%), "
        "netCDF 12268 B (+2.2%), XML 1.0 23896 B (+99.1%)."
    ),
    "Figure 4": (
        "(LAN, 0.2 ms RTT): BXSA/TCP lowest and almost flat; XML/HTTP "
        "cheap when tiny but rising past SOAP+HTTP before model size 1000; "
        "SOAP+HTTP a fixed offset above the unified schemes; SOAP+GridFTP "
        "flat near 0.25 s, dominated by authentication."
    ),
    "Figure 5": (
        "(LAN): BXSA/TCP best throughout, saturating at ~960K pairs/s "
        "(a single untuned TCP stream); SOAP+HTTP slightly lower (netCDF "
        "disk I/O); GridFTP converging as auth amortizes, with parallel "
        "streams slightly *hurting* on the LAN; XML/HTTP near zero."
    ),
    "Figure 6": (
        "(WAN, 5.75 ms RTT): ordering partially flips — GridFTP's "
        "16 parallel streams escape the single-stream window limit and win "
        "at the large end, while BXSA/TCP and SOAP+HTTP sit together at the "
        "single-stream ceiling."
    ),
    "Extension A": (
        "(§6 footnote 1, asserted without measurement): the attachment "
        "solution 'in terms of performance should be close to SOAP with "
        "HTTP data channel'.  We test both packaging variants of the era."
    ),
    "Extension B": (
        "(implicit in the paper): Figures 5 and 6 are two points of one curve; "
        "the crossover RTT should sit near window/capacity."
    ),
    "Figure L": (
        "(beyond the paper's one-client evaluation): under open-loop "
        "overload a production engine must degrade by shedding rather than "
        "collapse, and BXSA's cheaper codec should let the same worker pool "
        "sustain higher goodput at saturation than XML 1.0 — the "
        "serving-side companion to the Figures 4-6 response-time results."
    ),
    "Figure S": (
        "(beyond the paper's buffered exchanges): §4's streamed container "
        "profile only pays off if no layer re-buffers the message — the "
        "writer, the HTTP framing, the signature layer and the decoder "
        "must all run in O(chunk) memory, and the first byte must leave "
        "before the last byte is produced.  Chunk signing follows Kohring "
        "& Lo Iacono's non-blocking streaming-signature construction."
    ),
    "Figure F": (
        "(beyond the paper's single-endpoint deployment): a grid service "
        "is many replicas, not one — following the data-federation "
        "deployments the paper targets, a client-side balancer plus a "
        "content-addressed cache should (a) serve a warm hit with zero "
        "upstream exchanges, (b) sustain aggregate goodput a saturated "
        "single node sheds, and (c) survive a replica's abrupt death "
        "without losing an exchange."
    ),
}


def run_all() -> list[ExperimentResult]:
    results = [
        table1.run(),
        figure4.run(),
        figure5.run(),
        figure6.run(),
        extension_attachments.run(),
        extension_rtt.run(),
        figure_load.run(),
        figure_stream.run(),
        figure_fed.run(),
    ]
    return results


def to_markdown(results: list[ExperimentResult]) -> str:
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerated with `python -m repro.harness.run_all` "
        "(equivalently: `pytest benchmarks/ --benchmark-only`).",
        "",
        "Methodology: response time = **measured CPU** (real codecs, netCDF,",
        "verification and file handling on this machine, median of repeats,",
        f"scaled by the CPU-era factor {cpu_scale():g} — see",
        "`repro/harness/calibration.py`) + **modelled wire/disk time**",
        "(`repro.netsim`, parameterized with the paper's RTTs and era-",
        "plausible capacities; every constant documented in",
        "`repro/netsim/profiles.py`).  Absolute numbers are therefore not",
        "comparable to the paper's testbed; the *shape checks* under each",
        "table encode the comparisons that are.",
        "",
        f"Environment: Python {platform.python_version()}, {platform.machine()}.",
        "",
        "Lossy-link replays: every figure accepts a `fault_profile` — e.g.",
        "`figure4.run(fault_profile=FLAKY_LAN, fault_seed=1)` with",
        "`from repro.netsim.faults import FLAKY_LAN` — which re-runs each",
        "exchange *live* through a seeded fault-injecting channel (connection",
        "resets, truncated sends, stalls, slow reads; see",
        "`repro/netsim/faults.py`) with bounded retries, and charges the",
        "observed recovery attempts as extra wire time (`wire: fault",
        "retries` in the breakdown).  The tables below are the lossless",
        "baseline.",
        "",
        "Serving under load: `python -m repro.harness.figure_load` drives",
        "the bounded worker-pool runtime (`repro.serve`) with the open-loop",
        "generator (`repro.loadgen`) and draws the throughput-latency curve",
        "per encoding.  Knobs: `--workers` / `--queue-depth` size the pool",
        "and its admission queue, `--requests` sets the samples per rung,",
        "`--seed` fixes the arrival schedule and payload, `--rates` pins",
        "absolute arrival rates (rps) instead of the default ladder of",
        "0.5/1/2/4x the measured closed-loop XML/HTTP capacity, and",
        "`--json-out` writes every point's goodput, p50/p95/p99 and exact",
        "offered = completed + shed + failed accounting as JSON.  Read the",
        "curve as: below capacity goodput tracks offered load and nothing",
        "sheds; past capacity goodput plateaus at the scheme's capacity,",
        "p95 grows toward the queue bound, and the excess is answered with",
        "`503` + `Retry-After` (the shed% column) — never with errors or",
        "unbounded queueing.",
        "",
        "Streaming large messages: `python -m repro.harness.figure_stream`",
        "measures the chunked pipeline — sink-driven `BXSAStreamWriter`",
        "behind a bounded producer queue, HTTP/1.1 chunked",
        "Transfer-Encoding through the threaded server and client,",
        "optional per-chunk HMAC signing verified in flight, incremental",
        "`StreamDecoder` consumption — against the buffered baseline that",
        "assembles the whole message before the first byte moves.  Knobs:",
        "`--sizes` (MiB rungs), `--buffered-cap` (largest size the",
        "buffered mode is asked to carry), `--chunk-kib`, `--queue-depth`,",
        "`--json-out`.  Read the table as: streamed TTFB and peak memory",
        "stay flat as the message grows (peak ≤ 4 transfer chunks, signed",
        "or not) while the buffered column's TTFB and peak grow linearly",
        "with the payload.  The bounds are constants of `figure_stream.py`",
        "and stated nowhere else: `benchmarks/bench_stream.py` runs this",
        "figure at bench size and asserts these checks, `tools/smoke.py",
        "stream` runs its 64 MiB streamed points (plus a tamper check).",
        "",
        "Federated data plane: `python -m repro.harness.figure_fed` runs a",
        "3-replica federation behind `repro.fed` — the client-side load",
        "balancer (round-robin / least-outstanding / EWMA-latency policies,",
        "`/readyz`-gated health probes, per-replica circuit breakers,",
        "failover replayed through `retry_call`), the content-addressed",
        "response cache (TTL + LRU-bytes, single-flight coalescing) and",
        "multi-source striped transfers with per-stripe digests.  Knobs:",
        "`--quick` shrinks every section, `--skip-subprocess` drops the",
        "multi-process goodput run, `--seed` fixes payload choice and",
        "arrival schedules, `--json-out` dumps every cell.  Read it as: the",
        "matrix shows goodput rising and upstream exchanges falling as the",
        "hit ratio grows (a warm hit is verified to make *zero* upstream",
        "exchanges against the balancer's request counter); the goodput",
        "rows show one node shedding the offered rate a 3-node federation",
        "completes; the node-kill row shows exact accounting with nothing",
        "failed while a replica dies mid-load.  `tools/smoke.py fed` runs",
        "the 3-process cluster (one killed) as a verify-flow step and",
        "`benchmarks/bench_fed.py` runs the goodput and warm-hit sections at",
        "bench size, asserting this figure's checks (the floor is its constant).",
        "",
        "Hot-path codec sessions: the figures above time the *cold*",
        "per-message codec cost (`session=False`), matching the paper's",
        "one-shot exchanges.  Sustained same-shape traffic instead rides",
        "`repro.bxsa.CodecSession`'s compiled plans in both directions:",
        "encode plans replay pre-rendered constant byte runs, and decode",
        "plans — keyed by a structural fingerprint of the byte stream —",
        "replay pre-resolved QNames, scalar slots and zero-copy array views",
        "with every structural byte memcmp'd, the first reuse",
        "structure-checked against the stateless decoder, and divergent",
        "shapes poisoned to the slow path.  `benchmarks/bench_hotpath.py`",
        "prints cold/warm microseconds per direction (cold/warm encode and",
        "decode columns plus enc/dec/roundtrip ratios) and asserts the",
        "ratios; absolute warm times are the exchange ledger's",
        "`bxsa.encode_warm_us` / `bxsa.decode_warm_us`",
        "(`python3 -m benchmarks.ledger`).",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        context = PAPER_CONTEXT.get(result.experiment_id)
        if context:
            lines.append(f"**Paper:** {context}")
            lines.append("")
        lines.append("**Measured:**")
        lines.append("")
        lines.append("```text")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
        verdict = "all shape checks PASS" if result.all_checks_pass else "SHAPE CHECK FAILURES — see above"
        lines.append(f"**Verdict:** {verdict}.")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    output = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    results = run_all()
    for result in results:
        print(result.render())
        print()
    markdown = to_markdown(results)
    with open(output, "w") as fh:
        fh.write(markdown)
    print(f"wrote {output}")
    return 0 if all(r.all_checks_pass for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
