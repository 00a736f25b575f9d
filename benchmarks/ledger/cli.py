"""Command line of the exchange ledger.

::

    python -m benchmarks.ledger --seed S              # all four workloads, both passes
    python -m benchmarks.ledger --smoke               # the same with 2 s windows
    python -m benchmarks.ledger aa --runs 5           # A/A spread and the bounds it implies
    python -m benchmarks.ledger --workload small_bxsa --seed 3 --seconds 30 --trace 0

The last form is the one ``BENCHMARK.json`` names: one workload, one
pass (``--trace 0`` live and untraced, ``--trace 1`` traced), and as the
last line of standard output one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math

from benchmarks.ledger import catalog, stats
from benchmarks.ledger.layers import EXCHANGE_STEPS, traced_pass
from benchmarks.ledger.live import live_pass
from benchmarks.ledger.paths import OUT
from benchmarks.ledger.workloads import BY_NAME, WORKLOADS

#: The timed window of every pass (``run_seconds`` in ``BENCHMARK.json``).
WINDOW_SECONDS = 30
SMOKE_SECONDS = 2
#: A result document's schema tag.
SCHEMA = "benchmarks.ledger/1"


def run_pass(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload, one pass; the result carries its own verdict."""
    workload = BY_NAME[workload_name]
    if trace:
        result = traced_pass(workload, seed, seconds)
        m = result["metrics"]
        total = m["ledger.trace_sum_layers_us"]["value"]
        residual = m["ledger.trace_residual_us"]["value"]
        live = m["ledger.trace_live_p50_us"]["value"]
        # residual < 0 means the probes ran on a slower machine than the
        # live loop did (the host moves by 1.5x within seconds): reported,
        # but not held against the program's correctness
        result["reconciled"] = residual >= 0 and math.isclose(
            total + residual, live, rel_tol=1e-9
        )
        names = catalog.PER_LAYER_NAMES
    else:
        result = live_pass(workload, seed, seconds)
        names = catalog.LIVE_NAMES
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise AssertionError(f"{workload_name}: metrics not produced: {missing}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    result["correct"] = (
        result["failed"] == 0
        and result["attempted"] == result["completed"] + result["failed"]
    )
    return result


def driver_object(result: dict) -> dict:
    """The contract's result line: only the metrics ``BENCHMARK.json`` names."""
    names = (
        catalog.END_TO_END_NAMES if result["pass"] == "live" else catalog.PER_LAYER_NAMES
    )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }


def render(result: dict) -> list[str]:
    """Every metric by name with its unit, plus how it was obtained."""
    name = result["workload"]
    lines = [f"[{name}] {result['pass']} pass"]
    for metric, entry in {**result["metrics"], **result.get("extras", {})}.items():
        lines.append(f"  {name:20s} {metric:46s} {entry['value']:16.4f} {entry['unit']}")
    lines.append(
        f"  {name:20s} attempted {result['attempted']} = completed {result['completed']}"
        f" + failed {result['failed']}"
        + (f"  failed_share {result['failed_share']:.6f}" if "failed_share" in result else "")
    )
    if result["pass"] == "live":
        lines.append(
            f"  {name:20s} {result['connections']} connections (= threads, = nproc), "
            f"{result['latency_samples']} latency samples, p99 over "
            f"{result['p99_segments']} segment(s)"
            + ("" if result["p99_enough_samples"] else " [too few samples beyond p99]")
            + f", pool {result['pool_digest'][:12]}"
        )
    else:
        m = result["metrics"]
        floor = result["core_floor"]
        lines.append(
            f"  {name:20s} reconciliation: sum of {len(EXCHANGE_STEPS)} layer steps "
            f"{m['ledger.trace_sum_layers_us']['value']:.1f} us + residual "
            f"{m['ledger.trace_residual_us']['value']:.1f} us = live p50 "
            f"{m['ledger.trace_live_p50_us']['value']:.1f} us  "
            f"(read the residual against {floor} = {m[floor]['value']:.1f} us)"
            + ("" if result["reconciled"] else "  [NOT RECONCILED]")
        )
        lines.append(
            f"  {name:20s} {result['spans']} spans -> {result['trace_file']}"
        )
    drift = result["drift"]
    lines.append(
        f"  {name:20s} machine drift {drift['drift'] * 100:.1f} % "
        f"(ledger.spin_us {drift['spin_before_us']:.1f} -> {drift['spin_after_us']:.1f})"
        + ("  [noisy]" if drift["noisy"] else "")
    )
    if result["errors"]:
        lines.append(f"  {name:20s} errors: {result['errors']}")
    return lines


def run_driver(args) -> int:
    result = run_pass(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(stats.fingerprint(args.seed, args.seconds)))
    print("\n".join(render(result)))
    print(json.dumps(driver_object(result)))
    return 0


def run_ledger(seed: int, seconds: float) -> dict:
    """Both passes of every workload, as one result document."""
    document = {
        "schema": SCHEMA,
        "fingerprint": stats.fingerprint(seed, seconds),
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {}
        for trace, label in ((0, "live"), (1, "traced")):
            entry[label] = result = run_pass(workload.name, seed, seconds, trace)
            print("\n".join(render(result)), flush=True)
        document["workloads"][workload.name] = entry
    document["correct"] = all(
        entry[label]["correct"]
        for entry in document["workloads"].values()
        for label in ("live", "traced")
    )
    return document


def write_document(document: dict, name: str) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(document, indent=1) + "\n")
    return str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("command", nargs="?", choices=("aa",),
                        help="aa: repeat the whole set on unchanged code and derive bounds")
    parser.add_argument("--seed", type=int, default=0, help="seed of the payload pools (>= 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window per pass (default {WINDOW_SECONDS})")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows: checks the plumbing, not the numbers")
    parser.add_argument("--runs", type=int, default=5, help="aa: repetitions of the whole set")
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one workload and end with the contract's JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = live pass, 1 = traced pass")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else WINDOW_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.command == "aa":
        from benchmarks.ledger.aa import run_aa

        return run_aa(args.runs, args.seed, args.seconds)
    if args.workload:
        return run_driver(args)

    print(json.dumps(stats.fingerprint(args.seed, args.seconds)))
    document = run_ledger(args.seed, args.seconds)
    path = write_document(document, f"ledger_seed{args.seed}.json")
    print(f"result document: {path}")
    print("all replies verified, accounting exact"
          if document["correct"] else "LEDGER NOT CORRECT: see errors above")
    return 0 if document["correct"] else 1
