"""A/A: the whole set, repeated on unchanged code; spread and bounds.

Each repetition uses its own seed (``--seed`` + run index), as the
driver's acceptance runs do, so the spread includes what a different
payload pool does to a metric.  Spread is (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.

Bound rule: ``max(0.05, 3 x worst spread over the workloads)``, never
above :data:`BOUND_CAP`.  (ISSUE 13 says 2 x; the benchmark contract asks
for every spread to stay below a third of its bound, which is the
stricter of the two.)  A metric whose rule value exceeds the cap cannot
hold a bound that means anything: it is listed for demotion to the
per-layer set, and the end-to-end list shrinks rather than the bound
growing.  ``setup_s`` is the exception the contract makes: it must stay
in the list and takes the largest bound allowed.
"""

from __future__ import annotations

from benchmarks.ledger import catalog, cli, stats
from benchmarks.ledger.workloads import WORKLOADS

BOUND_FLOOR = 0.05
BOUND_CAP = 0.10
SPREAD_FACTOR = 3.0
#: The contract's ceiling for any bound; only ``setup_s`` takes it.
SETUP_BOUND = 0.25


def bounds_from(spreads: dict[str, dict[str, dict]]) -> tuple[dict[str, float], list[dict]]:
    """``{metric: bound}`` for the metrics that hold one, and the demoted rest.

    ``spreads[metric][workload]`` is a :func:`benchmarks.ledger.stats.spread`.
    """
    bounds: dict[str, float] = {}
    demoted: list[dict] = []
    for metric in catalog.LIVE_NAMES:
        workload, worst = max(
            ((w, s["spread"]) for w, s in spreads[metric].items()), key=lambda item: item[1]
        )
        if metric == "setup_s":
            bounds[metric] = SETUP_BOUND
            continue
        rule = max(BOUND_FLOOR, SPREAD_FACTOR * worst)
        if rule > BOUND_CAP:
            demoted.append({"metric": metric, "workload": workload, "spread": worst})
        else:
            bounds[metric] = round(rule, 3)
    return bounds, demoted


def benchmark_document(bounds: dict[str, float], run_seconds: int) -> dict:
    """``BENCHMARK.json`` for the given bounds (demoted metrics left out)."""
    return {
        "command": ["python3", "-m", "benchmarks.ledger"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bounds[name]}
            for name, unit, better in catalog.LIVE
            if name in bounds
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in catalog.PER_LAYER
        ],
    }


def run_aa(runs: int, seed: int, seconds: float) -> int:
    if runs < 2:
        raise SystemExit("aa needs at least 2 runs to have a spread")
    values: dict[str, dict[str, list[float]]] = {}
    noisy = 0
    passes = 0
    all_correct = True
    for run in range(runs):
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = cli.run_pass(workload.name, seed + run, seconds, trace)
                passes += 1
                noisy += result["drift"]["noisy"]
                all_correct = all_correct and result["correct"]
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, {}).setdefault(workload.name, []).append(
                        entry["value"]
                    )
                print(
                    f"run {run + 1}/{runs} {workload.name} trace={trace} "
                    f"correct={result['correct']} failed={result['failed']}"
                    + ("  [noisy]" if result["drift"]["noisy"] else ""),
                    flush=True,
                )

    spreads = {
        metric: {w: stats.spread(vals) for w, vals in by_workload.items()}
        for metric, by_workload in values.items()
    }
    print(f"\n{'metric':46s} {'workload':20s} {'median':>14s} {'q1':>14s} {'q3':>14s} spread")
    for metric in catalog.LIVE_NAMES + catalog.PER_LAYER_NAMES:
        for workload, s in spreads[metric].items():
            print(
                f"{metric:46s} {workload:20s} {s['median']:14.4f} {s['q1']:14.4f} "
                f"{s['q3']:14.4f} {s['spread'] * 100:6.2f} %"
            )

    bounds, demoted = bounds_from(spreads)
    print(f"\n{noisy} of {passes} passes labelled themselves noisy "
          f"(ledger.spin_us moved by more than {stats.NOISY_DRIFT:.0%})")
    print("bounds (max(%.2f, %.0f x worst spread), cap %.2f; setup_s takes %.2f):"
          % (BOUND_FLOOR, SPREAD_FACTOR, BOUND_CAP, SETUP_BOUND))
    for metric, bound in bounds.items():
        print(f"  {metric:32s} {bound}")
    for entry in demoted:
        print(f"  DEMOTE {entry['metric']}: spread {entry['spread'] * 100:.2f} % on "
              f"{entry['workload']} cannot hold {BOUND_CAP}")

    document = {
        "schema": cli.SCHEMA,
        "fingerprint": stats.fingerprint(seed, seconds),
        "runs": runs,
        "values": values,
        "spreads": spreads,
        "bounds": bounds,
        "demoted": demoted,
        "noisy_passes": noisy,
        "benchmark_json": benchmark_document(bounds, int(seconds)),
    }
    print(f"result document: {cli.write_document(document, 'aa.json')}")
    return 0 if all_correct else 1
