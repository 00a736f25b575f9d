#!/bin/sh
# One-command verification: lint, tier-1 tests, benchmark regression guard.
#
#   sh tools/verify.sh          # the full gate
#   sh tools/verify.sh --fast   # skip the bench guard (lint + tests only)
#
# Exits non-zero on the first failing step.  The bench guard runs in
# --check mode: it never reseeds or rolls the baseline, so this script is
# safe to run on any checkout.

set -e
cd "$(dirname "$0")/.."

echo "== lint =="
python tools/lint.py

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== smokes: serving (both drivers), stream pipeline, distributed trace, federation =="
python tools/smoke.py all

if [ "$1" != "--fast" ]; then
    echo "== hot-path bench smoke =="
    PYTHONPATH=src:. REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_hotpath.py -q

    echo "== serving-runtime bench smoke =="
    PYTHONPATH=src:. REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_serve.py -q

    echo "== streaming-pipeline bench smoke =="
    PYTHONPATH=src:. REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_stream.py -q

    echo "== federated data-plane bench smoke =="
    PYTHONPATH=src:. REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_fed.py -q

    echo "== observability bench smoke =="
    PYTHONPATH=src:. REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_obs.py -q \
        -k "TelemetryOverhead or PropagationOverhead"

    echo "== bench guard =="
    python tools/bench_guard.py --check
fi

echo "verify: PASS"
