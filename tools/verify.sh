#!/bin/sh
# One-command verification: lint, tier-1 tests, smokes, benches, the ledger.
#
#   sh tools/verify.sh          # the full gate
#   sh tools/verify.sh --fast   # lint + tests + smokes only
#
# Exits non-zero on the first failing step and leaves the tree as it found
# it: quick-mode benches write nothing under benchmarks/results/, the
# ledger writes under the ignored benchmarks/ledger/out/.

set -e
cd "$(dirname "$0")/.."

echo "== lint =="
python tools/lint.py

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== smokes: serving (both drivers), stream pipeline, distributed trace, federation =="
python tools/smoke.py all

if [ "$1" != "--fast" ]; then
    echo "== benches: hot path, Figure L ladder, Figure S, Figure F, observability =="
    PYTHONPATH=src:. REPRO_BENCH_QUICK=1 python -m pytest -q \
        benchmarks/bench_hotpath.py benchmarks/bench_serve.py \
        benchmarks/bench_stream.py benchmarks/bench_fed.py benchmarks/bench_obs.py \
        -k "not bench_obs or TelemetryOverhead or PropagationOverhead"

    echo "== exchange ledger smoke (four workloads, 2 s windows) =="
    python3 -m benchmarks.ledger --smoke
fi

echo "verify: PASS"
