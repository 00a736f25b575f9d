"""Figure F at bench size: federation goodput scaling and the warm cache hit.

Runs two sections of :mod:`repro.harness.figure_fed` — the same offered
rate at one node and at a 3-node federation (real ``repro.fed.node``
processes over TCP), and two identical calls through the cache — and
asserts the figure's own shape checks over them.  The 1.5x goodput floor
is a constant of the figure module and is stated nowhere else; a warm
hit's cost in microseconds is the ledger's ``fed.cache.key_us`` +
``fed.cache.hit_us``.
"""

import pytest

from repro.harness import figure_fed

from benchmarks.conftest import quick_mode

pytestmark = pytest.mark.bench

GOODPUT_RATE = 200.0 if quick_mode() else 220.0
GOODPUT_TOTAL = 200 if quick_mode() else 440


def test_figure_fed_checks():
    checks = [
        figure_fed.warm_hit_check(figure_fed.warm_hit_upstream_check()),
        figure_fed.goodput_check(
            figure_fed.federation_goodput(rate=GOODPUT_RATE, total=GOODPUT_TOTAL, seed=0)
        ),
    ]
    rendered = "\n".join(check.render() for check in checks)
    print("\n" + rendered)
    assert all(check.passed for check in checks), rendered
