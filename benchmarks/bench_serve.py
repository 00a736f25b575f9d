"""Figure L's connection ladder at bench size: the event-driven core holds
thousands of keep-alive connections and keeps up with the threaded core.

Runs :func:`repro.harness.figure_load.run_ladder` with fewer rungs and
asserts the figure's own shape checks.  Both bounds (the connection floor,
the goodput ratio floor) are constants of the figure module and are stated
nowhere else; the pool's shed-decision and roundtrip costs and the
full-stack exchange are the ledger's ``serve.pool.*`` and
``serve.service.memory_exchange_us`` probes.
"""

import pytest

from repro.harness import figure_load

from benchmarks.conftest import quick_mode

pytestmark = pytest.mark.bench

LADDER_RUNGS = (256, 4096) if quick_mode() else (256, 1024, 4096)
LADDER_REQUESTS_PER_CONN = 2 if quick_mode() else 4


def test_figure_load_ladder_checks():
    result = figure_load.run_ladder(
        rungs=LADDER_RUNGS, requests_per_connection=LADDER_REQUESTS_PER_CONN
    )
    print("\n" + result.render())
    assert result.all_checks_pass, result.render()
