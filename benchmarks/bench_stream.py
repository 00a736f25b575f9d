"""Figure S at bench size: the streaming pipeline's TTFB, peak-memory and
signing-cost claims.

Runs :func:`repro.harness.figure_stream.run` over a short sweep and asserts
the figure's own shape checks.  The bounds (peak <= 4 transfer chunks,
buffered TTFB >= 5x streamed, signing <= 6x the unsigned total) are
constants of the figure module and are stated nowhere else.
"""

import pytest

from repro.harness import figure_stream

from benchmarks.conftest import quick_mode

pytestmark = pytest.mark.bench

SIZES_MIB = (1, 64) if quick_mode() else (1, 8, 64)


def test_figure_stream_checks():
    result = figure_stream.run(sizes_mib=SIZES_MIB, buffered_cap_mib=SIZES_MIB[-1])
    print("\n" + result.render())
    assert result.all_checks_pass, result.render()
