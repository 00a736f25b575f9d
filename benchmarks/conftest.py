"""Shared benchmark fixtures and result spooling.

Every ``bench_table*/bench_figure*`` benchmark regenerates its experiment
and writes the rendered table (with shape-check verdicts) to
``benchmarks/results/<experiment>.txt`` so the artifacts survive pytest's
output capture.  ``REPRO_BENCH_QUICK=1`` shrinks the sweeps for smoke runs
and writes nothing: a tracked table is always a full-mode one.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def spool_result(results_dir: pathlib.Path, name: str, rendered: str) -> None:
    """Keep a full-mode table; a quick run never replaces one."""
    if not quick_mode():
        (results_dir / f"{name}.txt").write_text(rendered + "\n")
