"""Where the ledger finds the program it measures and writes its output."""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout root (``benchmarks/ledger/paths.py`` is two levels down).
ROOT = Path(__file__).resolve().parents[2]
#: The program under test; the ledger imports it from source, never installed.
SRC = ROOT / "src"
#: Result documents and trace files (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


def require_program() -> None:
    """Put ``src/`` on ``sys.path``, or exit 2 when there is no program.

    The benchmark is meaningless without the checkout it belongs to: in a
    directory holding only ``BENCHMARK.json`` and this package it must
    fail loudly instead of measuring some other installed ``repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        sys.exit(2)
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def child_env() -> dict[str, str]:
    """Environment for child processes: same interpreter, same sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env
