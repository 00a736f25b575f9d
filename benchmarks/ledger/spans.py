"""The ledger's span log: taken outside the program, written in its schema.

Spans are ``perf_counter_ns`` pairs recorded around public calls, held in
memory as plain rows and written once, at the end of the traced pass, as
a ``repro.obs.trace/1`` document — built by the program's own exporter
(:func:`repro.obs.export.build_tree` over :class:`repro.obs.trace.Span`
objects), so ``python -m repro.obs.analyze aggregate`` reads the file
like any ``--trace-out`` trace: one instrument format, not two.

The program's recorder stays the ``NullRecorder`` throughout.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.export import SCHEMA, build_tree
from repro.obs.trace import Span

#: Trace id shared by every span of one traced pass.
_TRACE_ID = 0x1ED6E2


class SpanLog:
    """Append-only rows: name, start, end, parent, exchange id, attributes."""

    def __init__(self) -> None:
        self._rows: list[list] = []

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: int | None,
        exchange: int | None = None, kind: str = "cpu", **attributes,
    ) -> int:
        """Record a finished span; returns its id (usable as a parent)."""
        self._rows.append([name, start_ns, end_ns, parent, exchange, kind, attributes])
        return len(self._rows)  # ids start at 1, as the program's do

    def open(self, name: str, parent: int | None = None, exchange: int | None = None,
             kind: str = "logical", **attributes) -> int:
        """Start a span now; :meth:`close` stamps its end."""
        return self.add(name, time.perf_counter_ns(), 0, parent, exchange, kind, **attributes)

    def close(self, span_id: int) -> int:
        """End an open span now; returns the end timestamp (ns)."""
        end = self._rows[span_id - 1][2] = time.perf_counter_ns()
        return end

    @contextmanager
    def group(self, name: str, parent: int | None = None):
        """A logical span around a block; yields its id for the children."""
        span_id = self.open(name, parent)
        try:
            yield span_id
        finally:
            self.close(span_id)

    def clear(self) -> None:
        """Forget everything logged so far (warm-up is not part of a trace)."""
        del self._rows[:]

    def __len__(self) -> int:
        return len(self._rows)

    def document(self, meta: dict) -> dict:
        """The log as a ``repro.obs.trace/1`` document."""
        thread = threading.current_thread().name
        spans = []
        for index, (name, start, end, parent, exchange, kind, attributes) in enumerate(
            self._rows, start=1
        ):
            if exchange is not None:
                attributes = {"exchange": exchange, **attributes}
            span = Span(name, kind, index, parent, start / 1e9, attributes, thread, _TRACE_ID)
            span.end = end / 1e9
            spans.append(span)
        t0 = min((s.start for s in spans), default=0.0)
        return {
            "schema": SCHEMA,
            "meta": {"t0": t0, "service": "benchmarks.ledger", "origin": "ledger", **meta},
            "spans": build_tree(spans, t0),
            "counters": {},
            "histograms": {},
            "orphan_events": [],
        }

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(meta), fh, separators=(",", ":"))
            fh.write("\n")
