"""Trace export: the span-tree JSON document and folded flamegraph stacks.

The JSON document is the stable, golden-tested surface (schema tag
``repro.obs.trace/1``); ``tests/test_obs.py`` pins its shape.  Timestamps
are exported relative to the earliest span start so documents are
reproducible-looking and diffable; the raw monotonic origin is kept in
``meta.t0`` for correlating multiple traces from one process.
"""

from __future__ import annotations

import json
import threading

SCHEMA = "repro.obs.trace/1"

#: One writer at a time per process: concurrent handlers exporting their
#: traces (or appending to a shared file) must not interleave bytes.
_write_lock = threading.Lock()


def _span_dict(span, t0: float) -> dict:
    out = {
        "id": span.span_id,
        "trace_id": f"{span.trace_id:032x}",
        "name": span.name,
        "kind": span.kind,
        "thread": span.thread,
        "start": round(span.start - t0, 9),
        "seconds": span.seconds,
        "modelled": span.modelled_seconds is not None,
        "attributes": dict(span.attributes),
        "events": [
            {"name": e.name, "at": round(e.time - t0, 9), "attributes": dict(e.attributes)}
            for e in span.events
        ],
        "children": [],
    }
    if span.modelled_seconds is None:
        out["wall_seconds"] = span.wall_seconds
    return out


def build_tree(spans, t0: float | None = None) -> list[dict]:
    """Nest flat spans into parent→children trees (roots returned).

    Spans whose parent is missing from the list (e.g. a filtered export)
    are promoted to roots rather than dropped.
    """
    if t0 is None:
        t0 = min((s.start for s in spans), default=0.0)
    by_id = {s.span_id: _span_dict(s, t0) for s in spans}
    roots: list[dict] = []
    for span in spans:  # spans are appended in start order: children follow parents
        node = by_id[span.span_id]
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def trace_dict(recorder, meta: dict | None = None) -> dict:
    """The full trace document for a :class:`~repro.obs.recorder.TraceRecorder`."""
    spans = list(recorder.spans)
    t0 = min((s.start for s in spans), default=0.0)
    metrics = recorder.metrics.snapshot()
    return {
        "schema": SCHEMA,
        "meta": {
            "t0": t0,
            "service": getattr(recorder, "service", ""),
            "origin": getattr(recorder, "origin", ""),
            **(meta or {}),
        },
        "spans": build_tree(spans, t0),
        "counters": metrics["counters"],
        "histograms": metrics["histograms"],
        "orphan_events": [
            {"name": e.name, "at": round(e.time - t0, 9), "attributes": dict(e.attributes)}
            for e in recorder.orphan_events
        ],
    }


def write_trace(path: str, recorder, meta: dict | None = None) -> dict:
    """Serialize the trace document to ``path``; returns the document."""
    document = trace_dict(recorder, meta=meta)
    with _write_lock:
        with open(path, "w") as fh:
            json.dump(document, fh, indent=1, default=str)
            fh.write("\n")
    return document


def append_trace(path: str, recorder, meta: dict | None = None) -> dict:
    """Append the trace as one compact JSONL line (concurrency-safe).

    Concurrent handlers exporting to one shared file serialize on the
    process-wide writer lock, and each document is a single
    newline-terminated line, so the result always parses line-by-line —
    no interleaving even under N parallel requests.
    """
    document = trace_dict(recorder, meta=meta)
    line = json.dumps(document, default=str, separators=(",", ":"))
    with _write_lock:
        with open(path, "a") as fh:
            fh.write(line + "\n")
    return document


def read_trace_lines(path: str) -> list[dict]:
    """Parse a JSONL trace file written by :func:`append_trace`."""
    documents = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                documents.append(json.loads(line))
    return documents


# ---------------------------------------------------------------------------
# flamegraph folded stacks


def folded_stacks(recorder) -> list[str]:
    """``root;child;leaf <microseconds>`` lines (self time per stack).

    Feed to any flamegraph renderer.  Self time is the span's reportable
    duration minus its children's (clamped at zero: accounting children
    under a measured parent can legitimately exceed the parent's wall
    time — modelled seconds are not wall seconds).
    """
    spans = list(recorder.spans)
    by_id = {s.span_id: s for s in spans}
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_seconds[span.parent_id] = child_seconds.get(span.parent_id, 0.0) + span.seconds

    def stack_of(span) -> str:
        names = [span.name]
        seen = {span.span_id}
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        while parent is not None and parent.span_id not in seen:
            names.append(parent.name)
            seen.add(parent.span_id)
            parent = by_id.get(parent.parent_id) if parent.parent_id is not None else None
        return ";".join(reversed(names))

    lines = []
    for span in spans:
        self_seconds = max(0.0, span.seconds - child_seconds.get(span.span_id, 0.0))
        lines.append(f"{stack_of(span)} {int(round(self_seconds * 1e6))}")
    return lines
