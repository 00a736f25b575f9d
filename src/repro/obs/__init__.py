"""``repro.obs`` — zero-dependency tracing and metrics for the whole stack.

The paper's argument rests on *decomposed* cost accounting: CPU time per
encoding phase versus modelled wire time per scheme (Figures 4–6, Table 1).
This package is the one substrate every layer reports into:

* **Spans** (:mod:`repro.obs.trace`; the recording recorder is
  :mod:`repro.obs.recorder`) — named, nested time segments with
  monotonic timestamps, attributes and point events.  Spans nest through a
  thread-local context; a worker thread joins a parent trace by passing the
  parent span explicitly (the GridFTP stripe workers do this).
* **Accounting spans** — zero-duration spans carrying ``seconds`` charged
  from a model rather than measured from a clock.  The netsim
  :class:`~repro.netsim.TimeBreakdown` emits one per charge, so modelled
  wire time and measured CPU time land in one unified trace.
* **Counters and histograms** (:mod:`repro.obs.metrics`) — mergeable
  aggregates for quantities that are not time segments (bytes, retries,
  out-of-order blocks).
* **Export** (:mod:`repro.obs.export`) — a JSON span-tree document (golden
  schema ``repro.obs.trace/1``) and flamegraph-friendly folded stacks.

Recording is opt-in per process: the module-level active recorder defaults
to :data:`NULL_RECORDER`, whose every operation is a no-op returning shared
singletons — the disabled-path cost of an instrumented call site is two
attribute lookups and a no-op context manager, negligible against any real
encode/decode (``benchmarks/bench_obs.py`` keeps this honest).

Usage::

    from repro import obs

    with obs.recording() as recorder:
        with obs.span("exchange", kind="logical", scheme="soap-bxsa-tcp"):
            ...instrumented code runs here...
    trace = recorder.export()          # JSON-ready dict

Call sites inside the library always go through the module-level helpers
(:func:`span`, :func:`event`, :func:`charge`, :func:`counter`,
:func:`histogram`) so they observe whatever recorder is active when they
run — including from worker threads.
"""

from __future__ import annotations

from repro._exports import lazy_exports
from repro.obs.trace import get_recorder  # eager: the helpers below call it on every span

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "append_trace": "export",
        "folded_stacks": "export",
        "read_trace_lines": "export",
        "trace_dict": "export",
        "write_trace": "export",
        "render_prometheus": "exposition",
        "render_varz": "exposition",
        "Counter": "metrics",
        "CounterFamily": "metrics",
        "Gauge": "metrics",
        "GaugeFamily": "metrics",
        "Histogram": "metrics",
        "HistogramFamily": "metrics",
        "LabelCardinalityError": "metrics",
        "MetricsRegistry": "metrics",
        "ALWAYS_SAMPLE": "sampling",
        "HeadSampler": "sampling",
        "NULL_RECORDER": "trace",
        "NullRecorder": "trace",
        "Span": "trace",
        "SpanEvent": "trace",
        "TraceContext": "trace",
        "TraceRecorder": "recorder",
        "current_context": "trace",
        "current_trace_id": "trace",
        "get_recorder": "trace",
        "recording": "trace",
        "set_recorder": "trace",
        "thread_recorder": "trace",
        "use_context": "trace",
    },
)
__all__ += ["charge", "counter", "event", "gauge", "histogram", "span"]


def span(name: str, kind: str = "cpu", parent=None, context=None, **attributes):
    """Open a span on the active recorder (no-op context when disabled)."""
    return get_recorder().span(name, kind=kind, parent=parent, context=context, **attributes)


def event(name: str, **attributes) -> None:
    """Attach a point event to the active recorder's current span."""
    get_recorder().event(name, **attributes)


def charge(name: str, seconds: float, kind: str = "wire", parent=None, **attributes) -> None:
    """Record an accounting span: ``seconds`` charged, not measured."""
    get_recorder().charge(name, seconds, kind=kind, parent=parent, **attributes)


def counter(name: str, labels: dict | None = None):
    """The active recorder's counter ``name`` (no-op sink when disabled)."""
    return get_recorder().counter(name, labels)


def gauge(name: str, labels: dict | None = None):
    """The active recorder's gauge ``name`` (no-op sink when disabled)."""
    return get_recorder().gauge(name, labels)


def histogram(name: str, labels: dict | None = None):
    """The active recorder's histogram ``name`` (no-op sink when disabled)."""
    return get_recorder().histogram(name, labels=labels)
