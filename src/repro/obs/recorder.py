"""The recording :class:`TraceRecorder`: spans, events and metrics kept.

A module of its own, apart from :mod:`repro.obs.trace`, because a serving
process runs under the null recorder and never builds one: it loads the
span types, the context helpers and the disabled path, not this.  Loaded
by whoever records — ``obs.recording()`` when it has to build a recorder,
``repro.obs.TraceRecorder`` through the package's lazy table.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import _NULL_SPAN, Span, SpanEvent, TraceContext


def _derive_trace_id(origin: str, span_id: int) -> int:
    """Deterministic 128-bit trace id for a local root span.

    Pure function of ``(origin, span_id)`` so a recorder with a pinned
    origin (tests, golden files) mints reproducible ids, while the
    random per-process origin makes ids unique across real processes.
    """
    # imported here: only a local root span mints an id, and ``hashlib``
    # maps OpenSSL (3.6 MiB) into a process that otherwise runs without it
    # (DESIGN.md §10 "process floor")
    import hashlib

    digest = hashlib.md5(f"{origin}:{span_id}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


class TraceRecorder:
    """Collects spans, events, counters and histograms for one trace.

    Thread-safe: spans may be opened/closed concurrently from any number
    of threads.  Each thread nests spans on its own stack; cross-thread
    parentage is explicit (``span(..., parent=parent_span)``).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        service: str = "",
        origin: str | None = None,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 1
        self.spans: list[Span] = []
        #: Events recorded while no span was current on the calling thread.
        self.orphan_events: list[SpanEvent] = []
        self.metrics = MetricsRegistry()
        self._local = threading.local()
        #: Human label for the process/role this recorder observes
        #: (e.g. "client", "serve"); lands in the trace file's meta.
        self.service = service
        #: Process identity for cross-file span references.  Random per
        #: recorder by default; pin it for reproducible trace files.
        self.origin = origin if origin is not None else os.urandom(4).hex()

    # -- context plumbing ----------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(
        self,
        name: str,
        kind: str,
        parent,
        attributes: dict,
        context: TraceContext | None = None,
    ) -> Span:
        stack = self._stack()
        trace_id = 0
        if context is not None:
            # Join the caller's trace.  A context from this same process
            # (pool hand-offs) names a real local span we can parent
            # under; a remote one leaves the span a root and records the
            # (origin, span_id) join keys for cross-file assembly.
            parent_id = None
            if context.origin and context.origin == self.origin and context.span_id:
                parent_id = context.span_id
            elif context.span_id:
                attributes.setdefault("trace.remote_origin", context.origin)
                attributes.setdefault("trace.remote_span", context.span_id)
            trace_id = context.trace_id
        elif parent is not None:
            parent_id = getattr(parent, "span_id", None)
            trace_id = getattr(parent, "trace_id", 0) or 0
        else:
            parent_id = stack[-1].span_id if stack else None
            if stack:
                trace_id = stack[-1].trace_id
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if not trace_id:
                trace_id = _derive_trace_id(self.origin, span_id)
            span = Span(
                name,
                kind,
                span_id,
                parent_id,
                self._clock(),
                attributes,
                thread=threading.current_thread().name,
                trace_id=trace_id,
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        # tolerate exotic exits (a generator span finalized on another
        # thread): remove the span wherever it sits instead of corrupting
        # the nesting of unrelated spans
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    # -- public API -----------------------------------------------------

    def span(self, name: str, kind: str = "cpu", parent=None, context=None, **attributes):
        """Open a span; closes (stamps ``end``) when the block exits.

        ``context=`` joins an incoming :class:`TraceContext`: the span
        adopts its trace id (and, for a same-process context, its parent
        span).  A context whose ``sampled`` flag is off suppresses the
        span entirely — the shared null span is returned, so the server
        side of an unsampled request records nothing, matching the
        client's head-sampling decision.
        """
        if context is not None and not context.sampled:
            return _NULL_SPAN
        return self._span_cm(name, kind, parent, context, attributes)

    @contextmanager
    def _span_cm(self, name, kind, parent, context, attributes) -> Iterator[Span]:
        sp = self._open(name, kind, parent, attributes, context)
        try:
            yield sp
        except BaseException as exc:
            sp.attributes.setdefault("error", type(exc).__name__)
            raise
        finally:
            self._close(sp)

    def charge(
        self, name: str, seconds: float, kind: str = "wire", parent=None, **attributes
    ) -> Span:
        """Record an accounting span of modelled duration ``seconds``."""
        sp = self._open(name, kind, parent, attributes)
        sp.modelled_seconds = float(seconds)
        self._close(sp)
        sp.end = sp.start  # zero wall width: the time is charged, not spent
        return sp

    def event(self, name: str, **attributes) -> None:
        """Attach a point event to the calling thread's current span."""
        now = self._clock()
        current = self.current_span()
        if current is not None:
            current.add_event(name, now, **attributes)
        else:
            with self._lock:
                self.orphan_events.append(SpanEvent(name, now, attributes))

    def counter(self, name: str, labels=None):
        return self.metrics.counter(name, labels)

    def gauge(self, name: str, labels=None):
        return self.metrics.gauge(name, labels)

    def histogram(self, name: str, bounds=None, labels=None):
        return self.metrics.histogram(name, bounds, labels)

    def export(self, meta: dict | None = None) -> dict:
        """The trace as a JSON-ready dict (see :mod:`repro.obs.export`)."""
        from repro.obs.export import trace_dict

        return trace_dict(self, meta=meta)
