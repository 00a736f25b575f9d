"""Spans, recorders and the thread-local trace context.

Design constraints, in order:

1. **Disabled must be free.**  Every instrumented call site in the library
   runs on hot paths the paper benchmarks.  The :data:`NULL_RECORDER`
   answers every operation with a shared singleton and no allocation, so
   ``with obs.span(...)`` costs a couple of plain function calls when no
   one is recording.
2. **Threads are first-class.**  The GridFTP stripe workers, the service
   hosts and the fault-injection replays all run code on worker threads.
   The *current span* is thread-local (each thread nests its own spans);
   the recorder's span list is shared under a lock; a worker adopts a
   parent from another thread by passing ``parent=`` explicitly.
3. **Two time domains.**  Measured spans carry monotonic
   ``perf_counter`` start/end stamps.  Accounting spans (made by
   :meth:`TraceRecorder.charge`) carry a modelled duration in
   ``modelled_seconds`` and zero wall width — the netsim clock uses these
   so modelled wire time and measured CPU time coexist in one tree,
   distinguishable by inspection.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.metrics import MetricsRegistry

#: Span kinds used across the library.  Free-form strings are accepted;
#: these are the conventional taxonomy (see DESIGN.md).
SPAN_KINDS = ("cpu", "wire", "disk", "logical")


class TraceContext:
    """One trace's cross-process identity: what travels on the wire.

    ``trace_id`` is a 128-bit integer shared by every span of a
    distributed trace; ``span_id`` is the sender's span that caused the
    receiver's work (its root parents under it when the files are
    joined); ``sampled`` carries the head-sampling decision so client and
    server keep or drop the *same* requests; ``origin`` is the sending
    process's identity (:attr:`TraceRecorder.origin`) — per-process span
    ids are sequential, so a remote parent is only unambiguous as the
    pair ``(origin, span_id)``.
    """

    __slots__ = ("trace_id", "span_id", "sampled", "origin")

    def __init__(
        self,
        trace_id: int,
        span_id: int | None = None,
        sampled: bool = True,
        origin: str = "",
    ) -> None:
        self.trace_id = int(trace_id) & ((1 << 128) - 1)
        self.span_id = span_id
        self.sampled = bool(sampled)
        self.origin = origin

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
            and self.origin == other.origin
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled, self.origin))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id:032x}, span={self.span_id}, "
            f"sampled={self.sampled}, origin={self.origin!r})"
        )


def _derive_trace_id(origin: str, span_id: int) -> int:
    """Deterministic 128-bit trace id for a local root span.

    Pure function of ``(origin, span_id)`` so a recorder with a pinned
    origin (tests, golden files) mints reproducible ids, while the
    random per-process origin makes ids unique across real processes.
    """
    # imported here: the one digest in this module, never reached under
    # NullRecorder, and ``hashlib`` maps OpenSSL (3.6 MiB) into a process
    # that otherwise serves without it (DESIGN.md §10 "process floor")
    import hashlib

    digest = hashlib.md5(f"{origin}:{span_id}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (e.g. one retry attempt)."""

    name: str
    time: float
    attributes: dict = field(default_factory=dict)


class Span:
    """One named time segment.  Mutable until its recorder finishes it."""

    __slots__ = (
        "name",
        "kind",
        "span_id",
        "parent_id",
        "trace_id",
        "thread",
        "start",
        "end",
        "modelled_seconds",
        "attributes",
        "events",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        attributes: dict,
        thread: str = "",
        trace_id: int = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.thread = thread
        self.start = start
        self.end: float | None = None
        self.modelled_seconds: float | None = None
        self.attributes = attributes
        self.events: list[SpanEvent] = []

    # -- annotation ----------------------------------------------------

    def set(self, key: str, value) -> "Span":
        """Attach/overwrite one attribute."""
        self.attributes[key] = value
        return self

    def add_event(self, name: str, at: float, **attributes) -> None:
        self.events.append(SpanEvent(name, at, attributes))

    # -- time ----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Measured wall duration (0.0 while open or for accounting spans)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """The span's reportable duration: modelled if charged, else wall."""
        if self.modelled_seconds is not None:
            return self.modelled_seconds
        return self.wall_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = "modelled" if self.modelled_seconds is not None else "measured"
        return f"<Span #{self.span_id} {self.name!r} kind={self.kind} {src} {self.seconds * 1e3:.3f}ms>"


# ---------------------------------------------------------------------------
# the recording recorder


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


# ---------------------------------------------------------------------------
# the disabled recorder


class _NullSpan:
    """Shared do-nothing span/context manager for the disabled path."""

    __slots__ = ()
    span_id = None
    trace_id = None
    events: tuple = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key, value) -> "_NullSpan":
        return self

    def add_event(self, name, at, **attributes) -> None:
        pass


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram (and family)."""

    __slots__ = ()

    def add(self, n=1) -> None:
        pass

    def inc(self, n=1) -> None:
        pass

    def dec(self, n=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value, exemplar=None) -> None:
        pass

    def labels(self, **values) -> "_NullInstrument":
        return self


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullRecorder:
    """Recorder whose every operation is a no-op (the default)."""

    enabled = False

    def span(self, name, kind="cpu", parent=None, context=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def charge(self, name, seconds, kind="wire", parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name, **attributes) -> None:
        pass

    def counter(self, name, labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name, labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name, bounds=None, labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def current_span(self) -> None:
        return None


NULL_RECORDER = NullRecorder()

# ---------------------------------------------------------------------------
# the active recorder (process-global; worker threads see it too)

_active: TraceRecorder | NullRecorder = NULL_RECORDER

# Per-thread overrides: a recorder pinned to one thread (two logical
# processes sharing one interpreter, as in the distributed-trace smoke)
# and an ambient inbound TraceContext (a context held where no local
# span is open yet, e.g. between extraction and the first span).
_tls = threading.local()


def get_recorder():
    """The recorder instrumented call sites report to right now."""
    override = getattr(_tls, "recorder", None)
    if override is not None:
        return override
    return _active


def set_recorder(recorder):
    """Install ``recorder`` (None → disable); returns the previous one."""
    global _active
    previous = _active
    _active = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def recording(recorder: TraceRecorder | None = None) -> Iterator[TraceRecorder]:
    """Activate a recorder for the block (a fresh one by default)."""
    recorder = recorder if recorder is not None else TraceRecorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@contextmanager
def thread_recorder(recorder: TraceRecorder | None) -> Iterator[TraceRecorder | NullRecorder]:
    """Pin ``recorder`` to the *calling thread* for the block.

    Other threads keep seeing the process-global recorder — this is how
    one interpreter hosts two observed roles at once (a traced client
    thread talking to a traced server whose worker threads report to the
    global recorder).
    """
    recorder = recorder if recorder is not None else NULL_RECORDER
    previous = getattr(_tls, "recorder", None)
    _tls.recorder = recorder
    try:
        yield recorder
    finally:
        _tls.recorder = previous


@contextmanager
def use_context(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``context`` the calling thread's ambient inbound context."""
    previous = getattr(_tls, "context", None)
    _tls.context = context
    try:
        yield context
    finally:
        _tls.context = previous


def current_context() -> TraceContext | None:
    """The context an outbound request should carry right now.

    The active recorder's current span wins (its trace id and span id
    become the callee's parent); otherwise the thread's ambient inbound
    context is forwarded unchanged — which is how an unsampled decision
    still propagates even though nothing local is recording it.
    """
    recorder = get_recorder()
    if recorder.enabled:
        sp = recorder.current_span()
        if sp is not None:
            return TraceContext(sp.trace_id, sp.span_id, True, recorder.origin)
    return getattr(_tls, "context", None)


def current_trace_id() -> str | None:
    """The current span's trace id as 32 hex chars, or None."""
    recorder = get_recorder()
    if recorder.enabled:
        sp = recorder.current_span()
        if sp is not None:
            return f"{sp.trace_id:032x}"
    return None
