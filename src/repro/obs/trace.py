"""Spans, the null recorder and the thread-local trace context.

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
   :meth:`~repro.obs.recorder.TraceRecorder.charge`) carry a modelled duration in
   ``modelled_seconds`` and zero wall width — the netsim clock uses these
   so modelled wire time and measured CPU time coexist in one tree,
   distinguishable by inspection.

The recording recorder is :mod:`repro.obs.recorder`'s: a process that
never records never loads it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.obs.recorder import TraceRecorder

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
    process's identity (:attr:`~repro.obs.recorder.TraceRecorder.origin`) — per-process span
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
    if recorder is None:
        from repro.obs.recorder import TraceRecorder

        recorder = TraceRecorder()
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
