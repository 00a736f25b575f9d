"""Retry, timeout and deadline policies for transport operations.

Nothing in the seed stack had a deadline: a stalled peer hung the caller
forever, and the only retry logic (the HTTP client's stale-connection
resend) could duplicate non-idempotent SOAP invocations.  This module is
the one place those policies live:

* :class:`Deadline` — an absolute must-finish-by point, threaded from
  :meth:`SoapEngine.call <repro.core.engine.SoapEngine.call>` through the
  bindings down to individual channel reads;
* :class:`DeadlineChannel` — a channel wrapper enforcing a deadline at
  every operation boundary (channels here cannot be interrupted mid-read,
  so the check runs before and after each blocking call — enough to bound
  finite stalls and multi-read framed messages);
* :class:`RetryPolicy` — attempt budget plus exponential backoff with
  jitter;
* :func:`retry_call` — the generic retry loop, with a ``may_retry`` hook
  where idempotency rules live (a caller that has consumed response bytes
  for a non-idempotent request must veto the retry).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.transport.base import Channel, TransportError, recv_into, send_pieces


class DeadlineExceeded(TransportError):
    """A per-call deadline expired before the operation finished."""


class ServerBusy(TransportError):
    """The server shed this request (HTTP 503 or equivalent overload signal).

    ``retry_after`` carries the server's backoff hint in seconds (parsed
    from a ``Retry-After`` header when one was sent, else ``None``).  The
    retry loop honours the hint: when an exception being retried exposes a
    ``retry_after`` attribute, that delay replaces the policy's computed
    exponential backoff — the server knows its own drain rate better than
    the client's guess does.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def parse_retry_after(value: str | None) -> float | None:
    """Parse the seconds form of a ``Retry-After`` header value.

    Accepts integer or decimal seconds; the HTTP-date form and garbage
    both return ``None`` (no hint) rather than failing the response.
    """
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


class RetryBudgetExhausted(TransportError):
    """Every attempt a :class:`RetryPolicy` allowed has failed.

    The last underlying failure is chained as ``__cause__`` and kept on
    :attr:`last_error`; :attr:`attempts` records how many were made.
    """

    def __init__(self, message: str, attempts: int, last_error: BaseException) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class Deadline:
    """An absolute point in time a call must finish by."""

    __slots__ = ("_at", "_clock")

    def __init__(self, at: float, clock: Callable[[], float] = time.monotonic) -> None:
        self._at = at
        self._clock = clock

    @classmethod
    def after(cls, seconds: float, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(clock() + seconds, clock)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(math.inf)

    def remaining(self) -> float:
        """Seconds left; negative once expired, ``inf`` for never."""
        return self._at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the deadline has passed."""
        if self.expired:
            raise DeadlineExceeded(f"deadline exceeded during {what}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


def as_deadline(value) -> Deadline | None:
    """Normalize the public ``deadline=`` parameter.

    Accepts ``None`` (no deadline), a number of seconds from now, or a
    :class:`Deadline` (passed through so one budget can span several
    operations).
    """
    if value is None or isinstance(value, Deadline):
        return value
    return Deadline.after(float(value))


class DeadlineChannel:
    """Channel wrapper enforcing a (mutable) deadline per operation.

    The :attr:`deadline` slot is rebindable so one wrapper can sit
    permanently in a connection's channel stack while each call installs
    its own budget (and clears it afterwards).
    """

    def __init__(self, channel: Channel, deadline: Deadline | None = None) -> None:
        self._channel = channel
        self.deadline = deadline

    def send_all(self, data: bytes) -> None:
        if self.deadline is not None:
            self.deadline.check("send")
        self._channel.send_all(data)
        if self.deadline is not None:
            self.deadline.check("send")

    def send_pieces(self, pieces) -> None:
        if self.deadline is not None:
            self.deadline.check("send")
        send_pieces(self._channel, pieces)
        if self.deadline is not None:
            self.deadline.check("send")

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self.deadline is not None:
            self.deadline.check("receive")
        chunk = self._channel.recv(max_bytes)
        if self.deadline is not None:
            self.deadline.check("receive")
        return chunk

    def recv_into(self, view: memoryview) -> int:
        if self.deadline is not None:
            self.deadline.check("receive")
        got = recv_into(self._channel, view)
        if self.deadline is not None:
            self.deadline.check("receive")
        return got

    def close(self) -> None:
        self._channel.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and backoff shape for one class of operation."""

    #: Total attempts including the first (1 = no retries).
    max_attempts: int = 3
    #: Backoff before the second attempt, seconds.
    base_backoff: float = 0.005
    #: Multiplier applied per further attempt (exponential backoff).
    backoff_multiplier: float = 2.0
    #: Ceiling on any single backoff, seconds.
    max_backoff: float = 0.25
    #: Random spread as a fraction of the computed backoff (full jitter
    #: band ``[1-jitter, 1+jitter]``); deterministic under a seeded rng.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff times must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff to sleep after failed ``attempt`` (1-based)."""
        raw = min(
            self.max_backoff,
            self.base_backoff * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter and raw:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


def retry_call(
    fn: Callable[[int], object],
    policy: RetryPolicy | None = None,
    *,
    deadline: Deadline | None = None,
    retryable: Callable[[BaseException], bool] | None = None,
    may_retry: Callable[[BaseException, int], bool] | None = None,
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = time.sleep,
    metrics=None,
) -> object:
    """Run ``fn(attempt)`` under a retry budget and optional deadline.

    ``fn`` receives the 1-based attempt number.  A raised exception is
    retried when *all* of these hold:

    * ``retryable(exc)`` (default: any :class:`TransportError` that is not
      a :class:`DeadlineExceeded` — a blown deadline is terminal);
    * attempts remain in the budget;
    * the deadline (when given) still has room for the backoff;
    * ``may_retry(exc, attempt)`` consents (the idempotency hook).

    Exhausting the budget after more than one attempt raises
    :class:`RetryBudgetExhausted` chaining the last failure; a first-attempt
    failure that may not be retried propagates unwrapped.

    When the exception being retried exposes a ``retry_after`` attribute
    (see :class:`ServerBusy`), that hint replaces the policy's computed
    backoff for the pause before the next attempt — jitter and the
    exponential schedule are server-overridden, the deadline check is not.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) additionally counts
    ``resilience_retries_total{error}`` per retry and
    ``resilience_exhausted_total{error}`` per spent budget — labelled,
    process-lifetime counters, where the ``obs`` ones live and die with
    the active trace recorder.
    """
    policy = policy if policy is not None else RetryPolicy()
    rng = rng if rng is not None else random.Random()
    if retryable is None:
        retryable = lambda exc: isinstance(exc, TransportError)  # noqa: E731
    for attempt in range(1, policy.max_attempts + 1):
        try:
            # each try gets its own child span so a traced request shows
            # where each attempt's time went; the retry.attempt/exhausted
            # events stay on the enclosing span (emitted after this one
            # closed), which is what the analysis tooling keys on
            with obs.span("resilience.attempt", kind="logical", attempt=attempt):
                return fn(attempt)
        except DeadlineExceeded:
            raise
        except Exception as exc:
            if not retryable(exc):
                raise
            if may_retry is not None and not may_retry(exc, attempt):
                raise
            if attempt >= policy.max_attempts:
                obs.event(
                    "retry.exhausted", attempts=attempt, error=type(exc).__name__
                )
                if metrics is not None:
                    metrics.counter(
                        "resilience_exhausted_total",
                        labels={"error": type(exc).__name__},
                    ).add()
                if attempt == 1:
                    raise
                raise RetryBudgetExhausted(
                    f"operation failed after {attempt} attempts: {exc}", attempt, exc
                ) from exc
            pause = policy.backoff_for(attempt, rng)
            # a server-supplied Retry-After hint wins over the computed
            # exponential backoff: the shedding side knows its drain rate
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                pause = max(0.0, float(hint))
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= pause:
                    raise DeadlineExceeded(
                        f"deadline would expire during backoff after attempt {attempt}"
                    ) from exc
            # the retry is happening: record the failed attempt and the
            # backoff it cost on the enclosing span
            obs.event(
                "retry.attempt",
                attempt=attempt,
                error=type(exc).__name__,
                backoff=pause,
            )
            obs.counter("resilience.retries").add()
            if metrics is not None:
                metrics.counter(
                    "resilience_retries_total", labels={"error": type(exc).__name__}
                ).add()
            if pause:
                sleep(pause)
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class ResiliencePolicy:
    """Bundle of retry + deadline + idempotency for one SOAP client/engine.

    Handing this to :class:`~repro.core.engine.SoapEngine` turns transport
    failures into bounded retries and, when the budget is spent, a
    ``soap:Server`` fault — graceful degradation instead of a raw
    transport exception.
    """

    retry: RetryPolicy = RetryPolicy()
    #: Default per-call budget in seconds (None = no deadline).
    deadline: float | None = None
    #: Whether this engine's calls may be replayed after a transport
    #: failure.  Non-idempotent calls are never retried by the engine.
    idempotent: bool = False
