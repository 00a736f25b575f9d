"""Minimal HTTP/1.1 client with persistent connections.

Plays the role libcurl plays in the paper's separated scheme: the
verification server uses it to pull netCDF files off the data channel, and
the SOAP ``HttpBinding`` uses it to POST envelopes.

Failure semantics (the part the seed got wrong): a request is re-sent
after a :class:`~repro.transport.base.TransportError` only when **both**
hold — the request is idempotent (by method, or explicitly marked per
call), and *no response bytes were consumed* before the failure.  Once any
response byte has been read the server has demonstrably processed the
request, and replaying a non-idempotent POST would apply it twice.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from repro import obs
from repro.obs import propagation
from repro.transport.base import BufferedChannel, Channel, TransportError
from repro.transport.http.messages import (
    BodyPieces,
    HttpRequest,
    HttpResponse,
    _Headers,
    drain_stream,
    read_response,
)
from repro.transport.instrument import ChannelStats, InstrumentedChannel
from repro.transport.resilience import (
    Deadline,
    DeadlineChannel,
    RetryPolicy,
    as_deadline,
    retry_call,
)

#: Methods that are idempotent by definition (RFC 9110 §9.2.2); POST and
#: PATCH requests retry only when the caller marks the call idempotent.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS", "TRACE"})

#: Default policy: one reconnect-and-resend, no backoff — the classic
#: stale-persistent-connection recovery, now gated on idempotency.
DEFAULT_HTTP_RETRY = RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)


class HttpClient:
    """One logical connection to one HTTP server.

    ``connect`` is a zero-argument factory returning a fresh
    :class:`~repro.transport.base.Channel`; the client reconnects lazily
    when the server closed the previous connection.  ``retry`` shapes the
    reconnect-and-resend behaviour for calls that are allowed to retry.
    """

    def __init__(
        self,
        connect: Callable[[], Channel],
        host: str = "localhost",
        *,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._connect = connect
        self._host = host
        self._retry = retry if retry is not None else DEFAULT_HTTP_RETRY
        self._rng = random.Random()
        self._channel: BufferedChannel | None = None
        self._shim: DeadlineChannel | None = None
        self._stats: ChannelStats | None = None
        #: The last response, while its chunked body may be on the channel.
        self._unread: HttpResponse | None = None

    # ------------------------------------------------------------------

    def request(
        self,
        method: str,
        target: str,
        *,
        body: bytes | BodyPieces | Iterable[bytes] = b"",
        headers: dict[str, str] | None = None,
        trailers: dict[str, str] | None = None,
        idempotent: bool | None = None,
        deadline: float | Deadline | None = None,
        retry: RetryPolicy | None = None,
    ) -> HttpResponse:
        """Send one request, read one response, under the retry policy.

        ``idempotent`` defaults by method (:data:`IDEMPOTENT_METHODS`);
        pass ``True`` to mark an individually-safe POST (e.g. a SOAP
        operation known to be read-only) as replayable.  ``deadline``
        bounds the whole call — connect, retries and backoff included.

        ``body`` is one buffer or a ``BodyPieces``, sent by reference with
        the head in one gathered send, or an *iterable* of byte pieces: that
        is sent chunked, pulled as the socket accepts bytes, so a producer
        larger than memory never materializes (``trailers`` ride after the
        last chunk).  A partially-consumed body iterable can never be
        re-sent, so such a request stops retrying the moment the first
        piece is pulled, regardless of idempotency.

        A chunked response body is read by the caller, under ``deadline``
        (``response.body`` whole, ``response.stream`` piece by piece); what
        it leaves unread is drained before this client's next request.
        """
        if idempotent is None:
            idempotent = method.upper() in IDEMPOTENT_METHODS
        policy = retry if retry is not None else self._retry
        dl = as_deadline(deadline)

        with obs.span("http.request", kind="cpu", method=method, target=target) as sp:
            req = HttpRequest(method, target)
            req.headers.set("Host", self._host)
            for name, value in (headers or {}).items():
                req.headers.set(name, value)
            # propagate the trace context (this request span — or the
            # ambient inbound context when nothing local records) so the
            # server's root span joins the caller's trace
            ctx = propagation.outbound_context(sp)
            if ctx is not None:
                propagation.inject_headers(req.headers, ctx)

            consumed = {"response_bytes": False, "body_pulled": False}
            streamed_body = not isinstance(body, (bytes, bytearray, memoryview, BodyPieces))
            if streamed_body:
                source = iter(body)

                def pulled() -> Iterable[bytes]:
                    for piece in source:
                        consumed["body_pulled"] = True
                        yield piece

                req.stream = pulled()
                if trailers:
                    req.trailers = _Headers(list(trailers.items()))
                wire = None
            else:
                # head and body by reference, gathered into one send: no
                # copy of the caller's buffer, and a small request is still
                # one segment (two would cost the server a second wake-up)
                req.body = body
                wire = list(req.iter_wire())
            sp.set("bytes", sum(map(len, wire or ())))

            def attempt(_n: int) -> HttpResponse:
                channel = self._ensure_channel()
                assert self._shim is not None and self._stats is not None
                self._shim.deadline = dl
                try:
                    if wire is not None:
                        channel.send_pieces(wire)
                    else:
                        for piece in req.iter_wire():
                            channel.send_all(piece)
                    mark = self._stats.bytes_received
                    try:
                        return read_response(channel)
                    except TransportError:
                        if self._stats.bytes_received > mark:
                            consumed["response_bytes"] = True
                        raise
                except TransportError:
                    self._drop_channel()
                    raise

            def may_retry(_exc: BaseException, _attempt: int) -> bool:
                return (
                    idempotent
                    and not consumed["response_bytes"]
                    and not consumed["body_pulled"]
                )

            response = retry_call(
                attempt, policy, deadline=dl, may_retry=may_retry, rng=self._rng
            )
            sp.set("status", response.status)

        self._unread = response
        if response.stream is None:
            self._finish_unread()  # nothing left to read: settle it now
        return response

    def get(self, target: str, **kwargs) -> HttpResponse:
        return self.request("GET", target, **kwargs)

    def post(self, target: str, body: bytes | BodyPieces, **kwargs) -> HttpResponse:
        return self.request("POST", target, body=body, **kwargs)

    def close(self) -> None:
        self._drop_channel()

    # ------------------------------------------------------------------

    def _ensure_channel(self) -> BufferedChannel:
        if self._unread is not None:
            self._finish_unread()
        if self._channel is None:
            instrumented = InstrumentedChannel(self._connect())
            self._stats = instrumented.stats
            self._shim = DeadlineChannel(instrumented)
            self._channel = BufferedChannel(self._shim)
        return self._channel

    def _finish_unread(self) -> None:
        """Drain what the last response's caller left of its chunked body;
        drop the channel if that failed or the response said ``close``."""
        response, self._unread = self._unread, None
        try:
            drain_stream(response)
        except TransportError:
            self._drop_channel()  # its framing is lost: never reuse it
            return
        if (response.headers.get("Connection") or "").lower() == "close":
            self._drop_channel()

    def _drop_channel(self) -> None:
        self._unread = None
        if self._channel is not None:
            self._channel.close()
            self._channel = None
            self._shim = None
            self._stats = None
