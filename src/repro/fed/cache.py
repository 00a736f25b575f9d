"""Content-addressed response cache with single-flight coalescing.

Responses are keyed by a digest of the *canonical request* — the
operation name plus the encoded request body — so any client asking the
same question gets the cached answer regardless of which replica would
have served it.  Eviction is TTL on read plus LRU by total cached
bytes; concurrent misses for one key collapse into a single upstream
call (the "single flight"), with followers waiting on the leader's
result and inheriting its error if the load fails.

:class:`CachingClient` fronts any SOAP client (``.call(envelope)``) —
typically a :class:`repro.fed.balancer.FederatedClient` — and proves
the "warm hit makes no upstream exchange" property against the
balancer's ``upstream_requests`` counter.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable

from repro import obs
from repro.obs.metrics import MetricsRegistry

_MISS = object()


def request_key(operation: str, encoded_body: bytes) -> str:
    """Digest of the canonical request: operation + encoded body."""
    digest = hashlib.sha256()
    digest.update(operation.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(encoded_body)
    return digest.hexdigest()


def envelope_key(envelope, policy) -> str:
    """Content address of a SOAP envelope under an encoding policy.

    The key covers the operation (body root QName) and the entire
    encoded document — header blocks included, so e.g. differently
    addressed requests never alias.
    """
    operation = envelope.body_root.name.local
    return request_key(operation, bytes(policy.encode(envelope.to_document())))


class _Entry:
    __slots__ = ("value", "size", "expires_at")

    def __init__(self, value, size: int, expires_at: float | None) -> None:
        self.value = value
        self.size = size
        self.expires_at = expires_at


class _Flight:
    """One in-progress load; followers block on ``event``."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class ResponseCache:
    """TTL + LRU-bytes cache with single-flight request coalescing.

    ``clock`` is injectable for deterministic TTL tests; ``ttl_seconds``
    of ``None`` disables expiry.  Plain integer stats (``hits`` /
    ``misses`` / ``coalesced`` / ``evictions``) ride alongside the
    registry metrics so tests can assert without scraping.
    """

    def __init__(
        self,
        *,
        max_bytes: int = 16 << 20,
        ttl_seconds: float | None = 60.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self.metrics = m = metrics if metrics is not None else MetricsRegistry()
        # bound once, not looked up per operation: the registry lists all
        # seven from here on, at zero until their first event
        self._hits_total = m.counter("fed_cache_hits_total")
        self._misses_total = m.counter("fed_cache_misses_total")
        self._coalesced_total = m.counter("fed_cache_coalesced_total")
        self._evictions_total = m.counter_family("fed_cache_evictions_total", ("reason",))
        self._bytes_gauge = m.gauge("fed_cache_bytes")
        self._entries_gauge = m.gauge("fed_cache_entries")
        self._inflight_gauge = m.gauge("fed_cache_inflight")
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._inflight: dict[str, _Flight] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0

    # -- bookkeeping (all called under self._lock) ---------------------

    def _update_gauges(self) -> None:
        self._bytes_gauge.set(self._bytes)
        self._entries_gauge.set(len(self._entries))
        self._inflight_gauge.set(len(self._inflight))

    def _evict_locked(self, key: str, reason: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.size
        self.evictions += 1
        self._evictions_total.labels(reason=reason).add()

    def _get_locked(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            return _MISS
        if entry.expires_at is not None and self.clock() >= entry.expires_at:
            self._evict_locked(key, "ttl")
            return _MISS
        self._entries.move_to_end(key)
        return entry.value

    # -- public surface ------------------------------------------------

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        """Return the cached value or ``None`` (recorded as hit/miss)."""
        with self._lock:
            value = self._get_locked(key)
            if value is _MISS:
                self.misses += 1
                self._misses_total.add()
                self._update_gauges()
                return None
            self.hits += 1
            self._hits_total.add()
            return value

    def put(self, key: str, value, size: int) -> None:
        """Insert/replace ``key``, evicting LRU entries past ``max_bytes``.

        A value larger than the whole cache is not stored at all.
        """
        with self._lock:
            if key in self._entries:
                self._evict_locked(key, "replace")
                self.evictions -= 1  # a replace is not an eviction
            if size > self.max_bytes:
                self._update_gauges()
                return
            expires_at = (
                None if self.ttl_seconds is None else self.clock() + self.ttl_seconds
            )
            self._entries[key] = _Entry(value, size, expires_at)
            self._bytes += size
            while self._bytes > self.max_bytes:
                oldest = next(iter(self._entries))
                self._evict_locked(oldest, "lru")
            self._update_gauges()

    def invalidate(self, key: str) -> bool:
        with self._lock:
            present = key in self._entries
            self._evict_locked(key, "invalidate")
            self._update_gauges()
            return present

    def get_or_load(self, key: str, loader: Callable[[], object], *, size_of=None):
        """Return ``(value, outcome)``; outcome ∈ hit / miss / coalesced.

        On a miss the first caller (the leader) runs ``loader`` outside
        the lock and fills the cache; concurrent callers for the same
        key wait for the leader instead of going upstream.  A leader
        error propagates to every waiter and nothing is cached.
        """
        with self._lock:
            value = self._get_locked(key)
            if value is not _MISS:
                self.hits += 1
                self._hits_total.add()
                return value, "hit"
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight()
                self._inflight[key] = flight
                leader = True
                self.misses += 1
                self._misses_total.add()
            else:
                leader = False
                self.coalesced += 1
                self._coalesced_total.add()
            self._update_gauges()

        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, "coalesced"

        try:
            value = loader()
        except BaseException as exc:
            flight.error = exc
            raise
        else:
            flight.value = value
            size = len(value) if size_of is None else size_of(value)
            self.put(key, value, size)
            return value, "miss"
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._update_gauges()
            flight.event.set()


class CachingClient:
    """Content-addressed caching front for any ``.call(envelope)`` client.

    The cache key is computed with ``encoding`` (default: the wrapped
    client's policy when it exposes one, else XML) — key derivation is
    local work, so a warm hit performs **zero** upstream exchanges.
    Cached entry size is the encoded response length, keeping LRU-bytes
    eviction honest about wire-equivalent footprint.
    """

    def __init__(self, client, cache: ResponseCache, *, encoding=None) -> None:
        self._client = client
        self._cache = cache
        if encoding is None:
            encoding = getattr(client, "encoding", None)
        if encoding is None:
            from repro.core.policies import XMLEncoding

            encoding = XMLEncoding()
        self._encoding = encoding

    @property
    def cache(self) -> ResponseCache:
        return self._cache

    def _response_size(self, response) -> int:
        try:
            return len(bytes(self._encoding.encode(response.to_document())))
        except Exception:
            return 1024  # unencodable response: charge a nominal footprint

    def call(self, envelope, *, deadline=None):
        key = envelope_key(envelope, self._encoding)
        with obs.span(
            "fed.cache_lookup", kind="logical", operation=envelope.body_root.name.local
        ) as span:
            value, outcome = self._cache.get_or_load(
                key,
                lambda: self._client.call(envelope, deadline=deadline),
                size_of=self._response_size,
            )
            span.set("outcome", outcome)
            span.set("key", key[:16])
        return value

    def close(self) -> None:
        close = getattr(self._client, "close", None)
        if close is not None:
            close()
