"""Client-side load balancer fronting N serve replicas.

The balancer owns a view of every replica — outstanding exchanges, an
EWMA of observed latency, probe-reported liveness/readiness, and a
circuit breaker — and picks one per attempt through a pluggable
replica-selection policy.  Replica-selection policy logic lives in this
module only (enforced by ``tools/lint.py``).

:class:`FederatedClient` is the calling side: it replays shed and
failed exchanges through :func:`repro.transport.resilience.retry_call`,
preferring a different replica on each failover, and opens a
``fed.attempt`` span per try so a joined trace shows every replica a
logical request touched.

Health gating follows the liveness/readiness split: the balancer probes
``GET /readyz`` on each replica; a 503 (admission queue saturated)
gates the replica out of selection *before* the server starts shedding,
while a transport error marks it dead until a later probe succeeds.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.transport.base import Channel, TransportError
from repro.transport.http.pipeline import READINESS_TARGET
from repro.transport.resilience import (
    Deadline,
    RetryBudgetExhausted,
    RetryPolicy,
    ServerBusy,
    as_deadline,
    retry_call,
)

#: Default failover budget: up to four attempts gives a request a shot at
#: every replica of a three-node federation plus one retry-after-cooldown.
DEFAULT_FED_RETRY = RetryPolicy(
    max_attempts=4, base_backoff=0.002, backoff_multiplier=2.0, max_backoff=0.05, jitter=0.25
)


class NoReplicaAvailable(TransportError):
    """Every replica is dead or circuit-open; nothing to route to.

    A :class:`TransportError`, so :func:`retry_call` treats it as
    retryable — by the next attempt a cooldown may have half-opened a
    circuit or a probe may have revived a replica.
    """


@dataclass(frozen=True)
class Replica:
    """One serve instance the balancer may route to."""

    name: str
    connect: Callable[[], Channel]
    host: str = "localhost"
    target: str = "/soap"


class RoundRobinPolicy:
    """Cycle through the candidates in order, ignoring load signals."""

    name = "round_robin"

    def __init__(self) -> None:
        self._counter = 0

    def choose_replica(self, candidates: Sequence["_ReplicaState"]) -> "_ReplicaState":
        chosen = candidates[self._counter % len(candidates)]
        self._counter += 1
        return chosen


class LeastOutstandingPolicy:
    """Pick the candidate with the fewest in-flight exchanges.

    Ties rotate round-robin so an idle federation still spreads load.
    """

    name = "least_outstanding"

    def __init__(self) -> None:
        self._counter = 0

    def choose_replica(self, candidates: Sequence["_ReplicaState"]) -> "_ReplicaState":
        start = self._counter % len(candidates)
        self._counter += 1
        ordered = list(candidates[start:]) + list(candidates[:start])
        return min(ordered, key=lambda state: state.outstanding)


#: Weight of the newest completed exchange in a replica's latency EWMA
#: (``ewma_seconds``, the number :class:`EwmaLatencyPolicy` reads).
EWMA_ALPHA = 0.2


class EwmaLatencyPolicy:
    """Weight candidates by EWMA latency scaled by queue depth.

    Cost is ``ewma_seconds * (outstanding + 1)`` — the expected wait if
    one more exchange joins that replica's line.  Unmeasured replicas
    cost nothing, so every replica gets probed before the policy starts
    discriminating; ties rotate like :class:`LeastOutstandingPolicy`.
    """

    name = "ewma_latency"

    def __init__(self) -> None:
        self._counter = 0

    def choose_replica(self, candidates: Sequence["_ReplicaState"]) -> "_ReplicaState":
        start = self._counter % len(candidates)
        self._counter += 1
        ordered = list(candidates[start:]) + list(candidates[:start])

        def cost(state: "_ReplicaState") -> float:
            if state.ewma_seconds is None:
                return 0.0
            return state.ewma_seconds * (state.outstanding + 1)

        return min(ordered, key=cost)


CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half_open"


class _ReplicaState:
    """Mutable per-replica bookkeeping; guarded by the balancer lock."""

    __slots__ = (
        "replica",
        "outstanding",
        "ewma_seconds",
        "consecutive_failures",
        "circuit",
        "open_until",
        "half_open_inflight",
        "live",
        "ready",
        "attempts",
        "failures",
        "busy",
        "completed",
    )

    def __init__(self, replica: Replica) -> None:
        self.replica = replica
        self.outstanding = 0
        self.ewma_seconds: float | None = None
        self.consecutive_failures = 0
        self.circuit = CIRCUIT_CLOSED
        self.open_until = 0.0
        self.half_open_inflight = False
        self.live = True
        self.ready = True
        self.attempts = 0
        self.failures = 0
        self.busy = 0
        self.completed = 0

    @property
    def name(self) -> str:
        return self.replica.name


class Balancer:
    """Route exchanges across replicas with health gating and breaking.

    The breaker opens after ``breaker_threshold`` consecutive transport
    failures (:class:`ServerBusy` does not count — a 503 is back-pressure
    from a live server, not a failure).  After ``breaker_cooldown``
    seconds one half-open trial is admitted; success re-closes the
    circuit, failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        *,
        policy=None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not replicas:
            raise ValueError("Balancer needs at least one replica")
        self._states = [_ReplicaState(replica) for replica in replicas]
        self._by_name = {state.name: state for state in self._states}
        if len(self._by_name) != len(self._states):
            raise ValueError("replica names must be unique")
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self._lock = threading.Lock()
        #: Total exchanges handed to any replica — the plain counter the
        #: cache layer checks to prove a warm hit made no upstream call.
        self.upstream_requests = 0

    def state(self, name: str) -> _ReplicaState:
        return self._by_name[name]

    # -- selection -----------------------------------------------------

    def acquire(self, *, prefer_not: str | None = None) -> _ReplicaState:
        """Pick a replica for one attempt and charge an outstanding slot.

        Selection passes: (1) live, ready, circuit not blocking; (2) if
        empty, live replicas whose circuit allows even if readiness-gated
        (better to queue on a saturated server than fail outright); if
        still empty raise :class:`NoReplicaAvailable`.
        """
        with self._lock:
            now = self.clock()
            admissible = [state for state in self._states if self._admissible(state, now)]
            candidates = [state for state in admissible if state.ready]
            if not candidates:
                candidates = admissible
            if not candidates:
                self.metrics.counter(
                    "fed_no_replica_total",
                ).add()
                raise NoReplicaAvailable(
                    "no replica available: "
                    + ", ".join(
                        f"{state.name}={self._describe(state, now)}" for state in self._states
                    )
                )
            if prefer_not is not None and len(candidates) > 1:
                filtered = [state for state in candidates if state.name != prefer_not]
                if filtered:
                    candidates = filtered
            chosen = self.policy.choose_replica(candidates)
            if chosen.circuit == CIRCUIT_OPEN:
                chosen.circuit = CIRCUIT_HALF_OPEN
                chosen.half_open_inflight = True
            chosen.outstanding += 1
            chosen.attempts += 1
            self.upstream_requests += 1
            self.metrics.counter(
                "fed_attempts_total",
                labels={"replica": chosen.name},
            ).add()
            self.metrics.gauge("fed_replicas_routable").set(len(admissible))
            return chosen

    def _admissible(self, state: _ReplicaState, now: float) -> bool:
        if not state.live:
            return False
        if state.circuit == CIRCUIT_CLOSED:
            return True
        if state.circuit == CIRCUIT_HALF_OPEN:
            return not state.half_open_inflight
        return now >= state.open_until and not state.half_open_inflight

    @staticmethod
    def _describe(state: _ReplicaState, now: float) -> str:
        if not state.live:
            return "dead"
        if state.circuit != CIRCUIT_CLOSED:
            remaining = max(0.0, state.open_until - now)
            return f"{state.circuit}({remaining:.3f}s)"
        if not state.ready:
            return "saturated"
        return "busy"

    # -- outcome reporting ---------------------------------------------

    def release(
        self,
        state: _ReplicaState,
        *,
        ok: bool = False,
        busy: bool = False,
        seconds: float | None = None,
    ) -> None:
        """Report one attempt's outcome: success, 503-busy, or failure."""
        with self._lock:
            state.outstanding = max(0, state.outstanding - 1)
            if busy:
                # Back-pressure from a live server: not a breaker event,
                # and a half-open trial that got a 503 proved liveness.
                state.busy += 1
                self.metrics.counter(
                    "fed_busy_total",
                    labels={"replica": state.name},
                ).add()
                if state.circuit != CIRCUIT_CLOSED:
                    self._close_circuit(state)
            elif ok:
                state.completed += 1
                state.consecutive_failures = 0
                if state.circuit != CIRCUIT_CLOSED:
                    self._close_circuit(state)
                if seconds is not None:
                    if state.ewma_seconds is None:
                        state.ewma_seconds = seconds
                    else:
                        state.ewma_seconds = (
                            EWMA_ALPHA * seconds + (1 - EWMA_ALPHA) * state.ewma_seconds
                        )
            else:
                state.failures += 1
                state.consecutive_failures += 1
                self.metrics.counter(
                    "fed_failures_total",
                    labels={"replica": state.name},
                ).add()
                failed_trial = state.half_open_inflight
                if failed_trial or state.consecutive_failures >= self.breaker_threshold:
                    self._open_circuit(state)
            state.half_open_inflight = False

    def _open_circuit(self, state: _ReplicaState) -> None:
        if state.circuit != CIRCUIT_OPEN:
            self.metrics.counter(
                "fed_circuit_open_total",
                labels={"replica": state.name},
            ).add()
        state.circuit = CIRCUIT_OPEN
        state.open_until = self.clock() + self.breaker_cooldown
        state.half_open_inflight = False

    def _close_circuit(self, state: _ReplicaState) -> None:
        state.circuit = CIRCUIT_CLOSED
        state.open_until = 0.0
        state.half_open_inflight = False
        state.consecutive_failures = 0
        self.metrics.counter(
            "fed_circuit_close_total",
            labels={"replica": state.name},
        ).add()

    # -- health probes -------------------------------------------------

    def probe_all(self, *, timeout: float = 2.0) -> dict[str, str]:
        """Probe ``GET /readyz`` on every replica; returns name → verdict.

        Verdicts: ``"ready"`` (200), ``"saturated"`` (503 — live but
        gated out of the preferred candidate set), ``"down"`` (transport
        error — gated out entirely until a later probe succeeds).
        """
        return {state.name: self._probe_one(state, timeout) for state in self._states}

    def _probe_one(self, state: _ReplicaState, timeout: float) -> str:
        from repro.transport.http.client import HttpClient

        client = HttpClient(state.replica.connect, host=state.replica.host)
        try:
            response = client.get(READINESS_TARGET, deadline=Deadline.after(timeout))
        except ServerBusy:
            verdict = "saturated"
        except Exception:
            verdict = "down"
        else:
            verdict = "ready" if response.status == 200 else "saturated"
        finally:
            client.close()
        with self._lock:
            state.live = verdict != "down"
            state.ready = verdict == "ready"
            if verdict == "down":
                self.metrics.counter(
                    "fed_probe_down_total",
                    labels={"replica": state.name},
                ).add()
        return verdict

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Point-in-time per-replica view for figures, tests, and debug."""
        with self._lock:
            now = self.clock()
            return {
                state.name: {
                    "outstanding": state.outstanding,
                    "attempts": state.attempts,
                    "completed": state.completed,
                    "failures": state.failures,
                    "busy": state.busy,
                    "circuit": state.circuit,
                    "open_for": max(0.0, state.open_until - now)
                    if state.circuit == CIRCUIT_OPEN
                    else 0.0,
                    "live": state.live,
                    "ready": state.ready,
                    "ewma_ms": None
                    if state.ewma_seconds is None
                    else state.ewma_seconds * 1e3,
                }
                for state in self._states
            }


class FederatedClient:
    """A SOAP client that fails over across the balancer's replicas.

    Each logical ``call`` runs under ``retry_call``: every try opens a
    ``fed.attempt`` span (nested in the resilience layer's
    ``resilience.attempt``) tagged with the replica it was routed to, so
    a joined trace shows the full failover path.  After a failed or shed
    attempt the next one prefers a different replica.

    ``replay=True`` (the default) declares exchanges safe to replay on
    another replica even when a connection died mid-exchange; pass
    ``replay=False`` for non-idempotent operations and the client will
    make exactly one attempt.

    When the retry budget is exhausted by back-pressure, the final
    :class:`ServerBusy` is re-raised unwrapped so load generators
    classify the exchange as *shed*, keeping
    offered = completed + shed + failed accounting exact.
    """

    def __init__(
        self,
        balancer: Balancer,
        *,
        encoding=None,
        security=None,
        retry: RetryPolicy | None = None,
        replay: bool = True,
        deadline=None,
        rng: random.Random | None = None,
    ) -> None:
        self._balancer = balancer
        self._encoding = encoding
        self._security = security
        self._retry = retry if retry is not None else DEFAULT_FED_RETRY
        self._replay = replay
        self._deadline = deadline
        self._rng = rng if rng is not None else random.Random()
        self._clients: dict[str, object] = {}
        self._clients_lock = threading.Lock()

    @property
    def balancer(self) -> Balancer:
        return self._balancer

    def _client_for(self, state: _ReplicaState):
        from repro.core.client import SoapHttpClient

        with self._clients_lock:
            client = self._clients.get(state.name)
            if client is None:
                replica = state.replica
                client = SoapHttpClient(
                    replica.connect,
                    encoding=self._encoding,
                    security=self._security,
                    target=replica.target,
                    host=replica.host,
                )
                self._clients[state.name] = client
            return client

    def _drop_client(self, name: str) -> None:
        with self._clients_lock:
            client = self._clients.pop(name, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def call(self, envelope, *, deadline=None):
        deadline = as_deadline(deadline if deadline is not None else self._deadline)
        last_replica: list[str | None] = [None]

        def attempt(number: int) -> object:
            state = self._balancer.acquire(prefer_not=last_replica[0])
            if number > 1:
                self._balancer.metrics.counter("fed_failovers_total").add()
            last_replica[0] = state.name
            with obs.span(
                "fed.attempt", kind="logical", replica=state.name, attempt=number
            ) as span:
                client = self._client_for(state)
                started = time.perf_counter()
                try:
                    response = client.call(envelope, deadline=deadline)
                except ServerBusy:
                    span.set("outcome", "busy")
                    self._balancer.release(state, busy=True)
                    raise
                except BaseException:
                    span.set("outcome", "error")
                    self._balancer.release(state)
                    # The connection may be wedged mid-exchange; rebuild it.
                    self._drop_client(state.name)
                    raise
                else:
                    span.set("outcome", "ok")
                    self._balancer.release(
                        state, ok=True, seconds=time.perf_counter() - started
                    )
                    return response

        def may_retry(exc: Exception, number: int) -> bool:
            return self._replay

        try:
            return retry_call(
                attempt,
                self._retry,
                deadline=deadline,
                may_retry=may_retry,
                rng=self._rng,
                metrics=self._balancer.metrics,
            )
        except RetryBudgetExhausted as exc:
            if isinstance(exc.last_error, ServerBusy):
                raise exc.last_error from exc
            raise

    def close(self) -> None:
        with self._clients_lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except Exception:
                pass
