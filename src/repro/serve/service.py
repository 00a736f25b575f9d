"""The production SOAP serving runtime: worker pool + admission control.

:class:`SoapHttpService <repro.core.service.SoapHttpService>` runs every
exchange inline on the connection thread that received it — fine for the
harness, fatal under heavy concurrent traffic, where unbounded in-flight
work means collapse instead of degradation.  :class:`SoapServeService` is
the same host (same routing, negotiation, RED metrics and admin surface)
configured with a :class:`~repro.serve.pool.WorkerPool`, so the request
pipeline's admit stage queues or sheds:

* at most ``config.workers`` exchanges execute at once and at most
  ``config.queue_depth`` more wait; anything past that is **shed** with
  ``503`` + ``Retry-After: config.retry_after`` — the hint
  :func:`repro.transport.resilience.retry_call` paces its retry on;
* each worker holds its own warm encoding policies (for BXSA a long-lived
  :class:`~repro.bxsa.session.CodecSession` with compiled encode *and*
  decode plans), so same-shape traffic rides the hot path both ways
  without sharing codec state across threads;
* :meth:`SoapServeService.stop` drains: the driver finishes in-flight
  requests (the pool is still running while it does), then the pool
  drains its queue, then both are gone.

Saturation telemetry rides the shared registry: ``serve_queue_depth`` /
``serve_workers_busy`` / ``serve_saturation`` gauges and ``serve_shed_total``
/ ``serve_admitted_total`` / ``serve_completed_total{status}`` counters
appear on ``GET /metrics`` next to the SOAP RED series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dispatcher import Dispatcher
from repro.core.policies import NegotiatedPolicies
from repro.core.service import SoapHttpService
from repro.obs.metrics import MetricsRegistry
from repro.serve.pool import WorkerPool
from repro.transport.base import Listener
from repro.transport.http.pipeline import RequestPipeline
from repro.transport.http.server import DEFAULT_MAX_CONNECTIONS, HttpServer


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving runtime (all bounds explicit)."""

    #: Worker threads executing SOAP exchanges.
    workers: int = 4
    #: Admission queue depth: exchanges allowed to wait for a worker.
    queue_depth: int = 16
    #: ``Retry-After`` hint sent with every shed response, seconds.
    retry_after: float = 0.05
    #: Budget for draining admitted work on stop, seconds.
    drain_timeout: float = 5.0
    #: Ceiling on one exchange's wait for its pooled result, seconds.
    result_timeout: float = 30.0
    #: Concurrent connection-thread cap for the underlying HTTP server.
    max_connections: int | None = DEFAULT_MAX_CONNECTIONS
    #: Serving core: ``"threaded"`` (one thread per connection) or
    #: ``"aio"`` (one selector loop for all connections; needs a
    #: socket-backed listener).  The pool discipline is identical.
    core: str = "threaded"
    #: Readiness threshold: ``GET /readyz`` answers 503 once the admission
    #: queue is at least this fraction full, so a load balancer probing
    #: readiness stops routing here *before* shedding starts.  Liveness
    #: (``/healthz``) is unaffected.
    ready_queue_fraction: float = 0.75


class SoapServeService(SoapHttpService):
    """SOAP over HTTP behind a bounded worker pool with load shedding.

    The same host as :class:`~repro.core.service.SoapHttpService` — same
    ``route``/``exchange``/``shed`` — configured with a pool (so the
    pipeline's admit stage queues or sheds) and with the driver
    ``config.core`` names.
    """

    def __init__(
        self,
        listener: Listener,
        dispatcher: Dispatcher,
        *,
        config: ServeConfig | None = None,
        security=None,
        target: str = "/soap",
        name: str = "soap-serve",
        metrics: MetricsRegistry | None = None,
        admin: bool = True,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        super().__init__(
            listener,
            dispatcher,
            security=security,
            target=target,
            name=name,
            metrics=metrics,
            admin=admin,
        )

    def _make_server(self, listener: Listener, name: str, admin: bool):
        config = self.config
        if config.core == "threaded":
            driver = HttpServer
        elif config.core == "aio":
            # deferred import: the aio module needs real sockets and is
            # only pulled in when an embedder asks for the selector core
            from repro.transport.aio import AsyncHttpServer as driver
        else:
            raise ValueError(
                f"unknown serving core {config.core!r}"
                " (expected 'threaded' or 'aio')"
            )
        # one registry across pool + pipeline + driver: GET /metrics on
        # this port scrapes saturation, RED and HTTP series together
        self.pool = WorkerPool(
            config.workers,
            config.queue_depth,
            metrics=self.metrics,
            name=name,
            # one warm policy cache per worker: same-shape traffic rides
            # the compiled plans with no codec state shared across threads
            worker_state_factory=NegotiatedPolicies,
            retry_after=config.retry_after,
        )
        pipeline = RequestPipeline(
            self,
            name=name,
            metrics=self.metrics,
            admin=admin,
            readiness=self._readiness,
            pool=self.pool,
            result_timeout=config.result_timeout,
        )
        return driver(
            listener, pipeline, name=name, max_connections=config.max_connections
        )

    # ------------------------------------------------------------------

    @property
    def address(self):
        """The listener's bound address — valid before :meth:`start`.

        ``TcpListener`` binds and listens in its constructor, so an
        embedder may publish this address (and peers may connect) before
        the serving loop runs: no sleep-polling for ephemeral ports.
        Listeners without an address (memory pipes) return ``None``.
        """
        return getattr(self._listener, "address", None)

    def _readiness(self) -> tuple[bool, dict]:
        """Readiness probe for ``GET /readyz``.

        Not-ready once the admission queue crosses
        ``config.ready_queue_fraction`` of its capacity (or the pool
        stops accepting) — a balancer probing this stops routing here
        before requests start getting shed.
        """
        capacity = self.pool.queue_depth
        depth = self.pool.queue_size
        threshold = max(1, int(capacity * self.config.ready_queue_fraction))
        ready = self.pool.accepting and depth < threshold
        return ready, {
            "queue_depth": depth,
            "queue_capacity": capacity,
            "ready_threshold": threshold,
            "workers_busy": self.pool.busy_workers,
            "retry_after": self.config.retry_after,
        }

    def start(self) -> "SoapServeService":
        self.pool.start()
        self._server.start()
        return self

    def stop(self) -> None:
        """Graceful drain: HTTP first (pool still serving), then the pool."""
        self._server.stop(self.config.drain_timeout)
        self.pool.stop(self.config.drain_timeout)
