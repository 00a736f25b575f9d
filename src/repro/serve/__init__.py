"""``repro.serve`` — the serving-under-load runtime.

The paper's evaluation is one client against one server; the ROADMAP's
north star is a production engine surviving heavy concurrent traffic.
This package is the piece that makes "surviving" a designed behaviour
rather than an accident of thread scheduling:

* :class:`~repro.serve.pool.WorkerPool` — bounded workers behind an
  explicit admission queue, constant-time load shedding, graceful drain;
* :class:`~repro.serve.service.SoapServeService` — the SOAP/HTTP host
  rebuilt on the pool: same wire behaviour as
  :class:`~repro.core.service.SoapHttpService`, plus ``503`` +
  ``Retry-After`` past the queue depth, per-worker warm codec sessions,
  and saturation gauges on ``GET /metrics``.

:mod:`repro.loadgen` generates the traffic that exercises this package;
``repro.harness.figure_load`` turns the pair into the throughput–latency
companion result to Figures 4–6.
"""

from repro.serve.pool import (
    AdmissionQueueFull,
    PoolStopped,
    ServeError,
    WorkerPool,
)


def __getattr__(name: str):
    # The hosts are resolved on first use, not at package import: the
    # HTTP request pipeline imports ``repro.serve.pool`` (this package),
    # and ``repro.serve.service`` imports the pipeline — an eager import
    # here would close that loop while the pipeline is half-initialised.
    if name in ("ServeConfig", "SoapServeService"):
        from repro.serve import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissionQueueFull",
    "PoolStopped",
    "ServeConfig",
    "ServeError",
    "SoapServeService",
    "WorkerPool",
]
