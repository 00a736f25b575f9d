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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "AdmissionQueueFull": "pool",
        "PoolStopped": "pool",
        "ServeError": "pool",
        "WorkerPool": "pool",
        "ServeConfig": "service",
        "SoapServeService": "service",
    },
)
