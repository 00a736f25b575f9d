"""``repro.loadgen`` — seeded open/closed-loop SOAP load generation.

See :mod:`repro.loadgen.generator` for the two traffic disciplines; the
harness (``repro.harness.figure_load``) sweeps :func:`open_loop` across
an arrival-rate ladder to draw throughput–latency curves per
encoding×binding scheme.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "LATENCY_BOUNDS": "generator",
        "LoadResult": "generator",
        "arrival_schedule": "generator",
        "closed_loop": "generator",
        "open_loop": "generator",
        "LadderResult": "ladder",
        "drive_connections": "ladder",
    },
)
