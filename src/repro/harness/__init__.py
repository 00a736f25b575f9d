"""Experiment harness: regenerates every table and figure of the paper.

Methodology (the substitution DESIGN.md documents): each scheme's response
time is the sum of

* **measured CPU segments** — the real codecs, verification, netCDF and
  file handling execute on this machine and are timed with
  ``perf_counter`` (median of several repeats for small workloads); and
* **modelled wire/disk segments** — computed by :mod:`repro.netsim` from
  the *exact byte counts and round-trip counts the real protocol code
  produces* (HTTP headers are built and measured, the GridFTP client's
  observed stats feed the striped-transfer model).

One module per experiment:

=========  ==========================================  =====================
paper      what                                        module
=========  ==========================================  =====================
Table 1    serialization sizes & overheads             :mod:`~repro.harness.table1`
Figure 4   LAN response time, model size 0..1000       :mod:`~repro.harness.figure4`
Figure 5   LAN bandwidth, model size 1365..5591040     :mod:`~repro.harness.figure5`
Figure 6   WAN bandwidth, same sweep                   :mod:`~repro.harness.figure6`
=========  ==========================================  =====================

Each module exposes ``run(...) -> ExperimentResult`` and can be executed
directly (``python -m repro.harness.figure4``) to print the regenerated
rows/series next to the paper's qualitative expectations.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "SCHEME_BXSA_TCP": "runners",
        "SCHEME_SOAP_GRIDFTP": "runners",
        "SCHEME_SOAP_HTTP_CHANNEL": "runners",
        "SCHEME_XML_HTTP": "runners",
        "SchemeResult": "runners",
        "run_scheme": "runners",
        "ExperimentResult": "report",
        "render_series_table": "report",
        "render_table": "report",
    },
)
