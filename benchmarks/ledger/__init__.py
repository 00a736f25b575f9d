"""The exchange ledger: the repository's benchmark (see ``README.md`` here).

Four fixed closed-loop workloads against a real ``SoapServeService`` in a
child process over loopback TCP, reported as eight end-to-end metrics
(live pass, tracing off) and a per-layer table (traced pass) whose sum is
reconciled with the live latency.  ``BENCHMARK.json`` at the repository
root names the command, the workloads, the metrics and their bounds.

Nothing in this package is imported by ``src/repro``; it only calls the
public functions of each layer from outside.
"""
