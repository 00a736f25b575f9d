"""Analytic network model standing in for the paper's LAN/WAN testbeds.

The reproduction cannot run on the authors' Indiana↔Chicago testbed, so the
experiment harness splits every response time into

* **measured CPU time** — serialization, parsing, verification, disk I/O
  system calls all execute for real and are timed; and
* **modelled wire time** — computed here from first-order TCP behaviour:
  propagation (RTT), connection setup, slow-start ramp, the per-stream
  window limit (``window/RTT``), the shared bottleneck capacity, parallel-
  stream efficiency, the striped-receive reorder "seek" penalty GridFTP
  shows on a LAN, and a receiver disk bottleneck for file-based channels.

The LAN profile uses the paper's stated 0.2 ms RTT with Fast-Ethernet-class
capacity (the paper's single untuned stream saturates near 10 MB/s); the
WAN profile uses the stated 5.75 ms RTT with an untuned ~24 KiB window
(window/RTT ≈ 4 MB/s, matching the single-stream plateau of Figure 6) over
a wider backbone that only parallel streams can fill.  Parameters are plain
dataclass fields — every number is visible, documented and ablatable.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "FLAKY_LAN": "faults",
        "LOSSLESS": "faults",
        "LOSSY_WAN": "faults",
        "FaultProfile": "faults",
        "FaultSchedule": "faults",
        "FaultingChannel": "faults",
        "InjectedFault": "faults",
        "InjectedReset": "faults",
        "faulty_connect": "faults",
        "LAN": "profiles",
        "WAN": "profiles",
        "DiskModel": "profiles",
        "LinkProfile": "profiles",
        "connection_setup_time": "tcpmodel",
        "request_response_time": "tcpmodel",
        "steady_bandwidth": "tcpmodel",
        "striped_transfer_time": "tcpmodel",
        "transfer_time": "tcpmodel",
        "TimeBreakdown": "clock",
    },
)
