"""Small statistics, the machine fingerprint and the drift probe."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

import numpy as np

from benchmarks.ledger.paths import ROOT

#: A run whose before/after drift probes differ by more than this share
#: labels itself noisy (scratch probes saw ~35 % CPU drift minutes apart).
NOISY_DRIFT = 0.10

LOOPBACK = (
    "traffic crosses the host loopback interface (127.0.0.1), not a real link: "
    "wire latency and link rate are not measured"
)


def spread(values) -> dict:
    """Median, quartiles and (Q3 - Q1) / median, as the driver computes them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def spin_us(repeats: int = 31) -> float:
    """Median time of a fixed pure-Python + numpy loop, microseconds.

    Nothing in it depends on the program under test, so a change in this
    number between two points of a run is the machine moving, not the code.
    """
    block = np.arange(50_000, dtype="f8")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(5_000):
            acc += (i * i) % 7
        float((block * 1.0001).sum()) + acc
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / 1e3


def drift(before_us: float, after_us: float) -> dict:
    share = abs(after_us - before_us) / min(before_us, after_us)
    return {
        "spin_before_us": before_us,
        "spin_after_us": after_us,
        "drift": share,
        "noisy": share > NOISY_DRIFT,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from its own ``.git`` only (no subprocess:
    a checkout that is not a repository must not report a parent's commit)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint(seed: int, seconds: float) -> dict:
    """What a ``BENCH_<pr>.json`` trajectory entry needs to be comparable."""
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "window_seconds": seconds,
        "loopback": LOOPBACK,
    }


def server_cpu_seconds(pid: int) -> float:
    """utime + stime of a process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # the command name (field 2) may hold spaces: split after its ')'
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def server_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
