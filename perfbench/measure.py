"""Process and host measurements: CPU time, peak RSS, CPU steal, the
latency percentile rule, and the host-noise record."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import time
from typing import Sequence

import numpy

try:
    import scipy
except ImportError:  # scipy is optional for the program too
    scipy = None

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

P90_MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it."""


def process_cpu_s() -> float:
    """User + system CPU of this process (all its threads)."""
    return time.process_time()


def reaped_children_cpu_s() -> float:
    """User + system CPU of every child process already waited for."""
    times = os.times()
    return times.children_user + times.children_system


def live_children_cpu_s() -> float:
    """User + system CPU so far of the live multiprocessing children,
    read from ``/proc/<pid>/stat`` (they are not reaped yet, so
    ``os.times`` cannot see them)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited between the listing and the read
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def _live_children_peak_kb() -> int:
    peak = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak


def peak_rss_mb() -> float:
    """The largest peak RSS of this process, its reaped children and its
    live multiprocessing children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped, _live_children_peak_kb()) / 1024.0


def steal_ticks() -> int:
    """Host-wide CPU steal ticks so far (``/proc/stat``); 0 where the
    kernel does not report steal."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90_or_none(values: Sequence[float]) -> float | None:
    """The 90th percentile, or ``None`` when fewer than
    :data:`P90_MIN_BEYOND` samples lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    beyond = sum(1 for value in values if value > p90)
    return float(p90) if beyond >= P90_MIN_BEYOND else None


def host_record(backend: str) -> dict:
    """What a noisy run needs to be recognised: cores, thread settings
    (recorded, never set), library versions, the resolved backend."""
    return {
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy is not None else None,
        "python": platform.python_version(),
        "array_backend": backend,
    }
