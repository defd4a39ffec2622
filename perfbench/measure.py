"""Statistics, resource accounting, host-speed adjustment and the machine record."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n_samples: int, min_beyond: int = 10) -> float:
    """The highest whole percentile with at least ``min_beyond`` samples above it.

    A percentile ``p`` of ``n`` samples has ``n * (100 - p) / 100`` samples
    beyond it; with 200 samples that first reaches 10 at p95.  Returns 0
    when there are too few samples for any percentile.
    """
    best = 0.0
    for pct in range(1, 100):
        if n_samples * (100 - pct) / 100.0 >= min_beyond:
            best = float(pct)
    return best


def cpu_seconds() -> float:
    """User+system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calibration_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` time of a fixed pure-Python loop (host speed probe)."""
    best = math.inf
    for _ in range(rounds):
        started = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, perf_counter() - started)
    return best


#: Probe loop CPU time of the reference host that adjusted metrics are
#: scaled to (the probe's usual time on a 2.0 GHz Xeon vCPU).
PROBE_REFERENCE_S = 0.015

#: Fewest probe samples a phase is judged on; a shorter phase borrows the
#: samples nearest to it.
MIN_PROBE_SAMPLES = 4


class HostProbe:
    """The ``probe.py`` sidecar: how slow the host ran during each phase.

    On a host whose CPUs are shared with other machines, their load can
    make the same work take up to 1.8 times longer (seen on a 2-vCPU VM),
    in spells of seconds to minutes, and each CPU slows on its own.  The
    sidecar times a fixed loop on each CPU in turn.  :meth:`slowdown` is
    the mean loop time within a phase, each sample weighed by how busy its
    CPU was, over :data:`PROBE_REFERENCE_S`; so a single-threaded workload
    is judged by the CPU it ran on.  Dividing a measured time by it (or
    multiplying a rate) gives the value on the reference host.  The loop
    runs none of the program's code, so no change to the program moves it.
    """

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "probe.py"), str(path)],
            stdin=subprocess.DEVNULL,
            cwd=root,
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)

    def samples(self) -> list[tuple[float, float, float]]:
        """``(start, loop seconds, CPU busy share)`` of every complete sample."""
        found = []
        for line in self.path.read_text(encoding="ascii").splitlines():
            fields = line.split("\t")
            if len(fields) == 4:
                found.append((float(fields[0]), float(fields[2]), float(fields[3])))
        return found

    def slowdown(self, start: float, end: float) -> float:
        """Busy-weighted mean probe time within ``[start, end]`` over the reference."""
        return slowdown(self.samples(), start, end)


def slowdown(samples: list[tuple[float, float, float]], start: float, end: float) -> float:
    """Slowdown of the host during ``[start, end]`` from ``HostProbe`` samples.

    Each ``(start, loop seconds, busy share)`` sample counts as much as its
    CPU was busy.  A phase with fewer than :data:`MIN_PROBE_SAMPLES` samples
    borrows the ones nearest to its middle.
    """
    if len(samples) < MIN_PROBE_SAMPLES:
        raise RuntimeError(f"host probe took only {len(samples)} samples")
    inside = [s for s in samples if start <= s[0] <= end]
    if len(inside) < MIN_PROBE_SAMPLES:
        middle = (start + end) / 2
        inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_PROBE_SAMPLES]
    weight = sum(busy for _, _, busy in inside)
    if weight == 0:
        return statistics.fmean(t for _, t, _ in inside) / PROBE_REFERENCE_S
    return sum(t * busy for _, t, busy in inside) / weight / PROBE_REFERENCE_S


def machine_record() -> dict[str, object]:
    """Host facts printed with every run; none of them is gated."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_seconds(),
    }
