"""Host-speed probe, run beside a workload as a low-duty sidecar process.

Run as ``python3 perfbench/probe.py OUT_FILE``: every ``INTERVAL_S`` it
pins itself to the next CPU it may use, times a fixed pure-Python loop in
thread CPU time and appends ``start<TAB>cpu<TAB>seconds<TAB>busy`` to
``OUT_FILE``, until it is terminated or its parent exits.  Thread CPU time counts only the time
the loop actually ran, so a CPU shared with the workload does not inflate
it; what does is the host running that CPU slower.  ``busy`` is the share
of the last interval that CPU spent running anything (from
``/proc/stat``), so the parent can weigh each CPU's samples by how much of
the workload ran there.  Start times are ``time.perf_counter()`` (the
system-wide monotonic clock on Linux), so the parent can match samples to
its own phases.
"""

from __future__ import annotations

import os
import sys
import time

#: Seconds between samples; the loop takes about a tenth of that.
INTERVAL_S = 0.25

#: Iterations of the timed loop.
LOOP = 150_000


def spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def cpu_ticks() -> dict[int, tuple[int, int]]:
    """``(busy, total)`` clock ticks of every CPU since boot."""
    ticks = {}
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                user, nice, system, idle, iowait, irq, softirq, steal = map(int, fields[:8])
                busy = user + nice + system + irq + softirq
                ticks[int(name[3:])] = (busy, busy + idle + iowait + steal)
    return ticks


def main(argv: list[str]) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    parent = os.getppid()
    with open(argv[0], "w", encoding="ascii") as out:
        k = 0
        last = cpu_ticks()
        while os.getppid() == parent:
            cpu = cpus[k % len(cpus)]
            k += 1
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            before = time.thread_time()
            spin(LOOP)
            used = time.thread_time() - before
            now = cpu_ticks()
            busy = now[cpu][0] - last[cpu][0]
            total = now[cpu][1] - last[cpu][1]
            last = now
            out.write(f"{started:.6f}\t{cpu}\t{used:.9f}\t{busy / max(total, 1):.3f}\n")
            out.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
