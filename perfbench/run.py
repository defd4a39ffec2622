"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 24 --trace 0

Prints a record line (machine, inputs, failure reasons, measured values
and host slowdown) and, as the last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0`` (adjusted to the reference host by
the host-speed probe, see ``measure.HostProbe``), its per-layer metrics
with ``--trace 1``.  Exits non-zero without a result when the program's
sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, workloads

    machine = measure.machine_record()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # The end-to-end metrics are reported on the reference host, adjusted by
    # the host-speed probe; per-layer metrics are reported as measured.
    probe = None if args.trace else measure.HostProbe(ROOT, work / "probe.tsv")
    try:
        context = workloads.Context(ROOT, work, args.seed, args.seconds, bool(args.trace))
        outcome = workloads.WORKLOADS[args.workload](context)
        if probe is not None:
            probe.stop()
            measured = outcome.end_to_end
            outcome.end_to_end, slowdown = workloads.host_adjusted(
                measured, probe, context.phases
            )
            outcome.record.update(measured=measured, host_slowdown=slowdown)
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    values = outcome.layers if args.trace else outcome.end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload produced no value for {missing}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "failures": outcome.tally.reasons,
        "failed_share": outcome.tally.failed_share,
        **outcome.record,
    }
    print(json.dumps(record, sort_keys=True))
    tally = outcome.tally
    print(
        json.dumps(
            {
                "correct": tally.attempted > 0 and tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
