"""End-to-end benchmark of the error-detection system.

Usage::

    python3 perfbench/run.py --workload {train_hospital,detect_movies,serve_hospital}
                             --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout.  Inputs are generated from ``--seed``
before any timing starts; the program then receives only the generated
files and model archives.  Each unit of work runs in a fresh process.

``--trace 0`` measures the end-to-end metrics for about ``--seconds``
seconds.  ``--trace 1`` is a separate run: one unit untraced and the same
unit with every layer's entry points spanned, printing the per-layer
metrics, a layer table with self times and an ``unattributed`` row, and
the tracing overhead (traced minus untraced wall time).

Output: a human-readable report, then a full result record (environment
block, checks, sample counts) as one JSON line, then as the last line
``{"correct", "attempted", "failed", "metrics"}``.  An output check that
fails sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import benchlib
import detect_workload
import serve_workload
import spec
import train_workload

WORKLOADS = {
    "train_hospital": train_workload.run,
    "detect_movies": detect_workload.run,
    "serve_hospital": serve_workload.run,
}

#: Printed in place of a metric that is not a finite number (JSON has no
#: infinity); such a metric also fails the run.
MISSED = 1e12


class Context:
    """What a workload's ``run`` gets: settings, scratch dir, report sinks."""

    def __init__(self, args, work: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = args.size
        self.work = work
        self.tables: list[str] = []
        self.samples: dict[str, int] = {}
        self.record: dict = {}

    def repeat(self, unit, min_units: int) -> list[dict]:
        """Call ``unit(index)`` until ``seconds`` have passed and at least
        ``min_units`` units are done."""
        results = []
        deadline = time.perf_counter() + self.seconds
        while len(results) < min_units or time.perf_counter() < deadline:
            results.append(unit(len(results)))
        return results


def _final_metrics(values: dict, names: dict) -> tuple[dict, bool]:
    """Every metric in ``names`` with its unit; False if any is not finite."""
    finite = True
    out = {}
    for name, unit in names.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            finite = False
            value = MISSED
        out[name] = {"value": value, "unit": unit}
    return out, finite


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs, seconds not minutes")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so workers and daemons are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not benchlib.program_present():
        print(f"error: no program sources under {benchlib.ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    benchlib.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=benchlib.WORK_DIR))
    ctx = Context(args, work)
    started = time.perf_counter()
    host_before = benchlib.host_cpu_ticks()
    loop_before = benchlib.host_loop_ms()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            benchlib.WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    ctx.record["host_steal_share"] = benchlib.steal_share(
        host_before, benchlib.host_cpu_ticks())
    ctx.record["host_loop_ms"] = [loop_before, benchlib.host_loop_ms()]
    names = spec.PER_LAYER if ctx.trace else spec.END_TO_END
    metrics, finite = _final_metrics(outcome["metrics"], names)
    correct = all(outcome["checks"].values()) and finite \
        and outcome["failed"] == 0

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size} "
          f"({time.perf_counter() - started:.1f} s)")
    for name, check in outcome["checks"].items():
        print(f"  check {name:28s} {'ok' if check else 'FAILED'}")
    print(f"  operations attempted {outcome['attempted']}, "
          f"failed {outcome['failed']}")
    for name, metric in metrics.items():
        n = ctx.samples.get(name)
        count = "" if n is None else f"  (n={n})"
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}{count}")
    for key, value in ctx.record.items():
        print(f"  {key:34s} {value}")
    for line in ctx.tables:
        print(line)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "environment": benchlib.environment(args.seed),
        "checks": outcome["checks"],
        "samples": ctx.samples,
        "extra": ctx.record,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
