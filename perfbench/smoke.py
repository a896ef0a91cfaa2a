"""Tiny-size smoke run of the end-to-end benchmark.

Usage: ``python3 perfbench/smoke.py`` from the checkout root (about a
minute on two cores).

Runs every workload at ``--size tiny`` with and without tracing and
asserts that:

* each run exits 0 and its last line has exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``;
* every metric named in ``spec.py`` is printed with its unit, and the
  names and units match ``BENCHMARK.json``;
* the workload's output checks ran and passed;
* the result record carries the environment block and the seed;
* the traced runs attribute their wall time and report the overhead;
* ``serve_hospital`` still reports a result when the daemon falls behind
  its schedule (an offered rate far above what it can serve).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import benchlib
import spec

#: Checks each workload must report (their names in the result record).
EXPECTED_CHECKS = {
    "train_hospital": {"dedup_equals_naive", "repeats_exactly"},
    "detect_movies": {"sample_equals_naive", "same_cells_every_pass"},
    "serve_hospital": {"every_reply_ok", "setup_ok",
                       "probes_match_one_shot", "no_429"},
}
ENVIRONMENT_KEYS = {"cores", "python", "numpy", "blas", "blas_version",
                    "blas_threads", "env", "git_commit", "seed"}


#: An offered rate no daemon of the tiny size keeps up with.
OVERLOAD_RATE = "5000"


def _run(workload: str, trace: int, env: dict | None = None
         ) -> tuple[dict, dict]:
    cmd = [sys.executable, str(benchlib.BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=benchlib.ROOT, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, **(env or {})})
    assert proc.returncode == 0, (workload, trace, proc.stdout[-3000:],
                                  proc.stderr[-3000:])
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _check_benchmark_json() -> None:
    with open(benchlib.ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert {w["name"] for w in declared["workloads"]} == set(EXPECTED_CHECKS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == spec.PER_LAYER


def main() -> int:
    _check_benchmark_json()
    for workload, checks in EXPECTED_CHECKS.items():
        for trace, names in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            record, result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace, record)
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == set(names), workload
            for name, unit in names.items():
                assert result["metrics"][name]["unit"] == unit, name
            assert set(record["checks"]) == checks, record["checks"]
            assert ENVIRONMENT_KEYS <= set(record["environment"])
            assert record["environment"]["seed"] == 3
            metrics = result["metrics"]
            if trace:
                assert metrics["trace.wall_s"]["value"] > 0
                assert metrics["trace.untraced_wall_s"]["value"] > 0
                assert 0 < metrics["trace.attributed_pct"]["value"] <= 100
            else:
                for name in names:
                    assert metrics[name]["value"] > 0, (workload, name)
                assert record["samples"]["cells_per_s"], record["samples"]
            print(f"ok  {workload:16s} trace={trace}  "
                  f"{len(result['metrics'])} metrics, "
                  f"checks {sorted(record['checks'])}")
    record, result = _run("serve_hospital", 0,
                          {"PERFBENCH_SERVE_RATE": OVERLOAD_RATE})
    extra = record["extra"]
    assert result["correct"] is True and result["failed"] == 0, record
    assert extra["requests_per_s"] < 0.5 * extra["offered_requests_per_s"], \
        extra
    assert result["metrics"]["cells_per_s"]["value"] > 0
    print(f"ok  serve_hospital behind schedule: "
          f"{extra['requests_per_s']:.0f} of "
          f"{extra['offered_requests_per_s']:.0f} requests/s served")
    print("smoke run passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
