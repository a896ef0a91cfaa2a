"""One unit of benchmark work in a fresh interpreter.

Usage: ``python perfbench/worker.py TASK ARGS_JSON``; prints the task's
result as one JSON object on the last stdout line.  Launched by
``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.

Only standard-library and benchmark modules are imported before the task
runs, so a task can time the program's own imports.
"""

from __future__ import annotations

import json
import sys

import benchlib
import detect_workload
import serve_workload
import train_workload

TASKS = {
    "train.generate": train_workload.generate,
    "train.unit": train_workload.unit,
    "detect.generate": detect_workload.generate,
    "detect.unit": detect_workload.unit,
    "serve.generate": serve_workload.generate,
    "serve.client": serve_workload.client,
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in TASKS:
        print(f"usage: worker.py {{{','.join(TASKS)}}} ARGS_JSON",
              file=sys.stderr)
        return 2
    benchlib.emit(TASKS[argv[0]](json.loads(argv[1])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
