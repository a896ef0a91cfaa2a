"""Shared helpers of the end-to-end benchmark.

Imports nothing from ``repro`` at module level: the train workload times
the program's imports as part of its set-up, so the benchmark's own
modules must load without pulling the program in first.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the directory above this package.
ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for generated inputs; listed in the root .gitignore.
WORK_DIR = ROOT / ".perfbench_work"

#: Environment variables that select program behaviour or BLAS threading.
ENV_KNOBS = ("REPRO_NN_BACKEND", "REPRO_NN_WORKERS", "REPRO_TELEMETRY",
             "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: Every worker prints exactly one JSON object on its last stdout line.
WORKER_TIMEOUT_S = 170


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """The environment for worker and daemon processes.

    Adds the checkout's ``src`` to ``PYTHONPATH`` and nothing else: BLAS
    threading and the ``REPRO_*`` knobs pass through unchanged, so the
    benchmark measures the host's defaults and records them.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_worker(task: str, **args) -> dict:
    """Run ``worker.py <task>`` in a fresh interpreter; return its JSON.

    A fresh process per unit of work gives each unit cold program state
    (as a CLI user has) and its own peak-RSS reading.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), task,
           json.dumps(args)]
    # A session of its own lets a timeout stop the worker together with
    # any daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException as exc:  # timeout, or this process told to stop
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"worker {task} timed out") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {task} exited {proc.returncode}:\n{stderr[-4000:]}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"worker {task} printed nothing:\n"
                           f"{stderr[-4000:]}")
    return json.loads(lines[-1])


def emit(payload: dict) -> None:
    """Print a worker's result as its last stdout line."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's waited-for children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def host_cpu_ticks() -> list[int]:
    """The host's cumulative CPU time by state (user, nice, system, idle,
    iowait, irq, softirq, steal), in clock ticks, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the host's CPU time between two readings that the
    hypervisor gave to other guests: a run with a high share ran on a
    contended host."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms: how fast the host
    runs this interpreter at the moment, recorded beside a run's figures
    (it moved by a factor of two from minute to minute on a shared
    two-core host)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(1000 * (time.perf_counter() - started))
    return median(times)


# -- statistics ---------------------------------------------------------------

def nearest_rank(samples, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by nearest rank.

    Always one of the observed samples: no interpolation, so a
    percentile can never exceed the observed maximum.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples) -> float:
    return statistics.median(samples)


# -- environment block --------------------------------------------------------

def _blas_threads():
    """Thread count in effect in the loaded OpenBLAS, or ``None``."""
    import numpy

    base = Path(numpy.__file__).resolve().parent
    candidates = glob.glob(str(base.parent / "numpy.libs" / "*openblas*.so*"))
    candidates += glob.glob(str(base / ".dylibs" / "*openblas*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """Host, library and configuration fingerprint for a result record."""
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
    except (TypeError, KeyError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "env": {name: os.environ.get(name) for name in ENV_KNOBS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }
