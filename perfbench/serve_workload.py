"""``serve_hospital``: the scoring daemon under a paced read/write mix.

Why this workload: it drives ``repro serve --daemon`` (its own process,
as deployed; hosting the daemon inside the client process would make
client and daemon share one interpreter lock) over TCP with 2
connections, one per core of the reference host, on a fixed schedule.
Traffic:

* 90% ``score`` requests, each one hospital tuple (20 cells) drawn
  Zipf-skewed from a 1000-row table generated with a different seed from
  the model's.  Repeated tuples and repeated values make the dedup
  engine and prediction cache carry the load, so the protocol, batcher,
  session and cache layers matter more than the network forward.
* 10% ``update`` requests: one-cell edits to a 200-row session loaded
  with ``load_table``, each of which must re-score exactly one feature
  row.  These are the writes beside the reads.

A run has one traffic round (start a daemon, load the session, warm the
cache, serve the mix for a fixed time) and several set-up rounds (start
a daemon, load the session, stop).  Its throughput is cells scored per
CPU-second of the daemon, so it is the daemon's cost that is measured,
not the client's schedule.
"""

from __future__ import annotations

import json
import os
import queue
import resource
import re
import subprocess
import sys
import threading
import time

import benchlib
from layertrace import inclusive, render_table

SIZES = {
    "full": {"model_rows": 200, "epochs": 3, "session_rows": 200,
             "traffic_rows": 1000, "setup_rounds": 5, "warmup_s": 1.0,
             "trace_requests": 1500},
    "tiny": {"model_rows": 30, "epochs": 1, "session_rows": 20,
             "traffic_rows": 50, "setup_rounds": 2, "warmup_s": 0.2,
             "trace_requests": 60},
}

CONNECTIONS = 2
#: Offered load over all connections, in requests per second.  Requests
#: that arrive one at a time are rarely coalesced, and the daemon scores
#: on one thread, so on a two-core host it saturates near 300 per second;
#: 150 keeps the load the same from run to run on a host running a third
#: slower.  ``PERFBENCH_SERVE_RATE`` overrides it (the smoke run uses a
#: rate the daemon cannot keep up with).
RATE = float(os.environ.get("PERFBENCH_SERVE_RATE", 150))
UPDATE_SHARE = 0.10
ZIPF_EXPONENT = 1.1
#: Share of score requests with one cell replaced by a never-seen value.
#: With the cache pre-warmed on the whole traffic table, this holds the
#: cell hit rate near 0.975 for the whole run, instead of letting it
#: climb as the Zipf tail is visited, so the whole run sees the same mix.
FRESH_SHARE = 0.5
FRESH_ALPHABET = list("abcdefghijklmnopqrstuvwxyz0123456789")
#: Tuples per request when pre-warming the cache.
WARM_TUPLES = 25
PROBES = 8
#: Length of a part of the traffic phase; see ``_round``.  The daemon's
#: CPU time is read in 10-ms clock ticks, about 100 of them per part.
PART_S = 5.0
SESSION = "bench"
START_TIMEOUT_S = 60
LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


def generate(args: dict) -> dict:
    """Fit and save the archive; write the session and traffic tables."""
    from repro.datasets import load
    from repro.models import ErrorDetector, TrainingConfig
    from repro.models.serialization import save_detector
    from repro.table import write_csv

    seed = args["seed"]
    pair = load("hospital", n_rows=args["model_rows"], seed=seed)
    detector = ErrorDetector(
        architecture="etsb", n_label_tuples=min(20, args["model_rows"] - 1),
        training_config=TrainingConfig(epochs=args["epochs"]), seed=seed)
    detector.fit(pair)
    save_detector(detector, args["archive"])
    write_csv(load("hospital", n_rows=args["session_rows"],
                   seed=seed + 1).dirty, args["session"])
    write_csv(load("hospital", n_rows=args["traffic_rows"],
                   seed=seed + 2).dirty, args["traffic"])
    return {}


# -- the daemon process ---------------------------------------------------------

class _Daemon:
    """One ``repro serve --daemon`` process on a free port."""

    def __init__(self, archive: str, trace_out: str | None):
        serve_args = ["serve", "--model", archive, "--daemon",
                      "--port", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, str(benchlib.BENCH_DIR / "daemon_host.py"),
                   trace_out, *serve_args]
        self.proc = subprocess.Popen(
            cmd, cwd=benchlib.ROOT, env=benchlib.child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_for_port()
        except RuntimeError:
            self.proc.kill()
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("daemon did not start in time") from None
            if line is None:
                raise RuntimeError("daemon exited before listening")
            match = LISTENING.search(line)
            if match:
                return int(match.group(2))

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (user + system, in clock
        ticks, from ``/proc``)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Wait for the process (after a ``shutdown`` request), or kill it."""
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


# -- the client side --------------------------------------------------------------

class _Traffic:
    """Seeded request generator over the traffic and session tables."""

    def __init__(self, traffic, session_rows: int, seed: int):
        import numpy as np

        self.columns = list(traffic.column_names)
        self.rows = [["" if v is None else str(v) for v in values]
                     for values in zip(*(traffic.column(c).values
                                         for c in self.columns))]
        self.session_rows = session_rows
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, len(self.rows) + 1) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights) / weights.sum()
        #: Popularity rank -> traffic row, so the hot rows vary by seed.
        self.order = rng.permutation(len(self.rows))
        self.seed = seed

    def cells(self, row: int) -> list[dict]:
        return [{"attribute": a, "value": v}
                for a, v in zip(self.columns, self.rows[row])]

    def request(self, rng) -> dict:
        import numpy as np

        if rng.random() < UPDATE_SHARE:
            column = int(rng.integers(len(self.columns)))
            source = self.rows[int(rng.integers(len(self.rows)))]
            return {"op": "update", "session": SESSION,
                    "row": int(rng.integers(self.session_rows)),
                    "column": self.columns[column],
                    "value": source[column]}
        rank = int(np.searchsorted(self.cdf, rng.random(), side="right"))
        cells = self.cells(int(self.order[min(rank, len(self.order) - 1)]))
        if rng.random() < FRESH_SHARE:
            # Change the leading characters: encoding clips values to the
            # model's max_length, so a changed tail could still hit.
            cell = cells[int(rng.integers(len(cells)))]
            cell["value"] = ("".join(rng.choice(FRESH_ALPHABET, 4))
                             + cell["value"][4:])
        return {"op": "score", "cells": cells}

    def warm_requests(self) -> list[dict]:
        """Score requests covering every traffic tuple once."""
        return [{"op": "score",
                 "cells": [c for row in range(start, min(
                     start + WARM_TUPLES, len(self.rows)))
                     for c in self.cells(row)]}
                for start in range(0, len(self.rows), WARM_TUPLES)]


def _judge(op: str, reply: dict | None, n_columns: int):
    """(ok, cells processed) for one reply; checks the incremental
    contract on updates (exactly one re-scored row, no full pass)."""
    if reply is None or not reply.get("ok"):
        return False, 0
    if op == "update":
        good = reply.get("n_rescored") == 1 and not reply.get("full_rescore")
        return good, reply.get("n_rescored", 0)
    return len(reply.get("flags", ())) == n_columns, n_columns


def _drive(port: int, traffic: _Traffic, stream: int,
           seconds: float | None, budget: int | None):
    """Send requests on a fixed schedule of ``RATE`` per second, for
    ``seconds`` or until ``budget`` requests.

    Each connection has one request in flight: if a reply comes after
    the next request was due, that request goes out late, and its
    latency is timed from when it was due, so a stall counts against
    every request it delays.  No request is sent after ``seconds``, so a
    daemon that falls behind shortens the traffic instead of stretching
    the run.  Returns the ``[op, latency_s, ok, cells, send_delay_s]``
    samples and the wall time.

    Requests are generated and encoded before the clock starts and sent
    over a plain socket, so the load generator spends as little of the
    shared cores as it can.
    """
    import socket

    import numpy as np

    from repro.serving import protocol

    interval = CONNECTIONS / RATE
    quota = None if budget is None else budget // CONNECTIONS
    count = quota if quota is not None else int(seconds / interval) + 1
    plans = []
    for index in range(CONNECTIONS):
        rng = np.random.default_rng([traffic.seed, stream, index])
        plans.append([(r["op"], protocol.encode(r))
                      for r in (traffic.request(rng) for _ in range(count))])
    per_thread: list[list] = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    n_columns = len(traffic.columns)

    def loop(index: int) -> None:
        plan, samples = plans[index], per_thread[index]
        # Connections are staggered evenly within one interval.
        offset = begin + index * interval / CONNECTIONS
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as sock, \
                    sock.makefile("rb") as reader:
                while len(samples) < len(plan):
                    due = offset + len(samples) * interval
                    if deadline is not None and max(
                            due, time.perf_counter()) >= deadline:
                        return
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    op, payload = plan[len(samples)]
                    sent = time.perf_counter()
                    try:
                        sock.sendall(payload)
                        line = reader.readline()
                    except OSError:
                        line = b""
                    latency = time.perf_counter() - due
                    reply = protocol.decode(line) if line else None
                    ok, cells = _judge(op, reply, n_columns)
                    samples.append([op, latency, ok, cells,
                                    max(0.0, sent - due)])
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(CONNECTIONS)]
    begin = time.perf_counter()
    deadline = None if seconds is None else begin + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return [s for samples in per_thread for s in samples], wall


def _expected(archive: str, traffic: _Traffic, rows: list[int]) -> list:
    """One-shot scores of the probe tuples, outside any daemon."""
    from repro.models.serialization import encode_values_for, load_detector

    detector = load_detector(archive)
    expected = []
    for row in rows:
        values = traffic.rows[row]
        features = encode_values_for(detector, values, traffic.columns)
        expected.append({
            "flags": detector.predict(features).tolist(),
            "probabilities": detector.trainer.predict_proba(features).tolist(),
        })
    return expected


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_round(args: dict, n_columns: int) -> dict:
    """Start a daemon, load the session, stop it.

    Set-up is the daemon's CPU time over its whole life (start, imports,
    model load, session load and a ``shutdown`` request), read from
    ``getrusage`` once the process has been waited for.  CPU time, not
    wall time: on a shared host the wall time of a cold start doubled
    from one quarter-hour to the next while the work stayed the same.
    """
    from repro.serving import ServingClient

    before = _children_cpu_s()
    started = time.perf_counter()
    daemon = _Daemon(args["archive"], None)
    stopping = False
    try:
        with ServingClient(port=daemon.port, timeout=60) as client:
            loaded = client.request({"op": "load_table", "session": SESSION,
                                     "csv": args["session"]})
            wall = time.perf_counter() - started
            stopping = bool(client.request({"op": "shutdown"}).get("ok"))
    finally:
        if not stopping:
            daemon.proc.kill()
        daemon.stop()
    return {"setup_cpu_s": _children_cpu_s() - before, "setup_wall_s": wall,
            "setup_ok": bool(loaded.get("ok") and loaded.get("n_feature_rows")
                             == args["session_rows"] * n_columns)}


def _round(args: dict, traffic: _Traffic, probes, trace_out: str | None,
           phase_s: float | None, budget: int | None) -> dict:
    """Start a daemon, load the session, warm up, measure, probe, stop."""
    from repro.serving import ServingClient

    daemon = _Daemon(args["archive"], trace_out)
    timed: list[list] = []
    stopping = False
    try:
        with ServingClient(port=daemon.port, timeout=60) as client:
            t = time.perf_counter()
            loaded = client.request({"op": "load_table", "session": SESSION,
                                     "csv": args["session"]})
            timed.append(["load_table", time.perf_counter() - t])
            setup_ok = bool(
                loaded.get("ok") and loaded.get("n_feature_rows")
                == args["session_rows"] * len(traffic.columns))
            for request in traffic.warm_requests():
                t = time.perf_counter()
                setup_ok &= bool(client.request(request).get("ok"))
                timed.append(["warm", time.perf_counter() - t])
            warm, _ = _drive(daemon.port, traffic, 0, args["warmup_s"], None)
            # The traffic runs in parts of about PART_S seconds, each with
            # the daemon's CPU time read around it, so a run's figure can
            # be a median over parts.
            n_parts = 1 if phase_s is None else max(1, round(phase_s
                                                             / PART_S))
            parts = []
            for index in range(n_parts):
                cpu_before = daemon.cpu_s()
                part, wall = _drive(daemon.port, traffic, 1 + index,
                                    None if phase_s is None
                                    else phase_s / n_parts, budget)
                parts.append({"samples": part, "wall_s": wall,
                              "cpu_s": daemon.cpu_s() - cpu_before})
            # Probe check: the daemon's flags for fixed tuples must be
            # identical to one-shot ErrorDetector.predict.  Probabilities
            # are compared too; their largest difference is reported.
            probe_ok, probe_diff = True, 0.0
            for row, want in probes:
                t = time.perf_counter()
                reply = client.request({"op": "score",
                                        "cells": traffic.cells(row)})
                timed.append(["probe", time.perf_counter() - t])
                probe_ok &= bool(reply.get("ok")
                                 and reply["flags"] == want["flags"])
                if reply.get("ok"):
                    probe_diff = max(probe_diff, max(
                        abs(a - b)
                        for got, exp in zip(reply["probabilities"],
                                            want["probabilities"])
                        for a, b in zip(got, exp)))
            t = time.perf_counter()
            stats = client.request({"op": "stats"})
            timed.append(["stats", time.perf_counter() - t])
            t = time.perf_counter()
            stopping = bool(client.request({"op": "shutdown"}).get("ok"))
            timed.append(["shutdown", time.perf_counter() - t])
    finally:
        if not stopping:
            daemon.proc.kill()
        daemon.stop()
    return {"setup_ok": setup_ok, "probe_ok": probe_ok,
            "probe_max_abs_diff": probe_diff,
            "samples": [s for part in parts for s in part["samples"]],
            "parts": parts, "warm": warm, "stats": stats, "other": timed}


def client(args: dict) -> dict:
    """The load generator: traffic rounds, then set-up rounds."""
    import numpy as np

    from repro.table import read_csv

    traffic = _Traffic(read_csv(args["traffic"]), args["session_rows"],
                       args["seed"])
    rng = np.random.default_rng([args["seed"], 7])
    probe_rows = [int(r) for r in rng.choice(len(traffic.rows), PROBES,
                                             replace=False)]
    probes = list(zip(probe_rows, _expected(args["archive"], traffic,
                                            probe_rows)))
    rounds = [_round(args, traffic, probes, r["trace_out"], r["phase_s"],
                     r["budget"]) for r in args["rounds"]]
    setups = [_setup_round(args, len(traffic.columns))
              for _ in range(args["setup_rounds"])]
    return {"rounds": rounds, "setups": setups,
            "peak_rss_mb": benchlib.children_peak_rss_mb()}


# -- orchestration ----------------------------------------------------------------

def _cells(samples: list[list]) -> int:
    """Cells scored or re-scored by the requests that succeeded."""
    return sum(s[3] for s in samples if s[2])


def _latencies(samples: list[list], op: str) -> list[float]:
    """Latencies of ``op`` requests; a failed request missed every limit."""
    return [s[1] if s[2] else float("inf") for s in samples if s[0] == op]


def _percentiles(ctx, op: str, samples: list[list], qs) -> None:
    """Nearest-rank percentiles of ``op`` latency, with the sample count,
    into the result record (none when no such request was sent)."""
    values = _latencies(samples, op)
    ctx.record[f"{op}_samples"] = len(values)
    for q in qs:
        if values:
            ctx.record[f"{op}_p{q}_ms"] = 1000 * benchlib.nearest_rank(values,
                                                                       q)


def _client_seconds(round_: dict) -> float:
    """Time requests spent between being sent and answered, as the client
    saw it, over every request of a round."""
    return (sum(s[1] - s[4] for s in round_["samples"] + round_["warm"])
            + sum(t for _, t in round_["other"]))


def _latency_sum(round_: dict) -> float:
    return sum(s[1] for s in round_["samples"])


def _layer_metrics(round_: dict, host: dict, plain: dict) -> dict:
    """Per-layer metrics of the traced round.  The schedule fixes a
    round's wall time, so the overhead compares the summed latency of
    the same requests, traced and untraced."""
    spans, counters = host["spans"], host["counters"]
    telemetry = host["telemetry_counters"]
    client_s = _client_seconds(round_)
    attributed = inclusive(spans, "serving.handle") + inclusive(
        spans, "serving.encode")
    tenant = round_["stats"]["tenants"]["default"]["inference"]
    batcher = round_["stats"]["batcher"]
    items = counters.get("queue_items", 0)
    return {
        "trace.wall_s": _latency_sum(round_),
        "trace.untraced_wall_s": _latency_sum(plain),
        "trace.overhead_pct": 100.0 * (_latency_sum(round_)
                                       / _latency_sum(plain) - 1.0),
        "trace.attributed_pct": 100.0 * attributed / client_s,
        "unattributed_s": client_s - attributed,
        "serving.load_table_s": inclusive(spans, "serving.load_table"),
        "serving.decode_s": inclusive(spans, "serving.decode"),
        "serving.encode_s": inclusive(spans, "serving.encode"),
        "serving.handle_s": inclusive(spans, "serving.handle"),
        "serving.queue_wait_ms": (1000.0 * counters.get("queue_wait_s", 0.0)
                                  / items if items else 0.0),
        "serving.batches": batcher["n_batches"],
        "serving.batch_items": batcher["n_items"],
        "serving.batch_rows": batcher["n_rows"],
        "serving.update_s": inclusive(spans, "serving.update"),
        "serving.rescored_rows": telemetry.get("serve.rescored_rows", 0),
        "dataprep.encode_values_s": inclusive(spans,
                                              "dataprep.encode_values"),
        "inference.predict_s": inclusive(spans, "inference.predict"),
        "inference.forward_s": inclusive(spans, "inference.forward"),
        "inference.rows": tenant["n_rows"],
        "inference.unique": tenant["n_unique"],
        "inference.unique_ratio": tenant["unique_ratio"],
        "inference.evaluated": tenant["n_evaluated"],
        "inference.cache_hit_ratio": tenant["cache_hit_rate"],
    }


#: Spans that run on the daemon's handler threads, inside the latency a
#: client observes; the rest run on the batcher thread, overlapping the
#: handlers' wait for their batch.
HANDLER_SPANS = ("serving.handle", "serving.decode", "serving.score",
                 "serving.update", "serving.load_table",
                 "dataprep.encode_values", "serving.encode")


def _tables(spans: dict, client_s: float) -> list[str]:

    handler = {n: v for n, v in spans.items() if n in HANDLER_SPANS}
    attributed = sum(spans.get(name, {}).get("total_s", 0.0)
                     for name in ("serving.handle", "serving.encode"))
    handler["client"] = {"total_s": client_s,
                         "self_s": client_s - attributed, "calls": 0}
    lines = render_table(handler, "client", "layer table (serve_hospital, "
                         "daemon handler threads vs client latency)")
    lines.append("  unattributed = client-observed latency outside "
                 "handle_line and reply encoding (sockets, scheduling);")
    lines.append("  serving.score/update self time includes the wait for "
                 "their micro-batch")
    batcher = {n: v for n, v in spans.items() if n not in HANDLER_SPANS}
    lines += render_table(batcher, "serving.batch",
                          "layer table (serve_hospital, batcher thread)")
    return lines


def run(ctx) -> dict:
    """Orchestrate one benchmark run of ``serve_hospital``."""
    size = SIZES[ctx.size]
    files = {name: str(ctx.work / f"{name}{ext}") for name, ext in
             (("archive", ".npz"), ("session", ".csv"), ("traffic", ".csv"))}
    benchlib.run_worker("serve.generate", seed=ctx.seed,
                        model_rows=size["model_rows"], epochs=size["epochs"],
                        session_rows=size["session_rows"],
                        traffic_rows=size["traffic_rows"], **files)
    job = dict(seed=ctx.seed, session_rows=size["session_rows"],
               warmup_s=size["warmup_s"], **files)
    if ctx.trace:
        trace_out = str(ctx.work / "daemon_trace.json")
        plan = [{"trace_out": out, "phase_s": None,
                 "budget": size["trace_requests"]}
                for out in (None, trace_out)]
        out = benchlib.run_worker("serve.client", rounds=plan,
                                  setup_rounds=0, **job)
        with open(trace_out) as handle:
            host = json.load(handle)
        plain, traced = out["rounds"]
        metrics = _layer_metrics(traced, host, plain)
        ctx.tables.extend(_tables(host["spans"], _client_seconds(traced)))
    else:
        plan = [{"trace_out": None, "phase_s": ctx.seconds, "budget": None}]
        out = benchlib.run_worker("serve.client", rounds=plan,
                                  setup_rounds=size["setup_rounds"], **job)
        traffic, setups = out["rounds"][0], out["setups"]
        samples, parts = traffic["samples"], traffic["parts"]
        metrics = {
            "setup_s": benchlib.median([r["setup_cpu_s"] for r in setups]),
            "peak_rss_mb": out["peak_rss_mb"],
            # The daemon's cost, not the client's schedule: cells scored
            # and re-scored per CPU-second the daemon spent serving them.
            "cells_per_s": benchlib.median(
                [_cells(p["samples"]) / p["cpu_s"] for p in parts]),
        }
        ctx.samples["setup_s"] = len(setups)
        ctx.samples["cells_per_s"] = len(parts)
        wall = sum(p["wall_s"] for p in parts)
        ctx.record["setup_wall_s"] = benchlib.median(
            [r["setup_wall_s"] for r in setups])
        ctx.record["offered_requests_per_s"] = RATE
        ctx.record["requests_per_s"] = len(samples) / wall
        ctx.record["daemon_cpu_share"] = sum(p["cpu_s"] for p in parts) / wall
        # Reported, not end-to-end metrics: on a shared two-core host the
        # quartile spread over ten runs was 0.19-0.32 of the median for
        # p50, and more for p90 and p99, wider than a regression bound.
        _percentiles(ctx, "score", samples, (50, 90, 99))
        _percentiles(ctx, "update", samples, (50, 95))
        ctx.record["probe_probability_max_abs_diff"] = (
            traffic["probe_max_abs_diff"])
        stats = traffic["stats"]
        ctx.record["mean_batch_items"] = stats["batcher"]["mean_batch_items"]
        ctx.record["cache_hit_ratio"] = (
            stats["tenants"]["default"]["inference"]["cache_hit_rate"])
    rounds = out["rounds"]
    # Warm-up traffic is held to the same checks as the measured traffic.
    samples = [s for r in rounds for s in r["warm"] + r["samples"]]
    failed = sum(1 for s in samples if not s[2])
    checks = {
        "every_reply_ok": failed == 0,
        "setup_ok": all(r["setup_ok"] for r in rounds + out["setups"]),
        "probes_match_one_shot": all(r["probe_ok"] for r in rounds),
        "no_429": all(r["stats"]["requests"]["n_rejected"] == 0
                      for r in rounds),
    }
    return {"metrics": metrics, "checks": checks,
            "attempted": len(samples), "failed": failed}
