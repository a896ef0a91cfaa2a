"""``detect_movies``: batch scoring of real files with a saved model.

Why this workload: it is the ``repro detect <path> --model`` path --
``repro.io.detect_path`` over a folder of four 1000-row movies CSVs,
scored by a detector restored with ``load_detector``.  About 68k cells
are scored, of which a large share repeat, so the no-grad network
forward behind the dedup engine dominates, followed by ingestion,
per-cell conformance and value encoding.  No training or batching runs.

Unit of work: one ``detect_path`` pass over the folder in a fresh
process, with a freshly loaded detector (a CLI user starts cold every
time).  Set-up is that ``load_detector`` call.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import benchlib
from layertrace import (Tracer, inclusive, kernel_timers, render_table,
                        render_timers, self_time, summary)

SIZES = {
    "full": {"files": 4, "rows": 1000, "model_rows": 200, "epochs": 3},
    "tiny": {"files": 2, "rows": 40, "model_rows": 30, "epochs": 1},
}

#: Cells whose daemon-free naive forward is compared with the pass.
CHECK_SAMPLE = 256


def generate(args: dict) -> dict:
    """Fit and save the archive, then write the folder of dirty CSVs."""
    from pathlib import Path

    from repro.datasets import load
    from repro.models import ErrorDetector, TrainingConfig
    from repro.models.serialization import save_detector
    from repro.table import write_csv

    seed = args["seed"]
    pair = load("movies", n_rows=args["model_rows"], seed=seed)
    detector = ErrorDetector(
        architecture="etsb", n_label_tuples=min(20, args["model_rows"] - 1),
        training_config=TrainingConfig(epochs=args["epochs"]), seed=seed)
    detector.fit(pair)
    save_detector(detector, args["archive"])
    folder = Path(args["folder"])
    folder.mkdir(parents=True, exist_ok=True)
    for k in range(args["files"]):
        table = load("movies", n_rows=args["rows"],
                     seed=seed * 100 + k + 1).dirty
        write_csv(table, folder / f"movies_{k}.csv")
    return {}


def install_spans(tracer) -> None:
    import repro.io.detect as detect_module
    from repro.models import serialization
    from repro.models.etsb_rnn import ETSBRNN
    from repro.nn import kernels
    from repro.nn.training import Trainer
    from train_workload import install_kernel_spans

    tracer.patch(serialization, "load_detector", "models.load_detector")
    tracer.patch(detect_module, "ingest_path", "io.ingest")
    tracer.patch(detect_module, "_score_with_model", "io.assemble")
    tracer.patch(detect_module, "conforming_mask", "io.conform")
    tracer.patch(serialization, "encode_values_for",
                 "dataprep.encode_values")
    tracer.patch(Trainer, "predict_proba", "inference.predict")
    tracer.patch(ETSBRNN, "forward", "inference.forward")
    install_kernel_spans(tracer, kernels)


def unit(args: dict) -> dict:
    """Load the archive, run one ``detect_path`` pass and check it."""
    import numpy as np

    from repro.io import detect_path
    from repro.models import serialization

    tracer = None
    if args["trace"]:
        from repro import telemetry

        telemetry.set_enabled(True)
        tracer = Tracer()
        install_spans(tracer)
    with tracer.span("pass") if tracer else nullcontext():
        started = time.perf_counter()
        detector = serialization.load_detector(args["archive"])
        loaded = time.perf_counter()
        report, outcomes = detect_path(args["folder"], detector=detector)
        finished = time.perf_counter()
    traced = {}
    if tracer is not None:
        from repro import telemetry

        tracer.restore()
        traced = {"spans": tracer.snapshot(),
                  "kernel_timers": kernel_timers()}
        telemetry.set_enabled(False)
    stats = detector.trainer.total_inference_stats
    scores = [score for outcome in outcomes for score in outcome.scores]

    # Output check: a fixed sample of cell scores must equal a naive
    # (deduplicate=False) float64 forward of the same cells, bit for bit.
    rng = np.random.default_rng(args["seed"])
    picks = rng.choice(len(scores), size=min(CHECK_SAMPLE, len(scores)),
                       replace=False)
    sample = [scores[i] for i in sorted(picks)]
    features = serialization.encode_values_for(
        detector, [s.value for s in sample], [s.attribute for s in sample])
    naive = detector.trainer.predict_proba(features, deduplicate=False)
    equal = all(float(naive[i, 1]) == s.score for i, s in enumerate(sample))

    failed = len(report.skipped) + sum(1 for o in outcomes if not o.scores)
    out = {
        "setup_s": loaded - started,
        "wall_s": finished - loaded,
        "peak_rss_mb": benchlib.peak_rss_mb(),
        "cells": len(scores),
        "files": len(report.tables) + len(report.skipped),
        "failed": failed,
        "sample_equals_naive": bool(equal) and len(sample) > 0,
        "rows": stats.n_rows,
        "unique": stats.n_unique,
        "evaluated": stats.n_evaluated,
        "hit_ratio": stats.hit_rate,
    }
    out.update(traced)
    return out


def layer_metrics(traced: dict) -> dict:

    spans = traced["spans"]
    return {
        "models.load_detector_s": inclusive(spans, "models.load_detector"),
        "io.ingest_s": inclusive(spans, "io.ingest"),
        "io.files": traced["files"],
        "io.conform_s": inclusive(spans, "io.conform"),
        "io.assemble_s": self_time(spans, "io.assemble"),
        "dataprep.encode_values_s": inclusive(spans,
                                              "dataprep.encode_values"),
        "inference.predict_s": inclusive(spans, "inference.predict"),
        "inference.forward_s": inclusive(spans, "inference.forward"),
        "inference.rows": traced["rows"],
        "inference.unique": traced["unique"],
        "inference.unique_ratio": (traced["unique"] / traced["rows"]
                                   if traced["rows"] else 1.0),
        "inference.evaluated": traced["evaluated"],
        "inference.cache_hit_ratio": traced["hit_ratio"],
        "kernel.rnn_level.forward_s": traced["kernel_timers"].get(
            "kernel.RNNLevelFunction.forward", {}).get("total_s", 0.0),
        "kernel.rnn_level.forward_calls": traced["kernel_timers"].get(
            "kernel.RNNLevelFunction.forward", {}).get("calls", 0),
        "detect.unattributed_s": self_time(spans, "pass"),
    }


def run(ctx) -> dict:
    """Orchestrate one benchmark run of ``detect_movies``."""
    size = SIZES[ctx.size]
    archive, folder = ctx.work / "movies.npz", ctx.work / "files"
    benchlib.run_worker("detect.generate", seed=ctx.seed,
                        archive=str(archive), folder=str(folder), **size)
    job = dict(archive=str(archive), folder=str(folder), seed=ctx.seed)
    if ctx.trace:
        plain = benchlib.run_worker("detect.unit", trace=False, **job)
        traced = benchlib.run_worker("detect.unit", trace=True, **job)
        units = [plain, traced]
        metrics = layer_metrics(traced)
        metrics.update(summary(traced["spans"], "pass",
                               plain["setup_s"] + plain["wall_s"]))
        ctx.tables.extend(render_table(traced["spans"], "pass",
                                       "layer table (detect_movies)"))
        ctx.tables.extend(render_timers(traced["kernel_timers"]))
    else:
        units = ctx.repeat(lambda _: benchlib.run_worker(
            "detect.unit", trace=False, **job), min_units=3)
        walls = [u["wall_s"] for u in units]
        metrics = {
            "setup_s": benchlib.median([u["setup_s"] for u in units]),
            "peak_rss_mb": benchlib.median([u["peak_rss_mb"]
                                            for u in units]),
            "cells_per_s": benchlib.median([u["cells"] / u["wall_s"]
                                            for u in units]),
        }
        ctx.samples["cells_per_s"] = len(units)
        ctx.record["pass_p50_ms"] = 1000 * benchlib.median(walls)
    checks = {
        "sample_equals_naive": all(u["sample_equals_naive"] for u in units),
        "same_cells_every_pass": len({u["cells"] for u in units}) == 1,
    }
    ctx.record["cells_per_pass"] = units[0]["cells"]
    ctx.record["unique_ratio"] = units[0]["unique"] / max(units[0]["rows"], 1)
    return {"metrics": metrics, "checks": checks,
            "attempted": sum(u["files"] for u in units),
            "failed": sum(u["failed"] for u in units)}
