"""``train_hospital``: the paper's Table 5 job, fit plus evaluate.

Why this workload: ``ErrorDetector.fit`` on a 200-row hospital pair
(ETSB, 20 DiverSet tuples, 30 epochs) is where the RNN level kernels'
forward and backward spend nearly all of the time; inference and
serving do almost nothing here.  A change to the RNN kernels or to BLAS
threading shows on this workload first.

Unit of work: one ``fit`` + ``evaluate`` in a fresh process.  Set-up is
that process's imports of the program plus ``load_pair_from_csv`` of
the generated pair.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext

import benchlib
from layertrace import (Tracer, inclusive, kernel_timers, render_table,
                        render_timers, self_time, summary)

SIZES = {
    "full": {"rows": 200, "tuples": 20, "epochs": 30},
    "tiny": {"rows": 30, "tuples": 4, "epochs": 2},
}


def generate(args: dict) -> dict:
    """Write the dirty/clean hospital pair for ``args['seed']``."""
    from repro.datasets import load
    from repro.table import write_csv

    pair = load("hospital", n_rows=args["rows"], seed=args["seed"])
    write_csv(pair.dirty, args["dirty"])
    write_csv(pair.clean, args["clean"])
    return {"rows": pair.dirty.n_rows}


def install_spans(tracer) -> None:
    """Wrap the public entry points of every layer a fit touches."""
    import repro.models.detector as detector_module
    from repro.autograd import Tensor
    from repro.metrics import ClassificationReport
    from repro.models.etsb_rnn import ETSBRNN
    from repro.nn import kernels, training
    from repro.nn.callbacks import BestWeightsCheckpoint, Callback, History
    from repro.nn.optim import Optimizer, RMSprop
    from repro.nn.training import Trainer
    from repro.sampling import DiverSet

    tracer.patch(detector_module, "prepare", "dataprep.prepare")
    tracer.patch(DiverSet, "select", "sampling.select")
    tracer.patch(detector_module, "split_by_tuple_ids", "dataprep.encode")
    tracer.patch(detector_module, "build_model", "models.build")
    tracer.patch(Trainer, "fit", "nn.fit")
    tracer.patch(ETSBRNN, "training_loss", "nn.forward")
    tracer.patch(Tensor, "backward", "autograd.backward")
    tracer.patch(training, "clip_gradients", "nn.clip")
    tracer.patch(RMSprop, "step", "nn.optimizer")
    tracer.patch(Optimizer, "zero_grad", "nn.optimizer")
    for cls in (Callback, History, BestWeightsCheckpoint):
        for hook in ("on_train_begin", "on_epoch_end", "on_train_end"):
            if hook in vars(cls):
                tracer.patch(cls, hook, "nn.callbacks")
    install_kernel_spans(tracer, kernels)
    tracer.patch(Trainer, "predict_proba", "inference.predict")
    tracer.patch(ETSBRNN, "forward", "inference.forward")
    tracer.patch(ClassificationReport, "from_predictions", "metrics.report")


def install_kernel_spans(tracer, kernels) -> None:
    for cls, name in ((kernels.RNNLevelFunction, "kernel.rnn_level"),
                      (kernels.LSTMLevelFunction, "kernel.lstm_level"),
                      (kernels.GRULevelFunction, "kernel.gru_level"),
                      (kernels.DenseSoftmaxBCEFunction, "kernel.head")):
        tracer.patch(cls, "forward", f"{name}.forward")
        tracer.patch(cls, "backward", f"{name}.backward")


def unit(args: dict) -> dict:
    """One fit + evaluate, timed; with ``trace``, every layer spanned."""
    started = time.perf_counter()
    from repro.datasets import load_pair_from_csv
    from repro.models import ErrorDetector, TrainingConfig
    pair = load_pair_from_csv(args["dirty"], args["clean"], name="hospital")
    setup_s = time.perf_counter() - started

    import numpy as np

    tracer = None
    if args["trace"]:
        from repro import telemetry

        telemetry.set_enabled(True)
        tracer = Tracer()
        install_spans(tracer)
    detector = ErrorDetector(
        architecture="etsb", n_label_tuples=args["tuples"],
        training_config=TrainingConfig(epochs=args["epochs"]),
        seed=args["seed"])
    begin = time.perf_counter()
    with tracer.span("job") if tracer else nullcontext():
        detector.fit(pair)
        result = detector.evaluate()
    wall_s = time.perf_counter() - begin
    traced = {}
    if tracer is not None:
        from repro import telemetry

        tracer.restore()
        traced = {"spans": tracer.snapshot(),
                  "kernel_timers": kernel_timers(),
                  "counters": telemetry.get_registry().snapshot()["counters"]}
        telemetry.set_enabled(False)

    # Output check: the dedup-memoized evaluate must equal the naive
    # float64 forward of the same test cells, bit for bit.
    test = detector.split.test
    naive = detector.trainer.predict_proba(
        test.features, lengths=test.lengths,
        deduplicate=False).argmax(axis=1)
    out = {
        "seed": args["seed"],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": benchlib.peak_rss_mb(),
        "cells": int(detector.split.train_size * args["epochs"]
                     + test.labels.shape[0]),
        "f1": result.report.f1,
        "dedup_equals_naive": bool(np.array_equal(naive,
                                                  result.predictions)),
        "digest": hashlib.sha256(
            result.predictions.astype(np.int64).tobytes()).hexdigest(),
        "unique_ratio": (result.inference.unique_ratio
                         if result.inference is not None else 1.0),
    }
    out.update(traced)
    return out


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced unit."""

    spans, timers = traced["spans"], traced["kernel_timers"]

    def timer(name, field="total_s"):
        return timers.get(name, {}).get(field, 0)

    return {
        "dataprep.prepare_s": inclusive(spans, "dataprep.prepare"),
        "sampling.select_s": inclusive(spans, "sampling.select"),
        "dataprep.encode_s": inclusive(spans, "dataprep.encode"),
        "nn.fit_s": inclusive(spans, "nn.fit"),
        "nn.batches": traced["counters"].get("train.batches", 0),
        "nn.forward_s": inclusive(spans, "nn.forward"),
        "autograd.backward_s": inclusive(spans, "autograd.backward"),
        "kernel.rnn_level.forward_s":
            timer("kernel.RNNLevelFunction.forward"),
        "kernel.rnn_level.forward_calls":
            timer("kernel.RNNLevelFunction.forward", "calls"),
        "kernel.rnn_level.backward_s":
            timer("kernel.RNNLevelFunction.backward"),
        "kernel.rnn_level.backward_calls":
            timer("kernel.RNNLevelFunction.backward", "calls"),
        "kernel.head.forward_s":
            timer("kernel.DenseSoftmaxBCEFunction.forward"),
        "kernel.head.backward_s":
            timer("kernel.DenseSoftmaxBCEFunction.backward"),
        "nn.clip_s": inclusive(spans, "nn.clip"),
        "nn.optimizer_s": inclusive(spans, "nn.optimizer"),
        "nn.callbacks_s": inclusive(spans, "nn.callbacks"),
        "nn.unattributed_s": self_time(spans, "nn.fit"),
        "inference.predict_s": inclusive(spans, "inference.predict"),
        "inference.forward_s": inclusive(spans, "inference.forward"),
        "inference.unique_ratio": traced["unique_ratio"],
        "metrics.report_s": inclusive(spans, "metrics.report"),
        "metrics.f1": traced["f1"],
    }


#: Each run fits this many pairs generated from its seed, in turn, so a
#: run's medians do not rest on one draw of the data; the first pair
#: comes round again, which the repeat check needs.
PAIRS = 3


def run(ctx) -> dict:
    """Orchestrate one benchmark run of ``train_hospital``."""
    size = SIZES[ctx.size]
    jobs = []
    for k in range(PAIRS):
        dirty, clean = ctx.work / f"dirty{k}.csv", ctx.work / f"clean{k}.csv"
        seed = ctx.seed * 10 + k
        benchlib.run_worker("train.generate", rows=size["rows"], seed=seed,
                            dirty=str(dirty), clean=str(clean))
        jobs.append(dict(dirty=str(dirty), clean=str(clean), seed=seed,
                         tuples=size["tuples"], epochs=size["epochs"]))
    if ctx.trace:
        plain = benchlib.run_worker("train.unit", trace=False, **jobs[0])
        traced = benchlib.run_worker("train.unit", trace=True, **jobs[0])
        units = [plain, traced]
        metrics = layer_metrics(traced)
        metrics.update(summary(traced["spans"], "job", plain["wall_s"]))
        ctx.tables.extend(render_table(traced["spans"], "job",
                                       "layer table (train_hospital)"))
        ctx.tables.extend(render_timers(traced["kernel_timers"]))
    else:
        units = ctx.repeat(lambda i: benchlib.run_worker(
            "train.unit", trace=False, **jobs[i % PAIRS]),
            min_units=PAIRS + 1)
        walls = [u["wall_s"] for u in units]
        metrics = {
            "setup_s": benchlib.median([u["setup_s"] for u in units]),
            "peak_rss_mb": benchlib.median([u["peak_rss_mb"]
                                            for u in units]),
            "cells_per_s": benchlib.median([u["cells"] / u["wall_s"]
                                            for u in units]),
        }
        ctx.samples["cells_per_s"] = len(units)
        ctx.record["fit_evaluate_p50_ms"] = 1000 * benchlib.median(walls)
    by_pair: dict[int, set] = {}
    for u in units:
        by_pair.setdefault(u["seed"], set()).add((u["digest"], u["f1"]))
    checks = {
        "dedup_equals_naive": all(u["dedup_equals_naive"] for u in units),
        "repeats_exactly": (len(units) > len(by_pair)
                            and all(len(v) == 1 for v in by_pair.values())),
    }
    ctx.record["f1"] = [u["f1"] for u in units]
    ctx.record["fit_evaluate_s"] = [u["wall_s"] for u in units]
    return {"metrics": metrics, "checks": checks,
            "attempted": len(units), "failed": 0}
