"""The benchmark's metric names and units, in one place.

``BENCHMARK.json`` at the checkout root lists the same names; the smoke
run (``smoke.py``) fails if the two drift apart.

Every workload prints every metric.  End-to-end metrics are defined for
all three workloads (see README.md for each one's unit of work); a
per-layer metric of a layer a workload never calls reads 0 there.
"""

#: name -> unit, printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cells_per_s": "1/s",
}

#: name -> unit, printed with ``--trace 1``.
PER_LAYER = {
    # whole traced unit
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
    "unattributed_s": "s",
    # train_hospital
    "dataprep.prepare_s": "s",
    "sampling.select_s": "s",
    "dataprep.encode_s": "s",
    "nn.fit_s": "s",
    "nn.batches": "count",
    "nn.forward_s": "s",
    "autograd.backward_s": "s",
    "kernel.rnn_level.forward_s": "s",
    "kernel.rnn_level.forward_calls": "count",
    "kernel.rnn_level.backward_s": "s",
    "kernel.rnn_level.backward_calls": "count",
    "kernel.head.forward_s": "s",
    "kernel.head.backward_s": "s",
    "nn.clip_s": "s",
    "nn.optimizer_s": "s",
    "nn.callbacks_s": "s",
    "nn.unattributed_s": "s",
    "inference.predict_s": "s",
    "inference.forward_s": "s",
    "inference.unique_ratio": "ratio",
    "metrics.report_s": "s",
    "metrics.f1": "ratio",
    # detect_movies
    "models.load_detector_s": "s",
    "io.ingest_s": "s",
    "io.files": "count",
    "io.conform_s": "s",
    "io.assemble_s": "s",
    "dataprep.encode_values_s": "s",
    "inference.rows": "count",
    "inference.unique": "count",
    "inference.evaluated": "count",
    "inference.cache_hit_ratio": "ratio",
    "detect.unattributed_s": "s",
    # serve_hospital
    "serving.load_table_s": "s",
    "serving.decode_s": "s",
    "serving.encode_s": "s",
    "serving.handle_s": "s",
    "serving.queue_wait_ms": "ms",
    "serving.batches": "count",
    "serving.batch_items": "count",
    "serving.batch_rows": "count",
    "serving.update_s": "s",
    "serving.rescored_rows": "count",
}
