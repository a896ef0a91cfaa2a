"""Run ``repro serve --daemon`` with the serving layers spanned.

Usage: ``python perfbench/daemon_host.py TRACE_OUT serve --model ... --daemon``

Installs span wrappers on the serving, inference and encoding entry
points, turns the program's telemetry on, then hands the remaining
arguments to ``repro.cli.main``.  When the daemon stops (a ``shutdown``
request), the spans, the queue-wait counters and the program's own
telemetry counters are written to TRACE_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
import time

from layertrace import Tracer


def install_spans(tracer) -> None:
    from repro.inference import InferenceEngine
    from repro.models import serialization
    from repro.models.etsb_rnn import ETSBRNN
    from repro.nn import kernels
    from repro.serving import protocol
    from repro.serving.batcher import MicroBatcher
    from repro.serving.daemon import ServingDaemon
    from repro.serving.session import TableSession
    from train_workload import install_kernel_spans

    tracer.patch(protocol, "decode", "serving.decode")
    tracer.patch(protocol, "encode", "serving.encode")
    tracer.patch(ServingDaemon, "handle_line", "serving.handle")
    tracer.patch(ServingDaemon, "_op_score", "serving.score")
    tracer.patch(ServingDaemon, "_op_load_table", "serving.load_table")
    tracer.patch(TableSession, "update", "serving.update")
    tracer.patch(serialization, "encode_values_for", "dataprep.encode_values")
    tracer.patch(MicroBatcher, "_execute", "serving.batch")
    tracer.patch(InferenceEngine, "predict_proba", "inference.predict")
    tracer.patch(ETSBRNN, "forward", "inference.forward")
    install_kernel_spans(tracer, kernels)

    # Queue wait: from a request's admission to its batch starting.
    execute = MicroBatcher._execute

    def timed_execute(self, batch):
        now = time.monotonic()
        for item in batch:
            tracer.add("queue_wait_s", now - item.enqueued_at)
        tracer.add("queue_items", len(batch))
        return execute(self, batch)

    MicroBatcher._execute = timed_execute


def main(argv: list[str]) -> int:
    from repro import telemetry
    from repro.cli import main as cli_main

    trace_out, cli_args = argv[0], argv[1:]
    telemetry.set_enabled(True)
    tracer = Tracer()
    install_spans(tracer)
    code = cli_main(cli_args)
    with open(trace_out, "w") as handle:
        json.dump({
            "spans": tracer.snapshot(),
            "counters": tracer.counter_snapshot(),
            "telemetry_counters":
                telemetry.get_registry().snapshot()["counters"],
        }, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
