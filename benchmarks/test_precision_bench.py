"""Reduced-precision inference benchmark and regression gate.

Times ``InferenceEngine.predict_proba`` over a table of unique cells
(no dedup savings, no cache) in float64 -- the reference graph forward
-- and in float32, the tolerance-gated
:class:`~repro.nn.lowp.LowPrecisionEvaluator` path.  The gate: float32
must not be slower than float64 (``PRECISION_GATE``), or the mode no
longer earns its place.

``make bench-smoke`` runs this module with the other speedup gates;
medians per arm and the speedup are recorded in
``benchmarks/results/BENCH_precision.json``.
"""

import json
import time

import numpy as np
import pytest

from repro.inference import InferenceEngine
from repro.models import ModelConfig
from repro.models.etsb_rnn import ETSBRNN

from .conftest import write_result

PRECISION_GATE = 1.0

ROUNDS = 4

INFER_CONFIG = ModelConfig(char_embed_dim=16, value_units=32, num_layers=2,
                           attr_embed_dim=8, attr_units=8,
                           length_dense_units=8, head_units=16)
INFER_ROWS = 256
INFER_MAX_LEN = 24
INFER_VOCAB = 60


def _unique_features(rng):
    lengths = rng.integers(1, INFER_MAX_LEN + 1, size=INFER_ROWS)
    values = np.zeros((INFER_ROWS, INFER_MAX_LEN), dtype=np.int64)
    for i, ell in enumerate(lengths):
        values[i, :ell] = rng.integers(1, INFER_VOCAB, size=ell)
    values[:, 0] = np.arange(INFER_ROWS) % (INFER_VOCAB - 1) + 1
    return {
        "values": values,
        "attributes": rng.integers(1, 4, size=INFER_ROWS),
        "length_norm": (lengths / INFER_MAX_LEN).reshape(-1, 1),
    }


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@pytest.mark.bench_smoke
def test_float32_inference_speedup_smoke():
    """Gate: float32 inference at least as fast as the float64 forward.

    Arms are timed in interleaved float64/float32 rounds and compared by
    the median per-round ratio, so machine-speed drift cancels out.
    """
    model = ETSBRNN(INFER_VOCAB, 4, INFER_CONFIG, np.random.default_rng(0))
    model.eval()
    features = _unique_features(np.random.default_rng(1))
    engine = InferenceEngine(model, cache=None)
    engine.predict_proba(features)  # warm up both paths
    engine.predict_proba(features, precision="float32")
    pairs = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        engine.predict_proba(features)
        f64 = time.perf_counter() - start
        start = time.perf_counter()
        engine.predict_proba(features, precision="float32")
        f32 = time.perf_counter() - start
        pairs.append((f64, f32))
    speedup = _median([f64 / f32 for f64, f32 in pairs])
    report = {
        "benchmark": "float32 vs float64 InferenceEngine.predict_proba",
        "gates": {"float32_inference": PRECISION_GATE},
        "inference": {
            "rows": INFER_ROWS,
            "float64_ms": round(_median([p[0] for p in pairs]) * 1e3, 3),
            "float32_ms": round(_median([p[1] for p in pairs]) * 1e3, 3),
            "float32_speedup": round(speedup, 2),
        },
    }
    write_result("BENCH_precision.json", json.dumps(report, indent=2))
    assert speedup >= PRECISION_GATE, (
        f"float32 inference: {speedup:.2f}x < {PRECISION_GATE}x "
        "(see benchmarks/results/BENCH_precision.json)")
