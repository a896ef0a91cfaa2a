"""Tolerance gates for the reduced-precision inference evaluator.

Float64 is the reference; the float32 evaluator must track it to a few
float32 ulps on the output probabilities.  The weight cast is cached per
``weights_version``: mutating weights in place without bumping the
version reuses the stale cast, and ``mark_weights_updated`` refreshes
it.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import ModelConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN
from repro.nn.lowp import LOWP_MODES, PRECISION_MODES, LowPrecisionEvaluator
from repro.nn.training import predict_proba

VOCAB = 12
N_ATTRS = 3
MAX_LEN = 10
TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)

#: Output-probability tolerance per mode, against the float64 forward.
ATOL = {"float32": 1e-5}


def _features(rng, n_rows=24):
    lengths = rng.integers(1, MAX_LEN + 1, size=n_rows)
    values = np.zeros((n_rows, MAX_LEN), dtype=np.int64)
    for i, ell in enumerate(lengths):
        values[i, :ell] = rng.integers(1, VOCAB, size=ell)
    return {
        "values": values,
        "attributes": rng.integers(1, N_ATTRS + 1, size=n_rows),
        "length_norm": (lengths / MAX_LEN).reshape(-1, 1),
    }


def _model(kind, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "etsb":
        model = ETSBRNN(VOCAB, N_ATTRS + 1, TINY, rng)
    else:
        model = TSBRNN(VOCAB, TINY, rng)
    model.eval()
    return model


class TestToleranceGates:
    @pytest.mark.parametrize("kind", ["tsb", "etsb"])
    @pytest.mark.parametrize("mode", LOWP_MODES)
    def test_probabilities_track_the_float64_reference(self, kind, mode):
        model = _model(kind)
        features = _features(np.random.default_rng(0))
        reference = predict_proba(model, features, deduplicate=False)
        lowp = LowPrecisionEvaluator(model, mode).predict_proba(features)
        assert lowp.dtype == np.float32
        assert lowp.shape == reference.shape
        np.testing.assert_allclose(lowp, reference, atol=ATOL[mode])

    @pytest.mark.parametrize("mode", LOWP_MODES)
    def test_rows_remain_probability_distributions(self, mode):
        model = _model("etsb")
        probs = LowPrecisionEvaluator(model, mode).predict_proba(
            _features(np.random.default_rng(1)))
        assert (probs >= 0.0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


class TestWeightCastCache:
    def test_cast_reused_until_version_bump(self):
        model = _model("etsb")
        features = _features(np.random.default_rng(4))
        evaluator = LowPrecisionEvaluator(model, "float32")
        before = evaluator.predict_proba(features)
        # In-place mutation without a version bump: stale cast is reused.
        kernel = model.classifier.kernel
        original = kernel.data.copy()
        kernel.data += 1.0
        np.testing.assert_array_equal(
            evaluator.predict_proba(features), before)
        model.mark_weights_updated()
        shifted = evaluator.predict_proba(features)
        assert not np.array_equal(shifted, before)
        kernel.data[...] = original
        model.mark_weights_updated()
        np.testing.assert_array_equal(
            evaluator.predict_proba(features), before)


class TestConfiguration:
    def test_mode_must_be_a_lowp_mode(self):
        with pytest.raises(ConfigurationError):
            LowPrecisionEvaluator(_model("tsb"), "float64")
        with pytest.raises(ConfigurationError):
            LowPrecisionEvaluator(_model("tsb"), "bfloat16")
        with pytest.raises(ConfigurationError):
            LowPrecisionEvaluator(_model("tsb"), "int8")

    def test_unsupported_model_rejected(self):
        with pytest.raises(ConfigurationError):
            LowPrecisionEvaluator(object(), "float32")

    def test_mode_tuples_are_consistent(self):
        assert set(LOWP_MODES) == set(PRECISION_MODES) - {"float64"}
