"""Engine correctness: memoized == cached == naive, bit for bit.

The core guarantee of the dedup-memoized inference engine is that it is
a pure performance optimisation: under any duplicate structure, with or
without the cross-call cache, with warm or cold cache, its probabilities
are byte-identical to the naive chunked forward.  A hypothesis property
hammers that over random duplicate structures, and invalidation tests
prove that a single optimizer step or checkpoint restore flushes stale
entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataprep import encode_cells, prepare
from repro.datasets import DATASET_NAMES, load
from repro.errors import ConfigurationError
from repro.inference import InferenceEngine, PredictionCache
from repro.models import ModelConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN
from repro.nn import BestWeightsCheckpoint, RMSprop, Trainer
from repro.nn.training import predict_proba

VOCAB = 12
N_ATTRS = 3
MAX_LEN = 10
TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)


@pytest.fixture(scope="module")
def model():
    m = ETSBRNN(VOCAB, N_ATTRS + 1, TINY, np.random.default_rng(3))
    m.eval()
    return m


def _pool_features(rng, n_unique, n_rows):
    """Features with a controlled duplicate structure: rows drawn from a
    pool of ``n_unique`` distinct cells."""
    pool_lengths = rng.integers(1, MAX_LEN + 1, size=n_unique)
    pool_values = np.zeros((n_unique, MAX_LEN), dtype=np.int64)
    for i, ell in enumerate(pool_lengths):
        pool_values[i, :ell] = rng.integers(1, VOCAB, size=ell)
    pool_attrs = rng.integers(1, N_ATTRS + 1, size=n_unique)
    picks = rng.integers(0, n_unique, size=n_rows)
    features = {
        "values": pool_values[picks],
        "attributes": pool_attrs[picks],
        "length_norm": (pool_lengths[picks] / MAX_LEN).reshape(-1, 1),
    }
    return features, pool_lengths[picks].astype(np.int64)


@pytest.mark.equivalence
class TestBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           n_unique=st.integers(1, 8),
           n_rows=st.integers(1, 40),
           use_lengths=st.booleans())
    def test_memoized_and_cached_match_naive(self, model, seed, n_unique,
                                             n_rows, use_lengths):
        rng = np.random.default_rng(seed)
        features, lengths = _pool_features(rng, n_unique, n_rows)
        naive = predict_proba(model, features, batch_size=7,
                              deduplicate=False)
        memoized = predict_proba(model, features, batch_size=7,
                                 lengths=lengths if use_lengths else None,
                                 deduplicate=True)
        np.testing.assert_array_equal(naive, memoized)

        engine = InferenceEngine(model, cache=PredictionCache(),
                                 batch_size=7)
        cold = engine.predict_proba(features,
                                    lengths=lengths if use_lengths else None)
        warm = engine.predict_proba(features,
                                    lengths=lengths if use_lengths else None)
        np.testing.assert_array_equal(naive, cold)
        np.testing.assert_array_equal(naive, warm)
        assert engine.last_stats.cache_hits == engine.last_stats.n_unique

    @pytest.mark.parametrize("n_unique,n_rows,batch_size", [
        (2, 8, 7),   # naive leaves a 1-row remainder chunk
        (1, 5, 7),   # engine evaluates a single representative
        (8, 8, 7),   # engine leaves the 1-row remainder
        (1, 1, 7),   # both paths see a single row
    ])
    def test_single_row_chunks_stay_bit_identical(self, model, n_unique,
                                                  n_rows, batch_size):
        """BLAS rounds 1-row matmuls differently from m>=2 batches;
        single-row chunks are duplicate-padded on both paths so the
        identity survives any remainder/unique-count combination."""
        rng = np.random.default_rng(0)
        features, lengths = _pool_features(rng, n_unique, n_rows)
        naive = predict_proba(model, features, batch_size=batch_size,
                              deduplicate=False)
        memoized = predict_proba(model, features, batch_size=batch_size,
                                 lengths=lengths, deduplicate=True)
        engine = InferenceEngine(model, cache=PredictionCache(),
                                 batch_size=batch_size)
        cold = engine.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(naive, memoized)
        np.testing.assert_array_equal(naive, cold)

    def test_partial_cache_overlap(self, model):
        """A call mixing cached and novel cells stays bit-identical."""
        rng = np.random.default_rng(4)
        features_a, lengths_a = _pool_features(rng, 5, 20)
        features_b, lengths_b = _pool_features(rng, 5, 20)
        mixed = {k: np.concatenate([features_a[k], features_b[k]])
                 for k in features_a}
        mixed_lengths = np.concatenate([lengths_a, lengths_b])
        engine = InferenceEngine(model, cache=PredictionCache(),
                                 batch_size=6)
        engine.predict_proba(features_a, lengths=lengths_a)  # warm half
        got = engine.predict_proba(mixed, lengths=mixed_lengths)
        want = predict_proba(model, mixed, deduplicate=False)
        np.testing.assert_array_equal(got, want)
        assert engine.last_stats.cache_hits > 0
        assert engine.last_stats.cache_misses > 0

    def test_stats_reflect_duplicates(self, model):
        rng = np.random.default_rng(5)
        features, lengths = _pool_features(rng, 3, 30)
        engine = InferenceEngine(model, cache=PredictionCache())
        engine.predict_proba(features, lengths=lengths)
        stats = engine.last_stats
        assert stats.n_rows == 30
        assert stats.n_unique <= 3
        assert stats.n_evaluated == stats.n_unique
        assert stats.unique_ratio == stats.n_unique / 30
        assert engine.total_stats.n_rows == 30


class TestTable2Datasets:
    """Acceptance: bit-identity on all six Table-2 dataset generators."""

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_dataset_bit_identity(self, name):
        pair = load(name, n_rows=30, seed=1)
        prepared = prepare(pair.dirty, pair.clean)
        encoded = encode_cells(prepared)
        model = ETSBRNN(prepared.char_index.vocab_size,
                        prepared.attribute_index.vocab_size,
                        TINY, np.random.default_rng(0))
        model.eval()
        naive = predict_proba(model, encoded.features, deduplicate=False)
        memoized = predict_proba(model, encoded.features,
                                 lengths=encoded.lengths,
                                 dedup=encoded.dedup, deduplicate=True)
        engine = InferenceEngine(model, cache=PredictionCache())
        cached_cold = engine.predict_proba(encoded.features,
                                           lengths=encoded.lengths,
                                           dedup=encoded.dedup)
        cached_warm = engine.predict_proba(encoded.features,
                                           lengths=encoded.lengths,
                                           dedup=encoded.dedup)
        np.testing.assert_array_equal(naive, memoized)
        np.testing.assert_array_equal(naive, cached_cold)
        np.testing.assert_array_equal(naive, cached_warm)


class TestInvalidation:
    def _training_setup(self, cache):
        rng = np.random.default_rng(0)
        features, lengths = _pool_features(rng, 6, 24)
        labels = rng.integers(0, 2, size=24).astype(np.int64)
        model = TSBRNN(VOCAB, TINY, np.random.default_rng(1))
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.01),
                          loss_fn=lambda p, y: None,
                          rng=np.random.default_rng(2),
                          prediction_cache=cache)
        return trainer, model, features, labels, lengths

    def test_optimizer_step_flushes_stale_entries(self):
        cache = PredictionCache()
        trainer, model, features, labels, lengths = self._training_setup(cache)
        before = trainer.predict_proba(features, lengths=lengths)
        assert len(cache) > 0
        version = model.weights_version
        trainer.fit(features, labels, epochs=1, batch_size=24)
        assert model.weights_version > version  # steps bumped the version
        after = trainer.predict_proba(features, lengths=lengths)
        # The flush really happened: nothing was served from cache ...
        assert cache.invalidations >= 1
        assert trainer.inference_stats.cache_hits == 0
        # ... and the fresh predictions match a naive forward, not the
        # stale pre-training probabilities.
        naive = predict_proba(model, features, deduplicate=False)
        np.testing.assert_array_equal(after, naive)
        assert not np.array_equal(before, after)

    def test_checkpoint_restore_flushes_stale_entries(self):
        cache = PredictionCache()
        trainer, model, features, labels, lengths = self._training_setup(cache)
        checkpoint = BestWeightsCheckpoint()
        checkpoint.on_epoch_end(model, 0, {"loss": 1.0})  # snapshot now
        model.eval()
        snapshot_probs = predict_proba(model, features, deduplicate=False)
        trainer.fit(features, labels, epochs=1, batch_size=24)
        trainer.predict_proba(features, lengths=lengths)  # warm post-fit
        assert len(cache) > 0
        version = model.weights_version
        checkpoint.restore(model)
        assert model.weights_version > version
        restored = trainer.predict_proba(features, lengths=lengths)
        assert trainer.inference_stats.cache_hits == 0
        np.testing.assert_array_equal(restored, snapshot_probs)

    def test_load_state_dict_bumps_version(self):
        model = TSBRNN(VOCAB, TINY, np.random.default_rng(1))
        version = model.weights_version
        model.load_state_dict(model.state_dict())
        assert model.weights_version == version + 1


class TestTrainModeModel:
    """``Trainer.fit`` leaves its model in train mode.  A direct engine
    call on it would run BatchNorm on chunk statistics, so a row's score
    would depend on the rows scored alongside it; the engine refuses."""

    def _fitted(self):
        rng = np.random.default_rng(0)
        features, lengths = _pool_features(rng, 6, 24)
        labels = rng.integers(0, 2, size=24).astype(np.int64)
        model = TSBRNN(VOCAB, TINY, np.random.default_rng(1))
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.01),
                          loss_fn=lambda p, y: None,
                          rng=np.random.default_rng(2))
        trainer.fit(features, labels, epochs=1, batch_size=24)
        return model, features, lengths

    def test_model_left_in_train_mode_is_rejected(self):
        model, features, lengths = self._fitted()
        assert model.training
        with pytest.raises(ConfigurationError, match="eval mode"):
            InferenceEngine(model).predict_proba(features, lengths=lengths)

    def test_eval_mode_scores_do_not_depend_on_the_batch(self):
        model, features, lengths = self._fitted()
        model.eval()
        engine = InferenceEngine(model)
        together = engine.predict_proba(features, lengths=lengths)
        for row in (0, 5):
            alone = engine.predict_proba(
                {name: arr[row:row + 1] for name, arr in features.items()},
                lengths=lengths[row:row + 1])
            np.testing.assert_array_equal(alone[0], together[row])
