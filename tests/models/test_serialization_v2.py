"""Detector archive format v2: optimizer state and version checks.

Version 2 archives carry the optimizer's full update state (RMSprop mean
squares, learning rate, hyperparameters) and the training configuration,
so a loaded detector genuinely resumes training where it stopped.
Version-1 archives (no optimizer section) are rejected with a hint on
how to convert them.
"""

import json

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import DataError
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.models.serialization import load_detector, save_detector
from repro.nn import RMSprop

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)


@pytest.fixture(scope="module")
def fitted():
    pair = load("hospital", n_rows=50, seed=2)
    detector = ErrorDetector(architecture="etsb", n_label_tuples=8,
                             model_config=TINY,
                             training_config=TrainingConfig(epochs=3), seed=0)
    detector.fit(pair)
    return detector


def archive_meta(path):
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(str(archive["meta"]))


class TestFormatV2:
    def test_archive_declares_v2_with_optimizer(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        meta = archive_meta(path)
        assert meta["format_version"] == 2
        assert meta["optimizer"]["type"] == "RMSprop"
        assert meta["optimizer"]["slots"] == {
            "mean_square": len(fitted.trainer.optimizer.parameters)}
        assert meta["training_config"]["epochs"] == 3

    def test_optimizer_state_round_trips(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        original = fitted.trainer.optimizer
        restored = loaded.trainer.optimizer
        assert isinstance(restored, RMSprop)
        assert restored.learning_rate == original.learning_rate
        assert restored.rho == original.rho
        assert restored.epsilon == original.epsilon
        for a, b in zip(original._mean_square, restored._mean_square):
            assert a.tobytes() == b.tobytes()

    def test_training_config_round_trips(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        assert loaded.training_config == fitted.training_config

    def test_resumed_training_matches_nonstop(self, tmp_path):
        """Save/load mid-training continues the same weight trajectory.

        The moving averages are part of the update rule: without them a
        'resumed' RMSprop recomputes different steps.  With format v2
        the restored trainer's next epochs match continuing in place.
        """
        pair = load("hospital", n_rows=40, seed=4)
        detector = ErrorDetector(architecture="etsb", n_label_tuples=6,
                                 model_config=TINY,
                                 training_config=TrainingConfig(epochs=2),
                                 seed=0)
        detector.fit(pair)
        path = tmp_path / "model.npz"
        save_detector(detector, path)
        loaded = load_detector(path)

        split = detector.split
        feats, labels = split.train.features, split.train.labels
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        detector.trainer.rng = rng_a
        loaded.trainer.rng = rng_b
        detector.trainer.fit(feats, labels, epochs=1, batch_size=16)
        loaded.trainer.fit(feats, labels, epochs=1, batch_size=16)
        for key, value in detector.model.state_dict().items():
            assert value.tobytes() == loaded.model.state_dict()[key].tobytes()


class TestBackwardCompatV1:
    def _downgrade(self, src, dest, version=1):
        """Rewrite a v2 archive without its optimizer section: the v1
        format, or (``version=2``) what 1.0 saved for a detector built
        without a trainer."""
        with np.load(src, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            arrays = {name: archive[name] for name in archive.files
                      if name.startswith("state:")}
        meta["format_version"] = version
        meta.pop("optimizer", None)
        meta.pop("config", None)
        meta.pop("training_config", None)
        np.savez(dest.with_suffix(""),
                 meta=np.asarray(json.dumps(meta)), **arrays)

    def test_v1_archive_rejected_with_conversion_hint(self, fitted,
                                                      tmp_path):
        v2 = tmp_path / "v2.npz"
        save_detector(fitted, v2)
        v1 = tmp_path / "v1.npz"
        self._downgrade(v2, v1)
        with pytest.raises(DataError, match="version 1.*save it again"):
            load_detector(v1)

    def test_v2_archive_without_optimizer_rejected_with_conversion_hint(
            self, fitted, tmp_path):
        full = tmp_path / "full.npz"
        save_detector(fitted, full)
        bare = tmp_path / "bare.npz"
        self._downgrade(full, bare, version=2)
        with pytest.raises(DataError, match="without a trainer.*save it again"):
            load_detector(bare)

    def test_unknown_version_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        meta = archive_meta(path)
        meta["format_version"] = 99
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files
                      if name != "meta"}
        np.savez(path.with_suffix(""),
                 meta=np.asarray(json.dumps(meta)), **arrays)
        with pytest.raises(DataError, match="version"):
            load_detector(path)

    def test_unknown_optimizer_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        save_detector(fitted, path)
        meta = archive_meta(path)
        meta["optimizer"]["type"] = "Adagrad"
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files
                      if name != "meta"}
        np.savez(path.with_suffix(""),
                 meta=np.asarray(json.dumps(meta)), **arrays)
        with pytest.raises(DataError, match="Adagrad"):
            load_detector(path)
