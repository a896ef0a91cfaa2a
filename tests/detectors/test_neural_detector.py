"""The neural registry families are ``ErrorDetector`` itself.

``tsb``/``etsb``/``attn`` are ``ErrorDetector`` subclasses that only fix
the architecture: one class fits (sampled or pinned labelled rows),
scores tables, and saves to the one detector archive format.  These
checks pin what that collapse must keep -- registry fingerprints,
pinned-row training, archive identity -- and the train/serve encoding
contract every scoring path shares.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import build, get
from repro.errors import ConfigurationError, DataError
from repro.io import detect_path
from repro.models import ErrorDetector
from repro.models.serialization import load_detector
from repro.sampling import Sampler
from repro.serving import MicroBatcher, ModelRegistry
from repro.serving.session import TableSession
from repro.table import Table, write_csv

from tests.detectors.conftest import SEED

NEURAL = ("tsb", "etsb", "attn")

#: Registry fingerprints of unfitted detectors, as computed before the
#: neural families became ``ErrorDetector`` subclasses.  Fingerprints
#: order ensemble members, so they must not move.
#: "explicit_defaults" passes configs equal to the defaults, as a
#: full-scale comparison run does (``training_config={"epochs": 120}``).
PINNED_FINGERPRINTS = {
    "tsb": {"default": "00e6f02c317ec5db", "example": "4ea41a988e9a14f5",
            "custom": "7a7374a9c8b21a6c",
            "explicit_defaults": "2f19292aa8d43884"},
    "etsb": {"default": "0b9f2c9dcec0590c", "example": "b4ac94170c8cd26c",
             "custom": "7c76ce210213ea5c",
             "explicit_defaults": "bf04a609eb070bd4"},
    "attn": {"default": "64cc3e7affdc1cec", "example": "924bdb01e90603ee",
             "custom": "850dfaf53d4b7867",
             "explicit_defaults": "ac308b5f8b0b1ae7"},
}


class _Preset(Sampler):
    """Returns fixed ids and leaves the generator alone."""

    name = "preset"

    def __init__(self, ids):
        self.ids = list(ids)

    def select(self, n_obs, prepared, rng):
        return list(self.ids)


@pytest.mark.parametrize("name", NEURAL)
def test_registry_entry_is_error_detector(name):
    cls = get(name)
    assert issubclass(cls, ErrorDetector)
    assert cls().architecture == name


@pytest.mark.parametrize("name", NEURAL)
def test_fingerprints_unchanged(name):
    pinned = PINNED_FINGERPRINTS[name]
    assert build(name).fingerprint() == pinned["default"]
    assert get(name).example(seed=3).fingerprint() == pinned["example"]
    custom = build(name, n_label_tuples=8, model_config={"value_units": 16},
                   training_config={"epochs": 5, "learning_rate": 0.01},
                   seed=7)
    assert custom.fingerprint() == pinned["custom"]
    explicit = build(name, training_config={"epochs": 120})
    assert explicit.fingerprint() == pinned["explicit_defaults"]


def test_config_reports_configs_as_given():
    assert build("etsb").config()["training_config"] is None
    config = build("etsb", model_config={}, training_config={}).config()
    assert config["model_config"]["value_units"] == 64
    assert config["training_config"]["epochs"] == 120


def test_registered_class_fixes_architecture():
    with pytest.raises(ConfigurationError, match="architecture"):
        build("tsb", architecture="etsb")


@pytest.mark.parametrize("option", [
    {"inference_precision": "float32"},
    {"deduplicate": False},
    {"prediction_cache_size": 16},
    {"extra_callbacks": [object()]},
    {"sampler": _Preset([0])},
])
def test_registered_class_takes_only_registry_arguments(option):
    """config() carries none of these, so the registry refuses them."""
    with pytest.raises(ConfigurationError, match="takes only"):
        build("etsb", **option)


def test_pinned_rows_train_like_a_preset_sampler(pair):
    rows = [3, 0, 17, 25, 9, 30]
    pinned = get("etsb").example(seed=SEED).fit(pair, labeled_rows=rows)
    example = get("etsb").example(seed=SEED)
    preset = ErrorDetector(architecture="etsb", sampler=_Preset(rows),
                           n_label_tuples=len(rows),
                           model_config=example.model_config,
                           training_config=example.training_config,
                           seed=SEED).fit(pair)
    assert pinned._state_digest() == preset._state_digest()
    assert pinned.n_label_tuples == 6  # the budget is config, not the pin


@pytest.mark.parametrize("rows, message", [
    ([3, 0, 3], "duplicates"),
    ([3, 0, 4000], "not present"),
])
def test_bad_labeled_rows_rejected(pair, rows, message):
    with pytest.raises(DataError, match=message):
        build("etsb").fit(pair, labeled_rows=rows)


def test_load_refuses_another_architecture(pair, fitted, tmp_path):
    detector, _ = fitted("etsb", "fused")
    detector.save(tmp_path / "model")
    assert (tmp_path / "model.npz").exists()
    assert type(load_detector(tmp_path / "model")) is get("etsb")
    with pytest.raises(DataError, match="'etsb' model, not 'tsb'"):
        get("tsb").load(tmp_path / "model")


def test_archive_carries_label_budget(pair, tmp_path):
    detector = build("tsb", n_label_tuples=7,
                     model_config=get("tsb").example().config()["model_config"],
                     training_config={"epochs": 1}).fit(pair)
    detector.save(tmp_path / "tsb.npz")
    loaded = get("tsb").load(tmp_path / "tsb.npz")
    assert loaded.n_label_tuples == 7
    assert loaded.config() == detector.config()


# -- train/serve encoding -----------------------------------------------------


def _padded_table(pair) -> Table:
    """Row 0 holds stripped values, row 1 the same values space-padded."""
    columns = pair.dirty.column_names
    first = [str(pair.dirty.column(name).values[0]).lstrip()
             for name in columns]
    return Table({name: [value, "   " + value]
                  for name, value in zip(columns, first)})


def test_padded_value_scores_like_its_stripped_form(pair, fitted, tmp_path):
    detector, _ = fitted("etsb", "fused")
    detector.save(tmp_path / "model.npz")
    loaded = load_detector(tmp_path / "model.npz")
    table = _padded_table(pair)

    # the registry detector
    scores = detector.score_cells(table)
    np.testing.assert_array_equal(scores[0], scores[1])

    # `repro predict` / `repro serve`: the shared table scorer
    _, probabilities = loaded.score_table(table)
    grid = probabilities[:, :, 1]
    np.testing.assert_array_equal(grid[:, 0], grid[:, 1])
    np.testing.assert_array_equal(grid.T, scores)

    # `repro detect --model`: ingestion keeps the padding
    folder = tmp_path / "files"
    folder.mkdir()
    write_csv(table, folder / "padded.csv")
    _, outcomes = detect_path(folder, detector=loaded)
    by_cell = {(s.row, s.attribute): s for s in outcomes[0].scores}
    for name in table.column_names:
        assert by_cell[(1, name)].value.startswith("   ")
        assert by_cell[(0, name)].score == by_cell[(1, name)].score

    # the daemon session
    registry = ModelRegistry(cache_size=1024)
    entry = registry.add(detector=loaded)
    batcher = MicroBatcher(registry, max_delay_s=0.002).start()
    try:
        session = TableSession("padded", entry, table, batcher)
        held = session.probabilities[:, 1].reshape(table.n_cols,
                                                   table.n_rows)
        np.testing.assert_array_equal(held[:, 0], held[:, 1])
    finally:
        batcher.close()
