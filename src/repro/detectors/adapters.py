"""Registry adapters over the baseline detectors.

Each adapter folds one baseline -- :class:`RahaDetector`,
:class:`AugmentationDetector` -- into the uniform
:class:`~repro.detectors.base.Detector` protocol, so ensembles,
experiment tables, the CLI and the conformance suite treat them like the
neural families (which implement the protocol directly, see
:class:`~repro.models.detector.ErrorDetector`).
"""

from __future__ import annotations

import hashlib
import json

from pathlib import Path

import numpy as np

from repro.baselines.augment import AugmentationDetector
from repro.baselines.raha import RahaDetector
from repro.dataprep import prepare
from repro.dataprep.pipeline import _normalise_cell
from repro.datasets.base import DatasetPair
from repro.detectors.base import (
    PROCESS_LOCAL,
    POINTWISE,
    TRANSDUCTIVE,
    Detector,
    atomic_savez,
    npz_path,
)
from repro.detectors.registry import register
from repro.errors import DataError, NotFittedError
from repro.sampling import DiverSet
from repro.table import Table


def table_digest(table: Table) -> str:
    """Content hash of a table (column names + normalised cell text)."""
    digest = hashlib.sha256()
    for name in table.column_names:
        digest.update(name.encode())
        digest.update(b"\x00")
        for value in table.column(name).values:
            digest.update(_normalise_cell(value).encode())
            digest.update(b"\x01")
    return digest.hexdigest()


# -- Raha ---------------------------------------------------------------------


@register
class RahaAdapter(Detector):
    """Adapter over the configuration-free Raha baseline.

    Transductive: the strategy-verdict clustering is computed for one
    dirty table, so only that table can be scored.  Scores are the hard
    0/1 verdicts of the propagated per-column classifiers.
    """

    name = "raha"
    capabilities = frozenset({TRANSDUCTIVE})

    def __init__(self, n_label_tuples: int = 20, clusters_per_label: int = 2,
                 seed: int = 0):
        self.n_label_tuples = n_label_tuples
        self.clusters_per_label = clusters_per_label
        self.seed = seed
        self._predictions: np.ndarray | None = None
        self._digest: str | None = None
        self._columns: tuple[str, ...] | None = None

    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "RahaAdapter":
        rng = np.random.default_rng(self.seed)
        detector = RahaDetector(clusters_per_label=self.clusters_per_label,
                                rng=rng)
        n_labels = (len(labeled_rows) if labeled_rows is not None
                    else self.n_label_tuples)
        detector.analyze(pair.dirty, n_labels=n_labels)
        if labeled_rows is None:
            labeled_rows = detector.sample_tuples(self.n_label_tuples)
        mask = np.array(pair.error_mask())
        predictions = detector.fit_predict(
            labeled_rows, mask[labeled_rows].astype(np.int64))
        self._predictions = predictions.astype(np.float64)
        self._digest = table_digest(pair.dirty)
        self._columns = tuple(pair.dirty.column_names)
        return self

    def score_cells(self, table: Table) -> np.ndarray:
        if self._predictions is None:
            raise NotFittedError("raha: fit() has not been called")
        if table_digest(table) != self._digest:
            raise DataError(
                "raha is transductive: score_cells only accepts the table "
                "it was fitted on")
        return self._predictions.copy()

    def config(self) -> dict:
        return {"n_label_tuples": self.n_label_tuples,
                "clusters_per_label": self.clusters_per_label,
                "seed": self.seed}

    def _state_digest(self) -> str | None:
        if self._predictions is None:
            return None
        digest = hashlib.sha256(self._predictions.tobytes())
        digest.update((self._digest or "").encode())
        return digest.hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        if self._predictions is None:
            raise NotFittedError("raha: fit() has not been called")
        meta = {"config": self.config(), "digest": self._digest,
                "columns": list(self._columns or ())}
        atomic_savez(npz_path(path), {"meta": np.array(json.dumps(meta)),
                                      "predictions": self._predictions})

    @classmethod
    def load(cls, path: str | Path) -> "RahaAdapter":
        with np.load(npz_path(path), allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            predictions = archive["predictions"]
        adapter = cls(**meta["config"])
        adapter._predictions = predictions
        adapter._digest = meta["digest"]
        adapter._columns = tuple(meta["columns"])
        return adapter

    @classmethod
    def example(cls, seed: int = 0) -> "RahaAdapter":
        return cls(n_label_tuples=6, seed=seed)


# -- augmentation -------------------------------------------------------------


@register
class AugmentAdapter(Detector):
    """Adapter over the per-attribute augmentation baseline.

    Pointwise (a cell's score depends only on its text and column), but
    ``process_local``: the hashed n-gram features are keyed on Python's
    per-process ``hash()`` salt, so archives only round-trip within the
    writing process.
    """

    name = "augment"
    capabilities = frozenset({POINTWISE, PROCESS_LOCAL})

    def __init__(self, n_label_tuples: int = 20, n_augments: int = 4,
                 n_buckets: int = 256, seed: int = 0):
        self.n_label_tuples = n_label_tuples
        self.n_augments = n_augments
        self.n_buckets = n_buckets
        self.seed = seed
        self._models: dict[str, AugmentationDetector] | None = None
        self._columns: tuple[str, ...] | None = None

    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "AugmentAdapter":
        prepared = prepare(pair.dirty, pair.clean)
        rng = np.random.default_rng(self.seed)
        if labeled_rows is None:
            labeled_rows = DiverSet().select(self.n_label_tuples, prepared,
                                             rng)
        train_ids = set(int(t) for t in labeled_rows)
        rows = prepared.df.to_rows()
        models: dict[str, AugmentationDetector] = {}
        for attribute in prepared.attributes:
            train = [r for r in rows
                     if r["attribute"] == attribute and r["id_"] in train_ids]
            model = AugmentationDetector(n_augments=self.n_augments,
                                         n_buckets=self.n_buckets, rng=rng)
            model.fit([r["value_x"] for r in train],
                      [int(r["label"]) for r in train])
            models[attribute] = model
        self._models = models
        self._columns = tuple(pair.dirty.column_names)
        return self

    def score_cells(self, table: Table) -> np.ndarray:
        if self._models is None:
            raise NotFittedError("augment: fit() has not been called")
        if tuple(table.column_names) != self._columns:
            raise DataError(
                f"augment was fitted on columns {self._columns}, "
                f"got {tuple(table.column_names)}")
        scores = np.zeros((table.n_rows, table.n_cols))
        for j, attribute in enumerate(table.column_names):
            texts = [_normalise_cell(v)
                     for v in table.column(attribute).values]
            scores[:, j] = self._models[attribute].predict_proba(texts)
        return scores

    def config(self) -> dict:
        return {"n_label_tuples": self.n_label_tuples,
                "n_augments": self.n_augments,
                "n_buckets": self.n_buckets, "seed": self.seed}

    def _state_digest(self) -> str | None:
        if self._models is None:
            return None
        digest = hashlib.sha256()
        for attribute in sorted(self._models):
            model = self._models[attribute]
            digest.update(attribute.encode())
            classifier = model._classifier
            if classifier is None:
                digest.update(str(getattr(model, "_constant", "")).encode())
            else:
                assert classifier.coefficients is not None
                digest.update(classifier.coefficients.tobytes())
                digest.update(np.float64(classifier.intercept).tobytes())
        return digest.hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        if self._models is None:
            raise NotFittedError("augment: fit() has not been called")
        arrays: dict[str, np.ndarray] = {}
        columns_meta = {}
        for attribute, model in self._models.items():
            classifier = model._classifier
            if classifier is None:
                columns_meta[attribute] = {
                    "constant": int(getattr(model, "_constant", 0))}
            else:
                assert classifier.coefficients is not None
                columns_meta[attribute] = {
                    "intercept": classifier.intercept}
                arrays[f"coef:{attribute}"] = classifier.coefficients
        meta = {"config": self.config(),
                "columns": list(self._columns or ()),
                "models": columns_meta}
        atomic_savez(npz_path(path),
                     {"meta": np.array(json.dumps(meta)), **arrays})

    @classmethod
    def load(cls, path: str | Path) -> "AugmentAdapter":
        from repro.baselines.logreg import LogisticRegression
        with np.load(npz_path(path), allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            coefs = {name[len("coef:"):]: archive[name]
                     for name in archive.files if name.startswith("coef:")}
        adapter = cls(**meta["config"])
        models: dict[str, AugmentationDetector] = {}
        for attribute, column_meta in meta["models"].items():
            model = AugmentationDetector(
                n_augments=meta["config"]["n_augments"],
                n_buckets=meta["config"]["n_buckets"])
            if "constant" in column_meta:
                model._classifier = None
                model._constant = int(column_meta["constant"])
            else:
                classifier = LogisticRegression()
                classifier.coefficients = coefs[attribute]
                classifier.intercept = float(column_meta["intercept"])
                model._classifier = classifier
            models[attribute] = model
        adapter._models = models
        adapter._columns = tuple(meta["columns"])
        return adapter

    @classmethod
    def example(cls, seed: int = 0) -> "AugmentAdapter":
        return cls(n_label_tuples=6, n_augments=2, seed=seed)
