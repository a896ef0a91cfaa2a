"""The end-to-end error-detection API (the paper's "system in action").

:class:`ErrorDetector` wires the whole pipeline together: data
preparation, trainset selection, label acquisition (from the clean table
or a user-supplied labelling function), training with best-train-loss
checkpointing, and evaluation on the held-out cells.  It implements the
registry's :class:`~repro.detectors.base.Detector` protocol itself: the
``tsb``/``etsb``/``attn`` registry entries are the subclasses at the
bottom of this module, which only fix the architecture.
"""

from __future__ import annotations

import hashlib

from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.dataprep import (
    PreparedData,
    TrainTestSplit,
    prepare,
    split_by_tuple_ids,
)
from repro.datasets.base import DatasetPair
from repro.detectors.base import POINTWISE, Detector
from repro.detectors.registry import register
from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.inference import InferenceStats, PredictionCache
from repro.inference.index import DedupIndex
from repro.metrics import ClassificationReport
from repro.models.attn import PatternAttentionEncoder
from repro.models.config import ModelConfig, TrainingConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN
from repro.nn import (
    BestWeightsCheckpoint,
    BucketBatchSampler,
    Callback,
    RMSprop,
    Trainer,
    categorical_cross_entropy,
)
from repro.nn.losses import one_hot
from repro.nn.lowp import PRECISION_MODES
from repro.nn.module import Module
from repro.sampling import DiverSet, Sampler
from repro.table import Table

ARCHITECTURES = ("tsb", "etsb", "attn")

#: Maps a tuple id and its attribute-ordered dirty values to 0/1 labels.
LabelFunction = Callable[[int, dict[str, str]], Sequence[int]]

#: Tiny widths shared by every ``example()`` (conformance-suite speed).
_EXAMPLE_MODEL = dict(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                      attr_units=3, length_dense_units=6, head_units=8,
                      attn_dim=6)


def build_model(architecture: str, prepared: PreparedData,
                config: ModelConfig, rng: np.random.Generator) -> Module:
    """Instantiate TSB-RNN, ETSB-RNN or the attention family for a dataset."""
    if architecture == "tsb":
        return TSBRNN(prepared.char_index.vocab_size, config, rng)
    if architecture == "etsb":
        return ETSBRNN(prepared.char_index.vocab_size,
                       prepared.attribute_index.vocab_size, config, rng)
    if architecture == "attn":
        from repro.nn.attention import pattern_table
        return PatternAttentionEncoder(
            prepared.char_index.vocab_size,
            prepared.attribute_index.vocab_size,
            pattern_table(prepared.char_index), prepared.max_length,
            config, rng)
    raise ConfigurationError(
        f"architecture must be one of {ARCHITECTURES}, got {architecture!r}"
    )


def _loss(probabilities, labels) -> object:
    """Reference loss for models without a fused ``training_loss``.

    TSB-RNN / ETSB-RNN define ``training_loss`` (which the
    :class:`~repro.nn.training.Trainer` prefers and which dispatches to
    the fused dense+softmax+BCE kernel on the default backend); this
    plain composition computes the identical value and is kept as the
    ``loss_fn`` fallback and for restored detectors.
    """
    return categorical_cross_entropy(probabilities, one_hot(labels, 2))


@dataclass(frozen=True)
class DetectionResult:
    """Evaluation output of a fitted detector.

    Attributes
    ----------
    report:
        Precision / recall / F1 / accuracy on the test cells.
    predictions:
        Binary error predictions, parallel to the test cells.
    tuple_ids:
        Tuple id of each test cell.
    attribute_names:
        Attribute of each test cell.
    inference:
        Counters of the prediction pass that produced ``predictions``:
        unique-cell ratio and cache hit/miss counts, so dedup/memoization
        savings stay observable in evaluation output.  ``None`` when the
        naive path was used.
    """

    report: ClassificationReport
    predictions: np.ndarray
    tuple_ids: np.ndarray
    attribute_names: tuple[str, ...]
    inference: InferenceStats | None = None

    def errors(self) -> list[tuple[int, str]]:
        """The (tuple_id, attribute) pairs predicted to be erroneous."""
        return [
            (int(tid), attr)
            for tid, attr, pred in zip(self.tuple_ids, self.attribute_names,
                                       self.predictions)
            if pred == 1
        ]


class ErrorDetector(Detector):
    """Detect erroneous cells in a dirty table with a BiRNN classifier.

    Parameters
    ----------
    architecture:
        ``"etsb"`` (default, the paper's best model), ``"tsb"`` or
        ``"attn"``.  The registered subclasses fix it.
    sampler:
        Trainset-selection algorithm (default: the paper's DiverSet).
    n_label_tuples:
        Number of tuples the user labels (the paper uses 20).
    model_config, training_config:
        Architecture and training hyperparameters, as dataclasses or as
        the plain dicts :meth:`config` returns.
    seed:
        Controls initialization, batching and sampler tie-breaks.
    extra_callbacks:
        Additional training callbacks (e.g. an
        :class:`~repro.nn.callbacks.EpochEvaluator` for learning curves).
    deduplicate:
        Run prediction through the dedup-memoized inference engine
        (default).  Bit-for-bit identical to the naive path; disable only
        to measure the naive baseline.
    prediction_cache_size:
        Capacity of the cross-call :class:`~repro.inference.PredictionCache`
        shared by every prediction this detector serves.
    inference_precision:
        ``"float64"`` (default, the reference) or ``"float32"`` -- the
        reduced-precision fast inference mode (tolerance-gated, requires
        ``deduplicate``).

    The registered subclasses take only the registry arguments
    (``n_label_tuples``, ``model_config``, ``training_config``,
    ``seed``): :meth:`config` carries nothing else, so any other
    argument away from its default raises :class:`ConfigurationError`.
    """

    architecture = "etsb"
    capabilities = frozenset({POINTWISE})

    def __init__(self, architecture: str | None = None,
                 sampler: Sampler | None = None,
                 n_label_tuples: int = 20,
                 model_config: ModelConfig | dict | None = None,
                 training_config: TrainingConfig | dict | None = None,
                 seed: int = 0,
                 extra_callbacks: Sequence[Callback] = (),
                 deduplicate: bool = True,
                 prediction_cache_size: int = 65536,
                 inference_precision: str = "float64"):
        if architecture is None:
            architecture = type(self).architecture
        allowed = (type(self).architecture,) if self.name else ARCHITECTURES
        if architecture not in allowed:
            raise ConfigurationError(
                f"architecture must be one of {allowed}, got {architecture!r}"
            )
        local = {"sampler": sampler is not None,
                 "extra_callbacks": bool(extra_callbacks),
                 "deduplicate": not deduplicate,
                 "prediction_cache_size": prediction_cache_size != 65536,
                 "inference_precision": inference_precision != "float64"}
        if self.name and any(local.values()):
            raise ConfigurationError(
                f"{self.name} takes only n_label_tuples, model_config, "
                "training_config and seed; got "
                f"{[name for name, given in local.items() if given]}")
        if inference_precision not in PRECISION_MODES:
            raise ConfigurationError(
                f"inference_precision must be one of {PRECISION_MODES}, "
                f"got {inference_precision!r}")
        if architecture == "attn" and inference_precision != "float64":
            raise ConfigurationError(
                "the attention family has no reduced-precision evaluator; "
                "use inference_precision='float64'")
        if not deduplicate and inference_precision != "float64":
            raise ConfigurationError(
                "reduced-precision inference requires the dedup engine; "
                "drop deduplicate=False or use float64")
        if isinstance(model_config, dict):
            model_config = ModelConfig(**model_config)
        if isinstance(training_config, dict):
            training_config = TrainingConfig(**training_config)
        # config() reports the configs as given: None stays None.
        self._default_configs = (model_config is None, training_config is None)
        self.architecture = architecture
        self.sampler = sampler if sampler is not None else DiverSet()
        self.n_label_tuples = n_label_tuples
        self.model_config = model_config if model_config is not None else ModelConfig()
        self.training_config = (training_config if training_config is not None
                                else TrainingConfig())
        self.seed = seed
        self.extra_callbacks = tuple(extra_callbacks)
        self.deduplicate = deduplicate
        self.inference_precision = inference_precision
        self.prediction_cache = PredictionCache(capacity=prediction_cache_size)
        self.model: Module | None = None
        self.prepared: PreparedData | None = None
        self.split: TrainTestSplit | None = None
        self.trainer: Trainer | None = None
        self.checkpoint: BestWeightsCheckpoint | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, pair: DatasetPair, labeled_rows: list[int] | None = None,
            checkpoint_path: "str | Path | None" = None,
            resume_from: "str | Path | None" = None) -> "ErrorDetector":
        """Fit on a benchmark pair, labelling tuples from the clean table.

        This mirrors the paper's experiments: the user's labelling of the
        20 selected tuples is simulated with the ground truth, and *only*
        those tuples' labels are ever shown to the model.  The sampler
        picks ``n_label_tuples`` tuples unless ``labeled_rows`` pins
        them (the registry protocol).

        ``checkpoint_path`` / ``resume_from`` pass through to
        :meth:`repro.nn.training.Trainer.fit`: epoch checkpoints are
        written atomically, and resuming from one after a crash yields
        final weights bit-identical to the uninterrupted fit.
        """
        return self.fit_tables(pair.dirty, pair.clean, labeled_rows,
                               checkpoint_path=checkpoint_path,
                               resume_from=resume_from)

    def fit_tables(self, dirty: Table, clean: Table,
                   labeled_rows: list[int] | None = None,
                   checkpoint_path: "str | Path | None" = None,
                   resume_from: "str | Path | None" = None) -> "ErrorDetector":
        """Fit from explicit dirty/clean tables (ground-truth labelling).

        Pinned ``labeled_rows`` go straight to the split, which rejects
        duplicate or unknown ids; no sampler runs, so the seeded
        generator reaches training unconsumed.
        """
        prepared = prepare(dirty, clean)
        rng = np.random.default_rng(self.seed)
        if labeled_rows is None:
            labeled_rows = self.sampler.select(self.n_label_tuples,
                                               prepared, rng)
        split = split_by_tuple_ids(prepared, labeled_rows)
        return self._train(prepared, split, rng,
                           checkpoint_path=checkpoint_path,
                           resume_from=resume_from)

    def fit_with_labels(self, dirty: Table, label_fn: LabelFunction) -> "ErrorDetector":
        """Fit with labels obtained interactively from ``label_fn``.

        This is the production entry point: no clean table exists, the
        sampler proposes tuples and ``label_fn`` plays the human
        annotator, returning one 0/1 label per attribute of the proposed
        tuple.  Evaluation metrics are unavailable in this mode (there is
        no ground truth for the test cells); use :meth:`predict_table`.
        """
        # Self-merge gives a long table with all labels 0; the user's
        # labels overwrite the sampled tuples' rows below.
        prepared = prepare(dirty, dirty)
        rng = np.random.default_rng(self.seed)
        train_ids = self.sampler.select(self.n_label_tuples, prepared, rng)

        id_col = prepared.df.column("id_").values
        attr_col = prepared.df.column("attribute").values
        value_col = prepared.df.column("value_x").values
        rows_by_id: dict[int, dict[str, str]] = {}
        for tid, attr, value in zip(id_col, attr_col, value_col):
            rows_by_id.setdefault(int(tid), {})[attr] = value

        labels_by_cell: dict[tuple[int, str], int] = {}
        for tid in train_ids:
            row = rows_by_id[tid]
            labels = list(label_fn(tid, row))
            if len(labels) != len(prepared.attributes):
                raise ConfigurationError(
                    f"label_fn returned {len(labels)} labels for tuple {tid}, "
                    f"expected {len(prepared.attributes)}"
                )
            for attr, label in zip(prepared.attributes, labels):
                if label not in (0, 1):
                    raise ConfigurationError(
                        f"labels must be 0 or 1, got {label!r}"
                    )
                labels_by_cell[(tid, attr)] = int(label)

        df = prepared.df.with_computed(
            "label",
            lambda row: labels_by_cell.get((int(row["id_"]), row["attribute"]),
                                           int(row["label"])),
        )
        prepared = PreparedData(
            df=df, attributes=prepared.attributes,
            char_index=prepared.char_index,
            attribute_index=prepared.attribute_index,
            max_length=prepared.max_length,
        )
        split = split_by_tuple_ids(prepared, train_ids)
        return self._train(prepared, split, rng)

    def _train(self, prepared: PreparedData, split: TrainTestSplit,
               rng: np.random.Generator,
               checkpoint_path: "str | Path | None" = None,
               resume_from: "str | Path | None" = None) -> "ErrorDetector":
        model = build_model(self.architecture, prepared, self.model_config, rng)
        optimizer = RMSprop(model.parameters(),
                            learning_rate=self.training_config.learning_rate)
        checkpoint = BestWeightsCheckpoint(monitor="loss", mode="min")
        batch_sampler = None
        if self.training_config.bucket_batches:
            batch_sampler = BucketBatchSampler(
                edges=self.training_config.bucket_edges,
                n_buckets=self.training_config.n_length_buckets,
            )
        trainer = Trainer(
            model=model,
            optimizer=optimizer,
            loss_fn=_loss,
            max_grad_norm=self.training_config.max_grad_norm,
            rng=rng,
            callbacks=(checkpoint, *self.extra_callbacks),
            batch_sampler=batch_sampler,
            prediction_cache=self.prediction_cache,
        )
        batch_size = self.training_config.batch_size(split.train_size)
        # Publish state before fitting so that per-epoch callbacks (e.g.
        # learning-curve evaluators) can reach the model and the split.
        self.model = model
        self.prepared = prepared
        self.split = split
        self.trainer = trainer
        self.checkpoint = checkpoint
        trainer.fit(split.train.features, split.train.labels,
                    epochs=self.training_config.epochs, batch_size=batch_size,
                    lengths=split.train.lengths,
                    checkpoint_path=checkpoint_path, resume_from=resume_from)
        return self

    # -- inference ------------------------------------------------------------

    def _require_fitted(self) -> tuple[Module, PreparedData, TrainTestSplit, Trainer]:
        if self.model is None or self.prepared is None or self.split is None \
                or self.trainer is None:
            raise NotFittedError("fit() has not been called")
        return self.model, self.prepared, self.split, self.trainer

    def predict(self, features: dict[str, np.ndarray],
                lengths: np.ndarray | None = None,
                dedup: DedupIndex | None = None) -> np.ndarray:
        """Binary error predictions for encoded features.

        Works on freshly fitted detectors and on detectors restored via
        :func:`repro.models.serialization.load_detector` (which carry no
        train/test split).  ``lengths`` (true per-row sequence lengths,
        e.g. :attr:`~repro.dataprep.encoding.EncodedCells.lengths`)
        enables sorted-by-length inference chunking: cheaper on skewed
        data, identical predictions.  By default the dedup-memoized
        engine runs -- the network scores each unique cell once, the
        cross-call cache serves cells seen before -- with ``dedup``
        optionally supplying the precomputed unique-cell index.
        """
        if self.trainer is None:
            raise NotFittedError("fit() has not been called")
        probabilities = self.trainer.predict_proba(
            features, lengths=lengths, dedup=dedup,
            deduplicate=self.deduplicate,
            precision=self.inference_precision)
        return probabilities.argmax(axis=1).astype(np.int64)

    @property
    def inference_stats(self) -> InferenceStats | None:
        """Counters of the most recent dedup prediction (``None`` if naive)."""
        if self.trainer is None or not self.deduplicate:
            return None
        return self.trainer.inference_stats

    def evaluate(self) -> DetectionResult:
        """Evaluate the fitted model on the held-out test cells.

        The returned :class:`DetectionResult` carries the prediction
        pass's :class:`~repro.inference.InferenceStats` (unique-cell
        ratio, cache hits/misses) so dedup savings stay observable.
        """
        _, __, split, ___ = self._require_fitted()
        predictions = self.predict(split.test.features,
                                   lengths=split.test.lengths,
                                   dedup=split.test.dedup)
        report = ClassificationReport.from_predictions(split.test.labels,
                                                       predictions)
        result = DetectionResult(
            report=report,
            predictions=predictions,
            tuple_ids=split.test.tuple_ids,
            attribute_names=split.test.attribute_names,
            inference=self.inference_stats,
        )
        if telemetry.enabled():
            record = {
                "type": "evaluation",
                "n_cells": int(predictions.shape[0]),
                "precision": round(report.precision, 4),
                "recall": round(report.recall, 4),
                "f1": round(report.f1, 4),
            }
            if result.inference is not None:
                record["inference"] = result.inference.as_dict()
            telemetry.get_registry().emit(record)
        return result

    def score_table(self, table: Table) -> tuple[list[str], np.ndarray]:
        """Error probabilities for every cell of ``table``'s known columns.

        Returns ``(columns, probabilities)``: the columns of ``table``
        the detector was fitted on, in table order, and their cells'
        ``[clean, error]`` probabilities, ``(len(columns), n_rows, 2)``.
        Other columns are skipped.  Cells are encoded column-major and
        predicted through the dedup engine and the cross-call cache,
        without ``lengths``.
        """
        from repro.models import serialization

        if self.prepared is None or self.trainer is None:
            raise NotFittedError("fit() has not been called")
        known = set(self.prepared.attributes)
        columns = [name for name in table.column_names if name in known]
        if not columns:
            return columns, np.zeros((0, table.n_rows, 2))
        values: list = []
        attributes: list[str] = []
        for name in columns:
            values.extend(table.column(name).values)
            attributes.extend([name] * table.n_rows)
        features = serialization.encode_values_for(self, values, attributes)
        probabilities = self.trainer.predict_proba(
            features, deduplicate=self.deduplicate,
            precision=self.inference_precision)
        return columns, probabilities.reshape(len(columns), table.n_rows, 2)

    def predict_table(self) -> list[tuple[int, str]]:
        """Predicted-erroneous cells over the *whole* table (train + test)."""
        from repro.dataprep import encode_cells
        _, prepared, __, trainer = self._require_fitted()
        encoded = encode_cells(prepared)
        probabilities = trainer.predict_proba(encoded.features,
                                              lengths=encoded.lengths,
                                              dedup=encoded.dedup,
                                              deduplicate=self.deduplicate,
                                              precision=self.inference_precision)
        predictions = probabilities.argmax(axis=1)
        return [
            (int(tid), attr)
            for tid, attr, pred in zip(encoded.tuple_ids,
                                       encoded.attribute_names, predictions)
            if pred == 1
        ]

    # -- registry protocol -----------------------------------------------------

    def score_cells(self, table: Table) -> np.ndarray:
        fitted = None if self.prepared is None else tuple(self.prepared.attributes)
        if fitted is not None and tuple(table.column_names) != fitted:
            raise DataError(f"{self.name} was fitted on columns {fitted}, "
                            f"got {tuple(table.column_names)}")
        _, probabilities = self.score_table(table)
        return probabilities[:, :, 1].T

    def config(self) -> dict:
        """Registry kwargs; a config not given at construction reads ``None``."""
        default_model, default_training = self._default_configs
        return {
            "n_label_tuples": self.n_label_tuples,
            "model_config": None if default_model else asdict(self.model_config),
            "training_config": (None if default_training
                                else asdict(self.training_config)),
            "seed": self.seed,
        }

    def _state_digest(self) -> str | None:
        if self.model is None:
            return None
        digest = hashlib.sha256()
        state = self.model.state_dict()
        for key in sorted(state):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(state[key]).tobytes())
        return digest.hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        """:func:`~repro.models.serialization.save_detector`."""
        from repro.models.serialization import save_detector
        save_detector(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "ErrorDetector":
        """:func:`~repro.models.serialization.load_detector`, refusing an
        archive of another architecture."""
        from repro.models.serialization import load_detector
        detector = load_detector(path)
        if not isinstance(detector, cls):
            raise DataError(
                f"{path}: archive holds a {detector.architecture!r} model, "
                f"not {cls.architecture!r}")
        return detector

    @classmethod
    def example(cls, seed: int = 0) -> "ErrorDetector":
        return cls(n_label_tuples=6, model_config=dict(_EXAMPLE_MODEL),
                   training_config={"epochs": 2}, seed=seed)


@register
class TSBDetector(ErrorDetector):
    """The paper's two-stacked bidirectional value RNN."""

    name = "tsb"
    architecture = "tsb"


@register
class ETSBDetector(ErrorDetector):
    """The enriched three-branch BiRNN (the paper's best model)."""

    name = "etsb"
    architecture = "etsb"


@register
class AttnDetector(ErrorDetector):
    """The pattern-perceptive self-attention encoder."""

    name = "attn"
    architecture = "attn"

