"""End-to-end detection on real files, without labels.

``repro detect <path>`` glues the ingestion layer to the detector: each
ingested table is profiled (:mod:`repro.io.analyze`), the complement of
the per-column conformance mask becomes a *weak* annotator, and
:meth:`~repro.models.detector.ErrorDetector.fit_with_labels` trains the
BiRNN against that annotator -- the production protocol of the paper
with the analyzer standing in for the human.  The fitted network then
scores every cell, so the output ranks suspects by probability instead
of echoing the analyzer verdicts back (the network generalises the
pattern evidence across columns and contexts).

With a pre-trained model (``--model``), training is skipped and the
saved detector scores all columns it knows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.dataprep import encode_cells
from repro.errors import DataError
from repro.io.analyze import ColumnProfile, conforming_mask
from repro.io.ingest import IngestReport, ingest_path
from repro.io.readers import IngestedTable
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.table import Table


@dataclass(frozen=True)
class CellScore:
    """One scored cell of an ingested table."""

    table: str
    row: int
    attribute: str
    value: str
    score: float
    flagged: bool
    conforms: bool


@dataclass(frozen=True)
class DetectOutcome:
    """Scores for one ingested table (``scores`` covers every cell)."""

    table: IngestedTable
    profiles: dict[str, ColumnProfile]
    scores: tuple[CellScore, ...]

    @property
    def flagged(self) -> tuple[CellScore, ...]:
        """The cells the network flags, most suspicious first."""
        return tuple(sorted((s for s in self.scores if s.flagged),
                            key=lambda s: -s.score))


def weak_label_fn(profiles: dict[str, ColumnProfile],
                  attributes: list[str]):
    """Build the analyzer-as-annotator callback for ``fit_with_labels``.

    The returned callable labels a proposed tuple's cell 1 (erroneous)
    exactly when the cell does not conform to its column's dominant
    pattern.  It only looks at the proposed values, so it is pure and
    deterministic.
    """

    def label(_tuple_id: int, row: dict[str, str]) -> list[int]:
        out = []
        for attribute in attributes:
            profile = profiles[attribute]
            value = row.get(attribute, "")
            out.append(0 if conforming_mask(profile, [value])[0] else 1)
        return out

    return label


def _score_with_weak_labels(item: IngestedTable,
                            profiles: dict[str, ColumnProfile],
                            architecture: str, n_label_tuples: int,
                            epochs: int, cell_type: str,
                            seed: int) -> tuple[CellScore, ...]:
    table = item.table
    detector = ErrorDetector(
        architecture=architecture,
        # At least one tuple must stay unlabeled: the split needs a
        # non-empty test side.
        n_label_tuples=min(n_label_tuples, table.n_rows - 1),
        model_config=ModelConfig(cell_type=cell_type),
        training_config=TrainingConfig(epochs=epochs),
        seed=seed,
    )
    # fit_with_labels asks for one label per prepared attribute, in the
    # table's column order (id_ excluded by preparation).
    attributes = [name for name in table.column_names if name != "id_"]
    detector.fit_with_labels(table, weak_label_fn(profiles, attributes))

    encoded = encode_cells(detector.prepared)
    probabilities = detector.trainer.predict_proba(
        encoded.features, lengths=encoded.lengths, dedup=encoded.dedup,
        deduplicate=detector.deduplicate)
    values = {name: table.column(name).values for name in table.column_names}
    scores = []
    for tid, attribute, proba in zip(encoded.tuple_ids,
                                     encoded.attribute_names,
                                     probabilities):
        raw = values[attribute][int(tid)]
        value = "" if raw is None else str(raw)
        scores.append(CellScore(
            table=item.name, row=int(tid), attribute=attribute, value=value,
            score=float(proba[1]), flagged=bool(proba[1] >= proba[0]),
            conforms=conforming_mask(profiles[attribute], [value])[0]))
    return tuple(scores)


def _score_with_model(item: IngestedTable,
                      profiles: dict[str, ColumnProfile],
                      detector: ErrorDetector) -> tuple[CellScore, ...]:
    table = item.table
    columns, probabilities = detector.score_table(table)
    scores = []
    for j, attribute in enumerate(columns):
        for i, raw in enumerate(table.column(attribute).values):
            value = "" if raw is None else str(raw)
            proba = probabilities[j, i]
            scores.append(CellScore(
                table=item.name, row=i, attribute=attribute, value=value,
                score=float(proba[1]), flagged=bool(proba[1] >= proba[0]),
                conforms=conforming_mask(profiles[attribute], [value])[0]))
    return tuple(scores)


def detect_path(path: str | Path, *, detector: ErrorDetector | None = None,
                architecture: str = "etsb", n_label_tuples: int = 20,
                epochs: int = 30, cell_type: str = "rnn",
                seed: int = 0) -> tuple[IngestReport, list[DetectOutcome]]:
    """Ingest ``path`` and score every recovered table (module docstring).

    Returns the ingestion report (skips, stats, profiles) alongside one
    :class:`DetectOutcome` per table.  Tables too small to train on
    (fewer than 2 rows) are scored by analyzer conformance alone.
    """
    report = ingest_path(path)
    outcomes: list[DetectOutcome] = []
    for item in report.tables:
        profiles = report.profiles[item.name]
        if detector is not None:
            scores = _score_with_model(item, profiles, detector)
        elif item.table.n_rows >= 2:
            try:
                scores = _score_with_weak_labels(
                    item, profiles, architecture=architecture,
                    n_label_tuples=n_label_tuples, epochs=epochs,
                    cell_type=cell_type, seed=seed)
            except DataError:
                # Tables too degenerate to split/train (e.g. two near-
                # identical rows) still get analyzer verdicts.
                scores = _analyzer_only_scores(item, profiles)
        else:
            scores = _analyzer_only_scores(item, profiles)
        outcomes.append(DetectOutcome(table=item, profiles=profiles,
                                      scores=scores))
    return report, outcomes


def _analyzer_only_scores(item: IngestedTable,
                          profiles: dict[str, ColumnProfile],
                          ) -> tuple[CellScore, ...]:
    """Degenerate path for tables the BiRNN cannot train on."""
    scores = []
    for attribute in item.table.column_names:
        profile = profiles[attribute]
        for i, raw in enumerate(item.table.column(attribute).values):
            value = "" if raw is None else str(raw)
            conforms = conforming_mask(profile, [value])[0]
            scores.append(CellScore(
                table=item.name, row=i, attribute=attribute, value=value,
                score=0.0 if conforms else 1.0, flagged=not conforms,
                conforms=conforms))
    return tuple(scores)


def scores_table(outcomes: list[DetectOutcome],
                 flagged_only: bool = True) -> Table:
    """Flatten outcomes into a result :class:`Table` for CSV export."""
    rows: list[CellScore] = []
    for outcome in outcomes:
        rows.extend(outcome.flagged if flagged_only else outcome.scores)
    return Table({
        "table": [s.table for s in rows],
        "row": [s.row for s in rows],
        "attribute": [s.attribute for s in rows],
        "value": [s.value for s in rows],
        "score": [f"{s.score:.4f}" for s in rows],
        "conforms": [int(s.conforms) for s in rows],
    })
