"""Cross-detector comparison under one shared labelled-tuples budget.

The registry (:mod:`repro.detectors`) makes every family scoreable the
same way, so this module runs them side by side under the strictest
protocol: per run seed, *one* DiverSet labelled-row set is drawn and
handed to every detector (neural families train on exactly those tuples
via ``labeled_rows``), and metrics are computed on all cells of the
non-labelled tuples.  Because the ensemble's raw-member candidates fit
on the same rows, an ensemble that arbitrates to a lone raw member
reproduces that member's row byte for byte -- differences in the table
are attributable to fusion, never to sampling noise.
"""

from __future__ import annotations

import json
import time

from pathlib import Path

import numpy as np

from repro.dataprep import prepare
from repro.datasets.base import DatasetPair
from repro.detectors import build, get, list_detectors
from repro.errors import ExperimentError
from repro.experiments.runner import (
    ARCHITECTURE_LABELS,
    ExperimentResult,
    RunResult,
)
from repro.metrics import ClassificationReport
from repro.models import ErrorDetector
from repro.sampling import DiverSet

#: Report labels per registry detector (Table 3 naming).
DETECTOR_LABELS = {
    **ARCHITECTURE_LABELS,
    "raha": "Raha (ours)",
    "augment": "Augment (ours)",
    "ensemble": "Ensemble (ours)",
}

#: Ensemble members used when a comparison names bare ``"ensemble"``.
DEFAULT_ENSEMBLE_MEMBERS = ("etsb", "raha")


def _default_config(name: str, n_label_tuples: int, epochs: int | None,
                    model_config: dict | None) -> dict:
    """Comparison-scale constructor kwargs for one registry detector."""
    config: dict = {"n_label_tuples": n_label_tuples}
    neural = {"n_label_tuples": n_label_tuples}
    if epochs is not None:
        neural["training_config"] = {"epochs": epochs}
    if model_config is not None:
        neural["model_config"] = dict(model_config)
    if name == "ensemble":
        config["members"] = [
            (member, dict(neural) if issubclass(get(member), ErrorDetector)
             else {})
            for member in DEFAULT_ENSEMBLE_MEMBERS]
    elif issubclass(get(name), ErrorDetector):
        config = neural
    return config


def run_detector_comparison(pair: DatasetPair,
                            detectors: tuple[str, ...] = ("etsb", "raha",
                                                          "ensemble"),
                            n_runs: int = 3, n_label_tuples: int = 20,
                            epochs: int | None = None,
                            model_config: dict | None = None,
                            detector_configs: dict[str, dict] | None = None,
                            base_seed: int = 0) -> dict[str, ExperimentResult]:
    """Run every named detector over shared labelled rows, per seed.

    Parameters
    ----------
    detectors:
        Registry names (see :func:`repro.detectors.list_detectors`).
    epochs, model_config:
        Comparison-scale overrides threaded into every neural detector
        (and the ensemble's neural members); ``None`` keeps defaults.
    detector_configs:
        Per-name constructor overrides, replacing the defaults entirely
        for that detector (``seed`` is still managed per run).
    base_seed:
        Run ``i`` uses seed ``base_seed + i`` for sampling and fitting.
    """
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    unknown = [d for d in detectors if d not in list_detectors()]
    if unknown:
        raise ExperimentError(
            f"unknown detectors {unknown}; registered: {list_detectors()}")
    prepared = prepare(pair.dirty, pair.clean)
    mask = np.array(pair.error_mask())
    runs: dict[str, list[RunResult]] = {name: [] for name in detectors}
    for run_index in range(n_runs):
        seed = base_seed + run_index
        rng = np.random.default_rng(seed)
        labeled_rows = DiverSet().select(n_label_tuples, prepared, rng)
        test_rows = np.array([i for i in range(pair.n_rows)
                              if i not in set(labeled_rows)])
        for name in detectors:
            if detector_configs and name in detector_configs:
                config = dict(detector_configs[name])
            else:
                config = _default_config(name, n_label_tuples, epochs,
                                         model_config)
            detector = build(name, **{**config, "seed": seed})
            started = time.perf_counter()
            detector.fit(pair, labeled_rows=labeled_rows)
            predictions = detector.predict_cells(pair.dirty)
            elapsed = time.perf_counter() - started
            report = ClassificationReport.from_predictions(
                mask[test_rows].astype(np.int64).reshape(-1),
                predictions[test_rows].reshape(-1))
            runs[name].append(RunResult(seed=seed, report=report,
                                        train_seconds=elapsed,
                                        best_epoch=None))
    return {
        name: ExperimentResult(dataset=pair.name,
                               system=DETECTOR_LABELS.get(name, name),
                               runs=tuple(runs[name]))
        for name in detectors
    }


def run_ensemble_baseline(pair: DatasetPair,
                          members: tuple[str, ...] = DEFAULT_ENSEMBLE_MEMBERS,
                          n_runs: int = 3, n_label_tuples: int = 20,
                          epochs: int | None = None,
                          base_seed: int = 0) -> ExperimentResult:
    """Evaluate one fused ensemble under the comparison protocol."""
    neural: dict = {"n_label_tuples": n_label_tuples}
    if epochs is not None:
        neural["training_config"] = {"epochs": epochs}
    member_specs = [
        (member, dict(neural) if issubclass(get(member), ErrorDetector)
         else {})
        for member in members]
    results = run_detector_comparison(
        pair, detectors=("ensemble",), n_runs=n_runs,
        n_label_tuples=n_label_tuples, base_seed=base_seed,
        detector_configs={"ensemble": {
            "members": member_specs, "n_label_tuples": n_label_tuples}})
    return results["ensemble"]


def render_comparison(results: dict[str, ExperimentResult]) -> str:
    """Fixed-width text table, one row per detector."""
    header = (f"{'detector':<10} {'system':<16} {'P':>6} {'R':>6} "
              f"{'F1':>6} {'F1 sd':>6} {'sec':>7}")
    lines = [header, "-" * len(header)]
    for name, result in results.items():
        row = result.as_row()
        lines.append(
            f"{name:<10} {result.system:<16} {row['P']:>6.3f} "
            f"{row['R']:>6.3f} {row['F1']:>6.3f} {row['F1_sd']:>6.3f} "
            f"{row['seconds']:>7.2f}")
    return "\n".join(lines)


def save_comparison(results: dict[str, ExperimentResult],
                    path: str | Path,
                    settings: dict[str, object] | None = None) -> None:
    """Write the comparison as a JSON benchmark record."""
    payload = {
        "benchmark": "detector_comparison",
        "settings": settings or {},
        "rows": {name: {"system": result.system, **{
            k: (round(v, 4) if isinstance(v, float) else v)
            for k, v in result.as_row().items()}}
            for name, result in results.items()},
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
