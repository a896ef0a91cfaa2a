"""Offline aggregation of JSON-lines telemetry files.

``repro telemetry summarize out.jsonl`` renders the output of a
``--telemetry-out`` session: record counts per type, per-span wall-time
totals, the per-epoch loss trajectory, the inference counters
(rows/unique/cache hits/misses) summed over every prediction call,
p50/p95/p99 estimates for every fixed-bucket histogram in the final
metrics snapshot (e.g. the serving daemon's ``serve.latency``), and
count, total and mean seconds for every timer in that snapshot (e.g.
the level kernels' ``kernel.RNNLevelFunction.backward``).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.errors import ConfigurationError

#: Quantiles reported for every snapshot histogram.
PERCENTILES = (0.50, 0.95, 0.99)


def percentile_from_buckets(edges: Sequence[float], counts: Sequence[int],
                            q: float, maximum: float | None = None) -> float | None:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    ``counts`` has one entry per upper ``edge`` plus a final overflow
    bucket (the :class:`~repro.telemetry.Histogram` layout).  The
    estimate interpolates linearly inside the bucket the quantile lands
    in (the first bucket starts at 0.0, the natural floor for latency
    edges) and never exceeds the observed ``maximum`` when known; an
    overflow landing is reported as that maximum, else as the last finite
    edge.  Returns ``None`` for an empty histogram or ``q`` outside
    ``(0, 1]``.
    """
    if len(counts) != len(edges) + 1:
        raise ConfigurationError(
            f"expected {len(edges) + 1} bucket counts for {len(edges)} "
            f"edges, got {len(counts)}")
    total = sum(counts)
    if total <= 0 or not 0.0 < q <= 1.0:
        return None
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        lower = cumulative
        cumulative += count
        if cumulative >= rank:
            if i >= len(edges):            # overflow bucket
                return float(maximum) if maximum is not None \
                    else float(edges[-1])
            low = 0.0 if i == 0 else float(edges[i - 1])
            high = float(edges[i])
            fraction = (rank - lower) / count
            estimate = low + (high - low) * fraction
            return estimate if maximum is None \
                else min(estimate, float(maximum))
    return float(maximum) if maximum is not None else float(edges[-1])


def summarize_histogram(state: Mapping) -> dict:
    """Count/mean/min/max plus :data:`PERCENTILES` of one histogram
    snapshot (the ``histograms`` entries of a ``snapshot`` record)."""
    count = int(state.get("count", 0))
    summary = {
        "count": count,
        "mean": (float(state["total"]) / count) if count else None,
        "min": state.get("min"),
        "max": state.get("max"),
    }
    for q in PERCENTILES:
        summary[f"p{int(q * 100)}"] = percentile_from_buckets(
            state["edges"], state["counts"], q, maximum=state.get("max"))
    return summary


def read_records(path: str | Path) -> list[dict]:
    """Parse one record per non-empty line of a JSON-lines file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no telemetry file at {path}")
    records = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path}:{i + 1} is not valid JSON: {error}"
            ) from None
    return records


def summarize_records(records: Iterable[Mapping]) -> dict:
    """Aggregate parsed telemetry records into one machine-readable dict.

    Returns a dict with ``record_counts`` (per record type), ``spans``
    (count / total & mean wall seconds per span name), ``epochs``
    (count, first/last/min loss, total wall), ``inference`` (summed
    rows, unique cells, cache hits/misses, evaluated representatives and
    the overall unique-cell ratio and hit rate), ``histograms``
    (count/mean/min/max and p50/p95/p99 per fixed-bucket histogram in
    the final metrics snapshot -- how ``serve.latency`` is read) and
    ``timers`` (count, total and mean seconds per timer in that
    snapshot -- how the kernels' forward/backward timers are read).
    """
    record_counts: dict[str, int] = {}
    spans: dict[str, dict] = {}
    epochs: list[Mapping] = []
    histograms: dict[str, dict] = {}
    timers: dict[str, dict] = {}
    inference = {"calls": 0, "n_rows": 0, "n_unique": 0, "cache_hits": 0,
                 "cache_misses": 0, "n_evaluated": 0}
    for record in records:
        record_type = str(record.get("type", "unknown"))
        record_counts[record_type] = record_counts.get(record_type, 0) + 1
        if record_type == "snapshot":
            # Last snapshot wins: a --telemetry-out session emits one
            # final snapshot carrying the full metrics state.
            histograms = {
                name: summarize_histogram(state)
                for name, state in record.get("metrics", {})
                                         .get("histograms", {}).items()
                if state.get("count")
            }
            timers = {
                name: {"count": int(state["count"]),
                       "total_s": float(state["total"]),
                       "mean_s": float(state["total"]) / int(state["count"])}
                for name, state in record.get("metrics", {})
                                         .get("timers", {}).items()
                if state.get("count")
            }
        elif record_type == "span":
            entry = spans.setdefault(str(record.get("name", "?")),
                                     {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += float(record.get("wall_s", 0.0))
            entry["cpu_s"] += float(record.get("cpu_s", 0.0))
        elif record_type == "epoch":
            epochs.append(record)
        elif record_type == "inference":
            inference["calls"] += 1
            for key in ("n_rows", "n_unique", "cache_hits", "cache_misses",
                        "n_evaluated"):
                inference[key] += int(record.get(key, 0))

    losses = [float(r["loss"]) for r in epochs if "loss" in r]
    epoch_summary = {
        "count": len(epochs),
        "first_loss": losses[0] if losses else None,
        "last_loss": losses[-1] if losses else None,
        "min_loss": min(losses) if losses else None,
        "wall_s": sum(float(r.get("wall_s", 0.0)) for r in epochs),
    }
    lookups = inference["cache_hits"] + inference["cache_misses"]
    inference["unique_ratio"] = (inference["n_unique"] / inference["n_rows"]
                                 if inference["n_rows"] else None)
    inference["hit_rate"] = (inference["cache_hits"] / lookups
                             if lookups else None)
    return {
        "n_records": sum(record_counts.values()),
        "record_counts": record_counts,
        "spans": spans,
        "epochs": epoch_summary,
        "inference": inference,
        "histograms": histograms,
        "timers": timers,
    }


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_summary(summary: Mapping) -> str:
    """Human-readable rendering of :func:`summarize_records` output."""
    lines = [f"records: {summary['n_records']}"]
    for record_type in sorted(summary["record_counts"]):
        lines.append(f"  {record_type:<12} {summary['record_counts'][record_type]}")
    if summary["spans"]:
        lines.append("spans (total wall / count):")
        for name in sorted(summary["spans"]):
            entry = summary["spans"][name]
            lines.append(f"  {name:<28} {entry['wall_s']:.3f}s / {entry['count']}")
    epochs = summary["epochs"]
    if epochs["count"]:
        lines.append(
            f"training: {epochs['count']} epochs, loss "
            f"{_fmt(epochs['first_loss'])} -> {_fmt(epochs['last_loss'])} "
            f"(min {_fmt(epochs['min_loss'])}), {epochs['wall_s']:.3f}s"
        )
    inference = summary["inference"]
    if inference["calls"]:
        lines.append(
            f"inference: {inference['calls']} calls, {inference['n_rows']} rows, "
            f"{inference['n_unique']} unique "
            f"(ratio {_fmt(inference['unique_ratio'])}), "
            f"cache {inference['cache_hits']} hits / "
            f"{inference['cache_misses']} misses "
            f"(hit rate {_fmt(inference['hit_rate'])}), "
            f"{inference['n_evaluated']} network forwards"
        )
    if summary.get("histograms"):
        lines.append("histograms (count / p50 / p95 / p99 / max):")
        for name in sorted(summary["histograms"]):
            entry = summary["histograms"][name]
            lines.append(
                f"  {name:<28} {entry['count']} / "
                f"{_fmt(entry['p50'], 6)} / {_fmt(entry['p95'], 6)} / "
                f"{_fmt(entry['p99'], 6)} / {_fmt(entry['max'], 6)}"
            )
    if summary.get("timers"):
        lines.append("timers (count / total / mean):")
        for name in sorted(summary["timers"]):
            entry = summary["timers"][name]
            lines.append(
                f"  {name:<40} {entry['count']} / "
                f"{entry['total_s']:.4f}s / {entry['mean_s']:.6f}s")
    return "\n".join(lines)


def summarize_jsonl(path: str | Path) -> str:
    """Read, aggregate and render one JSON-lines telemetry file."""
    return render_summary(summarize_records(read_records(path)))
