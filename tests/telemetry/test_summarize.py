"""Tests for telemetry summarization, especially histogram percentiles."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    percentile_from_buckets,
    render_summary,
    summarize_histogram,
    summarize_jsonl,
    summarize_records,
)

EDGES = [0.001, 0.01, 0.1, 1.0]


class TestPercentileFromBuckets:
    def test_empty_histogram_is_none(self):
        assert percentile_from_buckets(EDGES, [0, 0, 0, 0, 0], 0.5) is None

    def test_q_out_of_range_is_none(self):
        counts = [1, 0, 0, 0, 0]
        assert percentile_from_buckets(EDGES, counts, 0.0) is None
        assert percentile_from_buckets(EDGES, counts, 1.5) is None

    def test_counts_length_validated(self):
        with pytest.raises(ConfigurationError):
            percentile_from_buckets(EDGES, [1, 2, 3], 0.5)

    def test_interpolates_inside_a_bucket(self):
        # 100 observations, all in (0.01, 0.1]: the median sits halfway
        # through that bucket under the linear-interpolation model.
        counts = [0, 0, 100, 0, 0]
        assert percentile_from_buckets(EDGES, counts, 0.5) == pytest.approx(
            0.01 + (0.1 - 0.01) * 0.5)

    def test_first_bucket_floors_at_zero(self):
        counts = [100, 0, 0, 0, 0]
        assert percentile_from_buckets(EDGES, counts, 0.5) == pytest.approx(
            0.0005)

    def test_spread_across_buckets(self):
        # 90 in the first bucket, 10 in the second: p50 interpolates in
        # the first, p95 lands halfway through the second's ten.
        counts = [90, 10, 0, 0, 0]
        p50 = percentile_from_buckets(EDGES, counts, 0.5)
        p95 = percentile_from_buckets(EDGES, counts, 0.95)
        assert p50 == pytest.approx(0.001 * 50 / 90)
        assert p95 == pytest.approx(0.001 + (0.01 - 0.001) * 0.5)

    def test_overflow_is_capped_at_observed_max(self):
        counts = [0, 0, 0, 0, 5]
        assert percentile_from_buckets(EDGES, counts, 0.5,
                                       maximum=2.5) == 2.5
        assert percentile_from_buckets(EDGES, counts, 0.5) == EDGES[-1]

    def test_interpolation_is_clamped_to_observed_max(self):
        # One observation of 0.012 lands in (0.01, 0.025]; interpolating
        # to 99% of that bucket would report 0.0249, above anything seen.
        edges = [0.01, 0.025, 0.05]
        counts = [0, 1, 0, 0]
        assert percentile_from_buckets(edges, counts, 0.99,
                                       maximum=0.012) == 0.012
        assert percentile_from_buckets(edges, counts, 0.5,
                                       maximum=0.012) == 0.012
        assert percentile_from_buckets(edges, counts, 0.99) == pytest.approx(
            0.01 + 0.015 * 0.99)

    def test_p100_is_reachable(self):
        counts = [3, 0, 0, 0, 0]
        assert percentile_from_buckets(EDGES, counts, 1.0) == pytest.approx(
            0.001)


class TestSummarizeHistogram:
    def test_summary_fields(self):
        state = {"count": 100, "total": 5.0, "min": 0.002, "max": 0.09,
                 "edges": EDGES, "counts": [0, 0, 100, 0, 0]}
        summary = summarize_histogram(state)
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.05)
        assert summary["min"] == 0.002
        assert summary["max"] == 0.09
        assert set(summary) >= {"p50", "p95", "p99"}
        assert summary["p50"] == pytest.approx(0.055)

    def test_empty_histogram(self):
        state = {"count": 0, "total": 0.0, "min": None, "max": None,
                 "edges": EDGES, "counts": [0, 0, 0, 0, 0]}
        summary = summarize_histogram(state)
        assert summary["mean"] is None
        assert summary["p99"] is None


def snapshot_record(**histograms):
    return {"type": "snapshot",
            "metrics": {"counters": {}, "gauges": {},
                        "histograms": histograms}}


LATENCY = {"count": 10, "total": 0.2, "min": 0.001, "max": 0.08,
           "edges": EDGES, "counts": [2, 3, 5, 0, 0]}


class TestSnapshotHistograms:
    def test_snapshot_histograms_summarized(self):
        summary = summarize_records([snapshot_record(**{
            "serve.latency": LATENCY,
            "empty.histogram": {"count": 0, "total": 0.0, "min": None,
                                "max": None, "edges": EDGES,
                                "counts": [0, 0, 0, 0, 0]},
        })])
        assert list(summary["histograms"]) == ["serve.latency"]
        entry = summary["histograms"]["serve.latency"]
        assert entry["count"] == 10
        assert entry["p50"] is not None

    def test_last_snapshot_wins(self):
        first = snapshot_record(**{"serve.latency": LATENCY})
        second = snapshot_record(**{
            "serve.latency": {**LATENCY, "count": 99, "total": 1.0,
                              "counts": [99, 0, 0, 0, 0]}})
        summary = summarize_records([first, second])
        assert summary["histograms"]["serve.latency"]["count"] == 99

    def test_render_includes_percentiles(self):
        text = render_summary(summarize_records(
            [snapshot_record(**{"serve.latency": LATENCY})]))
        assert "histograms (count / p50 / p95 / p99 / max):" in text
        assert "serve.latency" in text

    def test_no_histograms_renders_without_section(self):
        text = render_summary(summarize_records([{"type": "span",
                                                  "name": "x",
                                                  "wall_s": 1.0}]))
        assert "histograms" not in text

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(snapshot_record(**{"serve.latency": LATENCY})) + "\n")
        text = summarize_jsonl(path)
        assert "serve.latency" in text

    def test_real_histogram_snapshot_round_trips(self):
        # End to end through the real metrics registry: observe known
        # values, snapshot, summarize.
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("serve.latency")
        for value in (0.002, 0.003, 0.02, 0.05, 0.5):
            histogram.observe(value)
        snapshot = {"type": "snapshot", "metrics": registry.snapshot()}
        summary = summarize_records([snapshot])
        entry = summary["histograms"]["serve.latency"]
        assert entry["count"] == 5
        assert entry["max"] == 0.5
        assert 0.0 < entry["p50"] <= entry["p95"] <= entry["p99"] <= 0.5


class TestSnapshotTimers:
    def test_timers_summarized_with_count_total_and_mean(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        for seconds in (0.25, 0.5, 0.75):
            registry.timer("kernel.RNNLevelFunction.backward").observe(seconds)
        registry.timer("never.observed")
        summary = summarize_records(
            [{"type": "snapshot", "metrics": registry.snapshot()}])
        assert list(summary["timers"]) == ["kernel.RNNLevelFunction.backward"]
        entry = summary["timers"]["kernel.RNNLevelFunction.backward"]
        assert entry == {"count": 3, "total_s": pytest.approx(1.5),
                         "mean_s": pytest.approx(0.5)}

    def test_last_snapshot_wins(self):
        def record(count, total):
            return {"type": "snapshot", "metrics": {"timers": {
                "t": {"count": count, "total": total, "last": 0.1}}}}

        summary = summarize_records([record(1, 0.1), record(4, 2.0)])
        assert summary["timers"]["t"]["count"] == 4

    def test_render_lists_each_timer(self):
        record = {"type": "snapshot", "metrics": {"timers": {
            "kernel.RNNLevelFunction.backward":
                {"count": 4, "total": 2.0, "last": 0.5}}}}
        text = render_summary(summarize_records([record]))
        assert "timers (count / total / mean):" in text
        line = next(l for l in text.splitlines()
                    if "kernel.RNNLevelFunction.backward" in l)
        assert line.split()[1:] == ["4", "/", "2.0000s", "/", "0.500000s"]

    def test_no_timers_renders_without_section(self):
        text = render_summary(summarize_records(
            [snapshot_record(**{"serve.latency": LATENCY})]))
        assert "timers" not in text
