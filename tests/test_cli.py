"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import load
from repro.table import read_csv, write_csv


@pytest.fixture
def csv_pair(tmp_path):
    pair = load("hospital", n_rows=40, seed=3)
    dirty = tmp_path / "dirty.csv"
    clean = tmp_path / "clean.csv"
    write_csv(pair.dirty, dirty)
    write_csv(pair.clean, clean)
    return dirty, clean


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.rows == 200

    def test_detect_flags(self):
        args = build_parser().parse_args([
            "detect", "--dirty", "d.csv", "--clean", "c.csv",
            "--arch", "tsb", "--epochs", "5", "--cell", "gru"])
        assert args.arch == "tsb"
        assert args.epochs == 5
        assert args.cell == "gru"

    def test_benchmark_validates_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["benchmark", "--dataset", "ghosts"])


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "--rows", "60"]) == 0
        out = capsys.readouterr().out
        assert "beers" in out
        assert "Error Rate" in out

    def test_detect_writes_csv(self, csv_pair, tmp_path, capsys):
        dirty, clean = csv_pair
        out_path = tmp_path / "errors.csv"
        code = main(["detect", "--dirty", str(dirty), "--clean", str(clean),
                     "--epochs", "2", "--tuples", "6",
                     "--out", str(out_path)])
        assert code == 0
        flagged = read_csv(out_path)
        assert flagged.column_names == ["row", "attribute", "value"]

    def test_detect_saves_model(self, csv_pair, tmp_path):
        dirty, clean = csv_pair
        model_path = tmp_path / "model.npz"
        main(["detect", "--dirty", str(dirty), "--clean", str(clean),
              "--epochs", "2", "--tuples", "6", "--save", str(model_path),
              "--out", str(tmp_path / "e.csv")])
        from repro.models.serialization import load_detector
        loaded = load_detector(model_path)
        assert loaded.architecture == "etsb"

    def test_repair_writes_table(self, csv_pair, tmp_path):
        dirty, clean = csv_pair
        out_path = tmp_path / "repaired.csv"
        code = main(["repair", "--dirty", str(dirty), "--clean", str(clean),
                     "--epochs", "2", "--tuples", "6", "--out", str(out_path)])
        assert code == 0
        repaired = read_csv(out_path)
        original = read_csv(dirty)
        assert repaired.shape == original.shape
        assert repaired.column_names == original.column_names

    def test_analyze_command(self, csv_pair, capsys):
        dirty, clean = csv_pair
        code = main(["analyze", "--dirty", str(dirty), "--clean", str(clean),
                     "--epochs", "2", "--tuples", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "attribute" in out

    def test_benchmark_command(self, capsys):
        code = main(["benchmark", "--dataset", "beers", "--rows", "40",
                     "--runs", "1", "--epochs", "2", "--tuples", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "F1 =" in out


class TestPredictCommand:
    def test_predict_with_saved_model(self, csv_pair, tmp_path):
        dirty, clean = csv_pair
        model_path = tmp_path / "model.npz"
        main(["detect", "--dirty", str(dirty), "--clean", str(clean),
              "--epochs", "2", "--tuples", "6", "--save", str(model_path),
              "--out", str(tmp_path / "ignored.csv")])
        out_path = tmp_path / "flagged.csv"
        code = main(["predict", "--model", str(model_path),
                     "--dirty", str(dirty), "--out", str(out_path)])
        assert code == 0
        flagged = read_csv(out_path)
        assert flagged.column_names == ["row", "attribute", "value"]

    def test_predict_no_matching_columns(self, csv_pair, tmp_path):
        dirty, clean = csv_pair
        model_path = tmp_path / "model.npz"
        main(["detect", "--dirty", str(dirty), "--clean", str(clean),
              "--epochs", "2", "--tuples", "6", "--save", str(model_path),
              "--out", str(tmp_path / "ignored.csv")])
        other = tmp_path / "other.csv"
        other.write_text("unrelated\nvalue\n")
        assert main(["predict", "--model", str(model_path),
                     "--dirty", str(other)]) == 1


class TestServingFlags:
    def test_predict_serving_flags(self):
        args = build_parser().parse_args([
            "predict", "--model", "m.npz", "--dirty", "d.csv",
            "--no-dedup", "--cache-size", "128"])
        assert args.no_dedup is True
        assert args.cache_size == 128

    def test_serve_defaults(self):
        args = build_parser().parse_args([
            "serve", "--model", "m.npz", "a.csv", "b.csv"])
        assert args.inputs == ["a.csv", "b.csv"]
        assert args.no_dedup is False
        assert args.cache_size is None

    def test_serve_without_inputs_or_daemon_fails(self, capsys):
        # Inputs are optional at parse time (the daemon takes none),
        # but batch mode without any is a usage error.
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.inputs == []
        assert main(["serve", "--model", "m.npz"]) == 2
        assert "batch mode needs at least one input" \
            in capsys.readouterr().err

    def test_daemon_rejects_inputs(self, capsys):
        assert main(["serve", "--model", "m.npz", "--daemon", "a.csv"]) == 2
        assert "--daemon takes no input" in capsys.readouterr().err

    def test_daemon_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--model", "m.npz", "--daemon", "--port", "7433",
            "--max-batch-rows", "64", "--batch-delay-ms", "2.5",
            "--max-queue-rows", "512"])
        assert args.daemon is True
        assert args.inputs == []
        assert args.host == "127.0.0.1"
        assert args.port == 7433
        assert args.max_batch_rows == 64
        assert args.batch_delay_ms == 2.5
        assert args.max_queue_rows == 512

    def test_daemon_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz",
                                          "a.csv"])
        assert args.daemon is False
        assert args.port == 0
        assert args.max_batch_rows == 256

    def test_daemon_excludes_no_dedup(self, capsys):
        assert main(["serve", "--model", "m.npz", "--daemon",
                     "--no-dedup"]) == 1
        assert "drop --no-dedup" in capsys.readouterr().err


class TestParallelPrecisionFlags:
    def test_defaults_are_serial_float64(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "a.csv"])
        assert args.precision == "float64"

    def test_flags_parse_on_predict_and_serve(self):
        for argv in (["predict", "--model", "m.npz", "--dirty", "d.csv"],
                     ["serve", "--model", "m.npz", "a.csv"]):
            args = build_parser().parse_args(
                argv + ["--precision", "float32"])
            assert args.precision == "float32"

    def test_precision_choices_enforced(self):
        for precision in ("float16", "int8"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["predict", "--model", "m.npz", "--dirty", "d.csv",
                     "--precision", precision])

    def test_flags_reach_the_detector(self):
        from repro.cli import _configure_inference
        from repro.models import ErrorDetector

        args = build_parser().parse_args(
            ["predict", "--model", "m.npz", "--dirty", "d.csv",
             "--precision", "float32"])
        detector = ErrorDetector(n_label_tuples=6)
        _configure_inference(detector, args)
        assert detector.inference_precision == "float32"

    def test_no_dedup_excludes_reduced_precision(self):
        from repro.cli import _configure_inference
        from repro.errors import ConfigurationError
        from repro.models import ErrorDetector

        args = build_parser().parse_args(
            ["predict", "--model", "m.npz", "--dirty", "d.csv",
             "--no-dedup", "--precision", "float32"])
        with pytest.raises(ConfigurationError):
            _configure_inference(ErrorDetector(n_label_tuples=6), args)


class TestServeCommand:
    @pytest.fixture
    def model_path(self, csv_pair, tmp_path):
        dirty, clean = csv_pair
        path = tmp_path / "model.npz"
        main(["detect", "--dirty", str(dirty), "--clean", str(clean),
              "--epochs", "2", "--tuples", "6", "--save", str(path),
              "--out", str(tmp_path / "ignored.csv")])
        return path

    def test_serve_scores_many_files(self, csv_pair, model_path, tmp_path,
                                     capsys):
        dirty, _ = csv_pair
        out_dir = tmp_path / "scored"
        code = main(["serve", "--model", str(model_path),
                     str(dirty), str(dirty), "--out-dir", str(out_dir)])
        assert code == 0
        outputs = sorted(out_dir.glob("*.errors.csv"))
        assert [p.name for p in outputs] == ["dirty.errors.csv"]
        err = capsys.readouterr().err
        assert "cache hit rate" in err
        # the second pass over the same file is served from cache
        assert "cache hits" in err

    def test_serve_cache_persists_across_files(self, csv_pair, model_path,
                                               tmp_path):
        dirty, _ = csv_pair
        from repro.models.serialization import load_detector
        detector = load_detector(model_path)
        from repro.cli import _flagged_cells
        first = _flagged_cells(detector, read_csv(dirty))
        stats_first = detector.inference_stats
        second = _flagged_cells(detector, read_csv(dirty))
        stats_second = detector.inference_stats
        assert stats_first.cache_misses == stats_first.n_unique
        assert stats_second.cache_hits == stats_second.n_unique
        assert stats_second.n_evaluated == 0
        np.testing.assert_array_equal(
            np.array(first.column("row").values),
            np.array(second.column("row").values))

    def test_serve_all_files_unmatched_fails(self, model_path, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("unrelated\nvalue\n")
        assert main(["serve", "--model", str(model_path), str(other)]) == 1

    def test_serve_mixed_files_reports_reasons_and_fails(self, csv_pair,
                                                         model_path,
                                                         tmp_path, capsys):
        dirty, _ = csv_pair
        unmatched = tmp_path / "other.csv"
        unmatched.write_text("unrelated\nvalue\n")
        missing = tmp_path / "absent.csv"
        out_dir = tmp_path / "scored"
        code = main(["serve", "--model", str(model_path),
                     str(unmatched), str(dirty), str(missing),
                     "--out-dir", str(out_dir)])
        # ANY failed input turns the exit nonzero, but the good file
        # was still served.
        assert code == 1
        err = capsys.readouterr().err
        assert (out_dir / "dirty.errors.csv").exists()
        assert "served 1/3 files" in err
        assert f"{unmatched}: FAILED" in err
        assert "no column matches the model's attributes" in err
        assert f"{missing}: FAILED" in err
        assert "2 file(s) failed:" in err

    def test_predict_no_dedup_matches(self, csv_pair, model_path, tmp_path):
        dirty, _ = csv_pair
        fast = tmp_path / "fast.csv"
        naive = tmp_path / "naive.csv"
        assert main(["predict", "--model", str(model_path),
                     "--dirty", str(dirty), "--out", str(fast)]) == 0
        assert main(["predict", "--model", str(model_path),
                     "--dirty", str(dirty), "--out", str(naive),
                     "--no-dedup"]) == 0
        assert fast.read_text() == naive.read_text()

    def test_predict_float32_runs(self, csv_pair, model_path, tmp_path):
        dirty, _ = csv_pair
        out = tmp_path / "fast32.csv"
        assert main(["predict", "--model", str(model_path),
                     "--dirty", str(dirty), "--out", str(out),
                     "--precision", "float32"]) == 0
        assert read_csv(out).column_names == ["row", "attribute", "value"]


class TestTelemetryCli:
    @pytest.fixture
    def model_path(self, csv_pair, tmp_path):
        dirty, clean = csv_pair
        path = tmp_path / "model.npz"
        main(["detect", "--dirty", str(dirty), "--clean", str(clean),
              "--epochs", "2", "--tuples", "6", "--save", str(path),
              "--out", str(tmp_path / "e.csv")])
        return path

    def test_flag_parses_on_workload_commands(self):
        for argv in (["detect", "--dirty", "d", "--clean", "c"],
                     ["predict", "--model", "m", "--dirty", "d"],
                     ["serve", "--model", "m", "x.csv"],
                     ["benchmark", "--dataset", "beers"]):
            args = build_parser().parse_args(argv + ["--telemetry-out",
                                                     "t.jsonl"])
            assert args.telemetry_out == "t.jsonl"

    def test_detect_streams_records_and_snapshot(self, csv_pair, tmp_path,
                                                 capsys):
        import json

        from repro import telemetry

        dirty, clean = csv_pair
        out = tmp_path / "tele.jsonl"
        code = main(["detect", "--dirty", str(dirty), "--clean", str(clean),
                     "--epochs", "2", "--tuples", "6",
                     "--out", str(tmp_path / "e.csv"),
                     "--telemetry-out", str(out)])
        assert code == 0
        assert telemetry.enabled() is False  # session-scoped, restored
        records = [json.loads(line)
                   for line in out.read_text().strip().splitlines()]
        epochs = [r for r in records if r.get("type") == "epoch"]
        assert len(epochs) == 2
        assert records[-1]["type"] == "snapshot"
        assert records[-1]["metrics"]["counters"]["train.epochs"] == 2
        assert "telemetry:" in capsys.readouterr().err

    def test_predict_telemetry_matches_stderr_stats(self, csv_pair,
                                                    model_path, tmp_path,
                                                    capsys):
        import json

        dirty, _ = csv_pair
        out = tmp_path / "predict.jsonl"
        assert main(["predict", "--model", str(model_path),
                     "--dirty", str(dirty), "--out", str(tmp_path / "p.csv"),
                     "--telemetry-out", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().strip().splitlines()]
        inference = [r for r in records if r.get("type") == "inference"]
        assert len(inference) == 1
        assert inference[0]["n_rows"] > 0
        counters = records[-1]["metrics"]["counters"]
        assert counters["inference.rows"] == inference[0]["n_rows"]

    def test_summarize_round_trip(self, csv_pair, tmp_path, capsys):
        dirty, clean = csv_pair
        out = tmp_path / "tele.jsonl"
        main(["detect", "--dirty", str(dirty), "--clean", str(clean),
              "--epochs", "2", "--tuples", "6",
              "--out", str(tmp_path / "e.csv"),
              "--telemetry-out", str(out)])
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "records:" in text
        assert "2 epochs" in text

    def test_summarize_missing_file_fails(self, tmp_path, capsys):
        assert main(["telemetry", "summarize",
                     str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err
