"""End-to-end daemon tests over a real local socket."""

import json

import numpy as np
import pytest

from repro.inference import InferenceEngine
from repro.models.serialization import save_detector
from repro.serving import ServingClient, ServingDaemon
from repro.serving import protocol
from repro.table import write_csv

from tests.serving.conftest import build_detector, encode_cells, paper_tables


@pytest.fixture
def daemon(detector):
    with ServingDaemon(detector=detector, batch_delay_ms=2.0) as daemon:
        yield daemon


@pytest.fixture
def client(daemon):
    with ServingClient(daemon.host, daemon.port) as client:
        yield client


def load_paper_table(client, session="t"):
    dirty, _ = paper_tables()
    columns = {name: list(dirty.column(name).values)
               for name in dirty.column_names}
    return client.request({"op": "load_table", "session": session,
                           "columns": columns})


class TestRequestReply:
    def test_ping(self, client):
        reply = client.request({"op": "ping"})
        assert reply["ok"] is True
        assert reply["tenants"] == ["default"]

    def test_score_matches_direct_engine(self, prepared, client):
        values = ["80,000", "abc", "8000"]
        attribute = prepared.attributes[0]
        reply = client.request({"op": "score", "cells": [
            {"attribute": attribute, "value": v} for v in values]})
        assert reply["ok"] is True
        assert len(reply["flags"]) == len(values)
        assert reply["weights_version"] == 0
        reference = build_detector(prepared)
        engine = InferenceEngine(reference.model)
        features, lengths = encode_cells(reference, values, attribute)
        expected = engine.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(np.array(reply["probabilities"]),
                                      expected)
        assert reply["flags"] == list(expected.argmax(axis=1))

    def test_score_validates_cells(self, client, prepared):
        for cells in (None, [], [{"value": "x"}],
                      [{"attribute": "ghost", "value": "x"}]):
            reply = client.request({"op": "score", "cells": cells})
            assert reply["ok"] is False
            assert reply["code"] == protocol.BAD_REQUEST

    def test_unknown_op_and_bad_json(self, daemon, client):
        reply = client.request({"op": "warp"})
        assert reply["code"] == protocol.BAD_REQUEST
        assert "unknown op" in reply["error"]
        reply = daemon.handle_line(b"{not json\n")
        assert reply["code"] == protocol.BAD_REQUEST

    def test_unknown_tenant_is_not_found(self, client):
        reply = client.request({"op": "ping"})  # daemon up
        reply = client.request({"op": "score", "tenant": "ghost",
                                "cells": [{"attribute": "A", "value": "1"}]})
        assert reply["ok"] is False
        assert reply["code"] == protocol.NOT_FOUND
        assert "ghost" in reply["error"]

    def test_error_counters(self, daemon, client):
        client.request({"op": "nope"})
        assert daemon.n_errors >= 1


class TestSessions:
    def test_load_table_inline_and_update(self, client):
        reply = load_paper_table(client)
        assert reply["ok"] is True
        assert reply["n_table_rows"] == 5
        assert reply["n_feature_rows"] == 5 * len(reply["columns"])
        assert reply["skipped_columns"] == []
        for item in reply["flagged"]:
            assert set(item) == {"row", "attribute", "value"}

        update = client.request({"op": "update", "session": "t", "row": 0,
                                 "column": reply["columns"][0],
                                 "value": "new"})
        assert update["ok"] is True
        assert update["n_rescored"] == 1
        assert update["full_rescore"] is False

    def test_load_table_from_csv(self, client, tmp_path):
        dirty, _ = paper_tables()
        path = tmp_path / "dirty.csv"
        write_csv(dirty, path)
        reply = client.request({"op": "load_table", "session": "csv",
                                "csv": str(path)})
        assert reply["ok"] is True
        assert reply["n_table_rows"] == 5

    def test_unknown_session_is_not_found(self, client):
        reply = client.request({"op": "update", "session": "ghost",
                                "row": 0, "column": "A", "value": "x"})
        assert reply["ok"] is False
        assert reply["code"] == protocol.NOT_FOUND
        assert "ghost" in reply["error"]

    def test_feedback_roundtrip(self, client):
        reply = load_paper_table(client)
        column = reply["columns"][0]
        reply = client.request({"op": "feedback", "session": "t",
                                "row": 1, "column": column, "label": 1})
        assert reply["ok"] is True
        assert reply["n_feedback"] == 1
        reply = client.request({"op": "feedback", "session": "t",
                                "row": 1, "column": column, "label": 5})
        assert reply["code"] == protocol.BAD_REQUEST


class TestSwapAndStats:
    def test_swap_model_over_the_wire(self, prepared, client, tmp_path):
        path = tmp_path / "v2.npz"
        save_detector(build_detector(prepared, seed=7), path)
        reply = client.request({"op": "swap_model", "model": str(path)})
        assert reply["ok"] is True
        assert reply["mode"] == "in-place"
        assert reply["version"] == 1
        reply = client.request({"op": "swap_model"})
        assert reply["code"] == protocol.BAD_REQUEST

    def test_stats_reflects_traffic(self, client):
        load_paper_table(client)
        reply = client.request({"op": "stats"})
        assert reply["ok"] is True
        assert reply["requests"]["n_requests"] >= 2
        assert reply["batcher"]["n_batches"] >= 1
        assert "default" in reply["tenants"]
        assert reply["sessions"]["t"]["n_feature_rows"] > 0


class TestBackpressure:
    def test_admission_bound_returns_429(self, detector):
        daemon = ServingDaemon(detector=detector, max_queue_rows=1)
        try:
            # The batcher thread is not running, so a queued row stays
            # queued: the next request must be shed at the door.
            features, lengths = encode_cells(detector, ["x"])
            daemon.batcher.submit("default", features, lengths)
            reply = daemon.handle_line(json.dumps(
                {"op": "score",
                 "cells": [{"attribute": detector.prepared.attributes[0],
                            "value": "y"}]}).encode() + b"\n")
            assert reply["ok"] is False
            assert reply["code"] == protocol.OVERLOADED
            assert reply["retry"] is True
            assert daemon.n_rejected == 1
        finally:
            daemon.batcher.start()  # drain the stranded future
            daemon.close()


class TestShutdown:
    def test_shutdown_op_stops_the_daemon(self, detector):
        daemon = ServingDaemon(detector=detector).start()
        with ServingClient(daemon.host, daemon.port) as client:
            reply = client.request({"op": "shutdown"})
            assert reply["ok"] is True
            assert reply["stopping"] is True
            # The internal reply-then-drop marker is framing, not
            # protocol: it must never be serialized onto the wire.
            assert "_close" not in reply
        daemon.shutdown()
        with pytest.raises(OSError):
            ServingClient(daemon.host, daemon.port).connect()

    def test_accept_loop_stops_after_the_reply_is_written(self, detector,
                                                          monkeypatch):
        """The CLI process exits as soon as the accept loop ends, so
        stopping it before the reply is on the wire loses the reply."""
        events = []
        encode = protocol.encode

        def encode_and_record(message):
            if "ok" in message:  # a reply, not the client's request
                events.append("reply")
            return encode(message)

        monkeypatch.setattr(protocol, "encode", encode_and_record)
        daemon = ServingDaemon(detector=detector).start()
        stop = daemon._server.shutdown
        monkeypatch.setattr(daemon._server, "shutdown",
                            lambda: events.append("stop") or stop())
        with ServingClient(daemon.host, daemon.port) as client:
            assert client.request({"op": "shutdown"})["stopping"] is True
        daemon.shutdown()
        assert events[:2] == ["reply", "stop"]
