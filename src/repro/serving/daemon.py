"""The long-lived scoring daemon: a threaded JSON-lines TCP front.

:class:`ServingDaemon` binds a local socket and serves concurrent
clients with a thread per connection (``socketserver.ThreadingTCPServer``).
Handler threads never touch the network weights themselves: they parse,
validate and encode, then block on the
:class:`~repro.serving.batcher.MicroBatcher`, which coalesces every
concurrent request into deadline-bounded micro-batches on one scoring
thread.  Table state lives in named :class:`~repro.serving.session.TableSession`
objects so a later ``update`` re-scores only the edited cell's feature
rows; models live in the :class:`~repro.serving.registry.ModelRegistry`
and hot-swap with zero downtime on ``swap_model``.

Backpressure: the batcher's queue is bounded, and a request arriving
past the bound is rejected immediately with a 429-style reply
(``{"ok": false, "code": 429}``) and counted in ``serve.rejected`` --
load is shed at the door, keeping latency bounded for the requests that
are admitted.

Request latency (admission to reply serialisation) is observed into the
``serve.latency`` fixed-bucket histogram when telemetry is on;
``repro telemetry summarize`` renders its p50/p95/p99.
"""

from __future__ import annotations

import socketserver
import threading
import time

from pathlib import Path

from repro import telemetry
from repro.errors import ConfigurationError, DataError
from repro.serving import protocol
from repro.serving.batcher import MicroBatcher, Overloaded
from repro.serving.registry import DEFAULT_TENANT, ModelRegistry
from repro.serving.session import TableSession
from repro.table import Table, read_csv


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon: ServingDaemon = self.server.serving_daemon
        for line in self.rfile:
            if not line.strip():
                continue
            reply = daemon.handle_line(line)
            # "_close" (reply, then drop the connection) and "_stop"
            # (reply, then stop the daemon) are internal framing; they
            # must never reach the wire.
            close = bool(reply.pop("_close", False))
            stop = bool(reply.pop("_stop", False))
            try:
                self.wfile.write(protocol.encode(reply))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                close = True
            if stop:
                # Only now: once the accept loop ends the CLI process
                # exits, and with it this thread and an unsent reply.
                self.server.shutdown()
            if close:
                return


class ServingDaemon:
    """Serve score / update / feedback requests over a local socket.

    Parameters
    ----------
    model_path, detector:
        The ``default`` tenant's model (archive path or in-memory
        detector); omit both to start empty and ``swap_model`` tenants
        in later.
    host, port:
        Bind address (``port=0`` picks a free port; read it back from
        :attr:`port`).
    max_batch_rows, batch_delay_ms, max_queue_rows, coalesce:
        Micro-batcher bounds (see
        :class:`~repro.serving.batcher.MicroBatcher`).
    cache_size, precision:
        Per-tenant engine construction (see
        :class:`~repro.serving.registry.ModelRegistry`).
    """

    def __init__(self, model_path: "str | Path | None" = None,
                 detector=None, host: str = "127.0.0.1", port: int = 0,
                 max_batch_rows: int = 256, batch_delay_ms: float = 4.0,
                 max_queue_rows: int = 4096, coalesce: bool = True,
                 cache_size: int = 65536, precision: str = "float64"):
        self.registry = ModelRegistry(cache_size=cache_size,
                                      precision=precision)
        if model_path is not None or detector is not None:
            self.registry.add(DEFAULT_TENANT, detector=detector,
                              path=model_path)
        self.batcher = MicroBatcher(self.registry,
                                    max_batch_rows=max_batch_rows,
                                    max_delay_s=batch_delay_ms / 1000.0,
                                    max_queue_rows=max_queue_rows,
                                    coalesce=coalesce)
        self.sessions: dict[str, TableSession] = {}
        self._sessions_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.n_requests = 0
        self.n_rejected = 0
        self.n_errors = 0
        self._started_at = time.monotonic()
        self._server = _Server((host, port), _Handler)
        self._server.serving_daemon = self
        self._server_thread: threading.Thread | None = None
        self._ops = {
            "ping": self._op_ping,
            "score": self._op_score,
            "load_table": self._op_load_table,
            "update": self._op_update,
            "feedback": self._op_feedback,
            "swap_model": self._op_swap_model,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }

    # -- lifecycle ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return int(self._server.server_address[1])

    def start(self) -> "ServingDaemon":
        """Start the batcher and the socket server threads."""
        self.batcher.start()
        if self._server_thread is None:
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-serve", daemon=True)
            self._server_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run blocking (the CLI daemon loop); returns after shutdown."""
        self.batcher.start()
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self.close()

    def shutdown(self) -> None:
        """Stop accepting and drain the batcher."""
        self._server.shutdown()
        if self._server_thread is not None:
            self._server_thread.join()
            self._server_thread = None
        self.close()

    def close(self) -> None:
        self._server.server_close()
        self.batcher.close()

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- dispatch -----------------------------------------------------------

    def handle_line(self, line: bytes) -> dict:
        """Parse and execute one request line; always returns a reply."""
        started = time.perf_counter()
        try:
            request = protocol.decode(line)
        except ValueError as exc:
            return self._count_error(
                protocol.error(protocol.BAD_REQUEST, f"bad request: {exc}"))
        op = request.get("op")
        handler = self._ops.get(op)
        if handler is None:
            return self._count_error(protocol.error(
                protocol.BAD_REQUEST,
                f"unknown op {op!r}; known: {list(self._ops)}"))
        with self._stats_lock:
            self.n_requests += 1
        try:
            reply = handler(request)
        except Overloaded as exc:
            with self._stats_lock:
                self.n_rejected += 1
            if telemetry.enabled():
                telemetry.get_registry().counter("serve.rejected").inc()
            return protocol.error(protocol.OVERLOADED, str(exc),
                                  retry=True)
        except KeyError as exc:
            message = exc.args[0] if exc.args else repr(exc)
            return self._count_error(
                protocol.error(protocol.NOT_FOUND, str(message)))
        except (ConfigurationError, DataError, FileNotFoundError) as exc:
            return self._count_error(
                protocol.error(protocol.BAD_REQUEST, str(exc)))
        except Exception as exc:  # noqa: BLE001 -- a request must not kill the daemon
            return self._count_error(protocol.error(
                protocol.INTERNAL, f"{type(exc).__name__}: {exc}"))
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("serve.requests").inc()
            registry.counter(f"serve.op.{op}").inc()
            registry.histogram("serve.latency").observe(
                time.perf_counter() - started)
        return reply

    def _count_error(self, reply: dict) -> dict:
        with self._stats_lock:
            self.n_errors += 1
        if telemetry.enabled():
            telemetry.get_registry().counter("serve.errors").inc()
        return reply

    # -- ops ----------------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return protocol.ok(uptime_s=round(time.monotonic() - self._started_at,
                                          3),
                           tenants=list(self.registry.tenants()))

    def _entry(self, request: dict):
        tenant = request.get("tenant", DEFAULT_TENANT)
        try:
            return self.registry.get(tenant)
        except KeyError:
            # KeyError -> protocol.NOT_FOUND (the documented 404).
            raise KeyError(
                f"unknown tenant {tenant!r}; registered: "
                f"{list(self.registry.tenants())}") from None

    def _op_score(self, request: dict) -> dict:
        """Score ad-hoc cells: ``{"op": "score", "cells": [{"attribute",
        "value"}, ...]}`` -- the micro-batched hot path."""
        entry = self._entry(request)
        cells = request.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ConfigurationError(
                "score needs a non-empty 'cells' list of "
                "{attribute, value} objects")
        known = set(entry.detector.prepared.attributes)
        attributes, values = [], []
        for i, cell in enumerate(cells):
            if not isinstance(cell, dict) or "attribute" not in cell:
                raise ConfigurationError(
                    f"cells[{i}] must be an object with 'attribute' "
                    "and 'value'")
            if cell["attribute"] not in known:
                raise ConfigurationError(
                    f"cells[{i}]: the model never saw attribute "
                    f"{cell['attribute']!r} (knows {sorted(known)})")
            attributes.append(cell["attribute"])
            value = cell.get("value")
            values.append("" if value is None else str(value))
        from repro.serving.session import _encode
        features, lengths = _encode(entry.detector, values, attributes)
        result = self.batcher.predict(entry.tenant, features, lengths)
        predictions = result.probabilities.argmax(axis=1)
        if telemetry.enabled():
            telemetry.get_registry().counter("serve.scored_cells").inc(
                len(cells))
        return protocol.ok(
            flags=[int(p) for p in predictions],
            probabilities=[list(map(float, row))
                           for row in result.probabilities],
            weights_version=result.weights_version,
            batch_id=result.batch_id,
            batch_items=result.batch_items,
            batch_rows=result.batch_rows,
        )

    def _table_from_request(self, request: dict) -> Table:
        if "path" in request:
            # Real-file route: encoding/dialect sniffing, ragged-row
            # recovery and SQLite extraction (repro.io).  One file only;
            # multi-table SQLite databases need an explicit "table".
            from repro.io import read_file

            wanted = request.get("table")
            ingested = read_file(request["path"],
                                 table_names=[wanted] if wanted else None)
            if len(ingested) > 1:
                raise ConfigurationError(
                    f"{request['path']} holds {len(ingested)} tables "
                    f"({[t.name for t in ingested]}); pick one with 'table'")
            return ingested[0].table
        if "csv" in request:
            return read_csv(request["csv"])
        columns = request.get("columns")
        if not isinstance(columns, dict) or not columns:
            raise ConfigurationError(
                "load_table needs 'path' (a real file: sniffed CSV/TSV or "
                "SQLite), 'csv' (a UTF-8 CSV path) or 'columns' "
                "(name -> list of values)")
        return Table({name: [None if v is None else str(v) for v in vals]
                      for name, vals in columns.items()})

    def _op_load_table(self, request: dict) -> dict:
        """Register a table session and pay its initial scoring pass."""
        name = request.get("session")
        if not name or not isinstance(name, str):
            raise ConfigurationError("load_table needs a 'session' name")
        entry = self._entry(request)
        session = TableSession(name, entry, self._table_from_request(request),
                               self.batcher)
        with self._sessions_lock:
            self.sessions[name] = session
        flagged = session.flagged()
        return protocol.ok(
            session=name,
            n_table_rows=session.n_table_rows,
            n_feature_rows=session.n_feature_rows,
            columns=session.columns,
            skipped_columns=session.skipped,
            weights_version=session.scored_version,
            flagged=[{"row": int(r), "attribute": a, "value": v}
                     for r, a, v in flagged],
        )

    def _session(self, request: dict) -> TableSession:
        name = request.get("session")
        with self._sessions_lock:
            session = self.sessions.get(name)
        if session is None:
            with self._sessions_lock:
                known = list(self.sessions)
            # KeyError -> protocol.NOT_FOUND (the documented 404).
            raise KeyError(f"unknown session {name!r}; loaded: {known}")
        return session

    def _op_update(self, request: dict) -> dict:
        """Apply one cell edit; re-scores only the edit's context window."""
        session = self._session(request)
        for key in ("row", "column"):
            if key not in request:
                raise ConfigurationError(f"update needs {key!r}")
        record = session.update(int(request["row"]), str(request["column"]),
                                request.get("value"))
        return protocol.ok(**record)

    def _op_feedback(self, request: dict) -> dict:
        session = self._session(request)
        for key in ("row", "column", "label"):
            if key not in request:
                raise ConfigurationError(f"feedback needs {key!r}")
        count = session.add_feedback(int(request["row"]),
                                     str(request["column"]),
                                     int(request["label"]))
        return protocol.ok(n_feedback=count)

    def _op_swap_model(self, request: dict) -> dict:
        """Hot-swap (or register) a tenant's model from an archive path."""
        path = request.get("model")
        if not path:
            raise ConfigurationError(
                "swap_model needs 'model' (a detector archive path)")
        outcome = self.registry.publish(request.get("tenant", DEFAULT_TENANT),
                                        path=path)
        return protocol.ok(**outcome)

    def _op_stats(self, request: dict) -> dict:
        with self._sessions_lock:
            sessions = {name: session.stats()
                        for name, session in self.sessions.items()}
        with self._stats_lock:
            totals = {"n_requests": self.n_requests,
                      "n_rejected": self.n_rejected,
                      "n_errors": self.n_errors}
        return protocol.ok(
            uptime_s=round(time.monotonic() - self._started_at, 3),
            requests=totals,
            batcher=self.batcher.stats.as_dict(),
            tenants=self.registry.stats(),
            sessions=sessions,
        )

    def _op_shutdown(self, request: dict) -> dict:
        # The handler stops the accept loop after writing this reply.
        return {**protocol.ok(stopping=True), "_close": True, "_stop": True}
