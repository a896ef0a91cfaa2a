"""Span tracing installed from the benchmark's own files.

The program is not edited to be traced.  :class:`Tracer` replaces the
public functions and methods each layer exposes with timing wrappers
for the duration of a traced run, and keeps every span in memory.  A
span's *self* time is its duration minus the durations of the spans
opened inside it on the same thread, so the self times of one thread's
spans plus the uncovered remainder of its root add up to the root's wall
time; that remainder is the ``unattributed`` row of the layer table.

Wrapping adds a few microseconds per call.  The traced run is a separate
run from the timed one, and the difference between their wall times is
reported as the tracing overhead.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class _ThreadState:
    """One thread's open spans and its totals (merged on snapshot), so
    closing a span takes no lock."""

    __slots__ = ("stack", "totals")

    def __init__(self):
        #: Open spans as ``[name, start, time in child spans]``.
        self.stack: list[list] = []
        #: name -> [inclusive seconds, self seconds, calls]
        self.totals: dict[str, list] = {}


class Tracer:
    """Per-layer inclusive time, self time and call counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._state().stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        state = self._local.state
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][2] += duration
        entry = state.totals.get(frame[0])
        if entry is None:
            entry = state.totals[frame[0]] = [0.0, 0.0, 0]
        entry[0] += duration
        entry[1] += duration - frame[2]
        entry[2] += 1

    @contextmanager
    def span(self, name: str):
        """Time a block as a span (used for each workload's root)."""
        frame = self._enter(name)
        try:
            yield frame
        finally:
            self._exit(frame)

    def _wrap(self, fn, name: str):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function, or a method defined
        on the class ``owner``) with a span-recording wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, name))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name))
        else:
            new = self._wrap(raw, name)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def add(self, name: str, amount: float) -> None:
        """Accumulate a counter kept beside the spans."""
        with self._lock:
            self.counters[name] += amount

    def snapshot(self) -> dict:
        """``{name: {"total_s", "self_s", "calls"}}`` summed over threads.

        Call it once the traced work has finished: another thread's
        totals are read without synchronisation.
        """
        merged: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, v in list(state.totals.items()):
                entry = merged[name]
                for k in range(3):
                    entry[k] += v[k]
        return {name: {"total_s": v[0], "self_s": v[1], "calls": v[2]}
                for name, v in merged.items()}

    def counter_snapshot(self) -> dict:
        with self._lock:
            return dict(self.counters)


def inclusive(spans: dict, name: str) -> float:
    return spans.get(name, {}).get("total_s", 0.0)


def self_time(spans: dict, name: str) -> float:
    return spans.get(name, {}).get("self_s", 0.0)


def kernel_timers() -> dict:
    """The program's own ``kernel.*`` timers (recorded with telemetry on)."""
    from repro import telemetry

    timers = telemetry.get_registry().snapshot()["timers"]
    return {name: {"total_s": state["total"], "calls": state["count"]}
            for name, state in timers.items() if name.startswith("kernel.")}


def render_table(spans: dict, root: str, title: str) -> list[str]:
    """A layer table for one thread's spans under ``root``.

    Rows are sorted by self time; the root's own self time is printed as
    ``unattributed`` (time inside the measured unit that no layer span
    covers).
    """
    wall = inclusive(spans, root)
    lines = [title,
             f"  {'layer':34s} {'self_s':>9s} {'share':>7s} "
             f"{'incl_s':>9s} {'calls':>8s}"]
    rows = sorted(((name, v) for name, v in spans.items() if name != root),
                  key=lambda item: -item[1]["self_s"])
    for name, v in rows:
        share = v["self_s"] / wall if wall else 0.0
        lines.append(f"  {name:34s} {v['self_s']:9.4f} {share:7.1%} "
                     f"{v['total_s']:9.4f} {v['calls']:8d}")
    unattributed = self_time(spans, root)
    lines.append(f"  {'unattributed':34s} {unattributed:9.4f} "
                 f"{(unattributed / wall if wall else 0.0):7.1%}")
    lines.append(f"  {'wall (' + root + ')':34s} {wall:9.4f} {1:7.1%}")
    return lines


def summary(spans: dict, root: str, untraced_wall: float) -> dict:
    """The traced-run metrics every workload reports."""
    wall = spans[root]["total_s"]
    unattributed = spans[root]["self_s"]
    return {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_pct": 100.0 * (wall / untraced_wall - 1.0),
        "trace.attributed_pct": 100.0 * (1.0 - unattributed / wall),
        "unattributed_s": unattributed,
    }


def render_timers(timers: dict) -> list[str]:
    """The program's own kernel timers, beside the spans' figures."""
    lines = ["program timers (telemetry on)"]
    for name, v in sorted(timers.items()):
        lines.append(f"  {name:44s} {v['total_s']:9.4f} s "
                     f"{v['calls']:8d} calls")
    return lines
