"""Fused forward+backward sequence kernels.

Each kernel runs a whole recurrence level -- the full time loop of
Eq. 1-4 -- in numpy inside a *single* autograd node (a
:class:`~repro.autograd.function.Function`), replacing the thousands of
per-step graph nodes the reference ``"graph"`` backend records.  The
backward passes are hand-derived backpropagation-through-time sweeps,
validated against finite differences and against the reference backend by
the test suite.

Numerical contract: every kernel evaluates exactly the same numpy
expressions, in the same order, as the per-step graph implementation in
:mod:`repro.nn.layers.rnn` / :mod:`repro.nn.layers.gated`, so forward
values are bit-for-bit identical across backends.

Masking follows the repository-wide convention: ``mask`` is a boolean
``(batch, time)`` array where ``False`` marks padding; on a padded step a
row's state is carried over unchanged (and gradients flow straight
through to the previous step).  The kernels take right-padded masks only
-- each row live for a prefix of its steps, as the data pipeline builds
them -- and raise :class:`~repro.errors.ShapeError` for any other.

Packed execution: each call sorts the batch's rows by length, longest
first, once (:class:`_Packing`).  With right padding the rows still live
at step ``t`` are then a prefix of that order in either direction, so the
time loop runs the recurrent GEMM, the activation and the BPTT update on
those ``n_t`` rows only.  A row past its end carries its state (forward
direction) or keeps the zero initial state (reverse direction) with no
arithmetic; its padding cells are written once after the loop.  The loop
stops at the last step any row is live, so an all-padding tail costs
nothing.  A batch already in length order is stepped in place; any other
gathers its live cells once, and the input projection runs on those
cells only.

BLAS row rule: a one-row GEMM runs a different microkernel whose bits can
differ from the many-row path by an ulp, so a step with a single live row
still runs its GEMM over :data:`MIN_GEMM_ROWS` rows, borrowing a dead
neighbour whose result is dropped (the rule the inference engine's
single-row padding relies on too).  Because a GEMM's rows do not depend
on each other, packed states are bit-for-bit those of a dense loop.

The backward's tail (:func:`_level_grads`) runs on the same per-cell
tables as its time loop.  Packed, ``dw_h``, ``dw_x`` and ``db`` sum over
the live cells only, and ``dx`` is one GEMM over them scattered into a
zeroed batch-order array; in place, the tables are zero-padded
``(batch, width, dim)`` arrays and the sums also run over their padding.
Either way gradients agree with the graph backend to float-accumulation
order (``rtol=1e-9``).  A packed sum skips the padding's zero terms and
so accumulates in a different order than a batch-order sum: weight and
bias gradient bits depend on the layout, forward bits never do.

Kernels
-------
:func:`rnn_level`
    Whole-sequence tanh recurrence (the paper's Eq. 1-2).
:func:`lstm_level` / :func:`gru_level`
    Gated counterparts for the cell-type ablation.
:func:`dense_softmax_bce`
    The classifier head fused with its loss: dense + softmax + binary
    (two-way categorical) cross-entropy in one node.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from repro import telemetry
from repro.autograd.function import Function, FunctionCtx
from repro.errors import ShapeError

__all__ = [
    "RNNLevelFunction",
    "LSTMLevelFunction",
    "GRULevelFunction",
    "DenseSoftmaxBCEFunction",
    "rnn_level",
    "lstm_level",
    "gru_level",
    "dense_softmax_bce",
]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Mirrors repro.autograd.ops.sigmoid bit for bit (incl. the clamp).
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _instrumented(cls: type[Function]) -> type[Function]:
    """Per-kernel forward/backward wall-time timers.

    Behind the ``REPRO_TELEMETRY`` switch: with telemetry off each call
    pays a single cached boolean test before dispatching to the original
    static method, so the default path's speedup gates are unaffected.
    Timers are named ``kernel.<ClassName>.forward`` / ``.backward`` in
    the process registry.
    """
    inner_forward = cls.forward
    inner_backward = cls.backward
    forward_name = f"kernel.{cls.__name__}.forward"
    backward_name = f"kernel.{cls.__name__}.backward"

    def forward(ctx, *args, **kwargs):
        if not telemetry.enabled():
            return inner_forward(ctx, *args, **kwargs)
        started = time.perf_counter()
        out = inner_forward(ctx, *args, **kwargs)
        telemetry.get_registry().timer(forward_name).observe(
            time.perf_counter() - started)
        return out

    def backward(ctx, grad):
        if not telemetry.enabled():
            return inner_backward(ctx, grad)
        started = time.perf_counter()
        out = inner_backward(ctx, grad)
        telemetry.get_registry().timer(backward_name).observe(
            time.perf_counter() - started)
        return out

    forward.__doc__ = inner_forward.__doc__
    backward.__doc__ = inner_backward.__doc__
    cls.forward = staticmethod(forward)
    cls.backward = staticmethod(backward)
    return cls


def _check_sequence(x: np.ndarray, mask: np.ndarray | None) -> None:
    if x.ndim != 3:
        raise ShapeError(f"sequence kernels expect (batch, time, dim), got {x.shape}")
    if mask is not None and mask.shape != x.shape[:2]:
        raise ShapeError(
            f"mask shape {mask.shape} does not match sequence {x.shape[:2]}"
        )


#: Rows a recurrent or projection GEMM never goes below.  BLAS runs a
#: one-row operand through a different microkernel whose accumulation can
#: differ from the GEMM path by an ulp (see
#: :func:`repro.inference.engine.pad_single_row`), so a step with a single
#: live row borrows a neighbouring row for the product and drops its
#: result.  A batch of one row has nothing to borrow and never had.
MIN_GEMM_ROWS = 2


class _Packing:
    """The live-cell schedule of one mask (immutable; see :meth:`of`).

    Rows are ordered by length, longest first.  Masks are right-padded
    (a row is live for a prefix of its steps), so in that order the rows
    still live at step ``t`` are a prefix in either direction: ``n_t``
    rows, shrinking with ``t``.  Carried states ``(batch, dim)`` are kept
    in that packed row order, where step ``t``'s live rows are the slice
    ``live``.

    Per-cell tables (input projection, states, backward tables and
    gradients) take one of two layouts:

    * *in place*, when the batch's rows already come in length order --
      descending, or ascending as the inference engine builds them (the
      live rows are then a suffix).  Tables are batch-order ``(batch,
      width, dim)`` arrays and step ``t``'s cells are ``table[live,
      t]``: no gather, no scatter.
    * *packed* otherwise.  Tables hold the live cells only, ``(n_cells,
      dim)``, step after step; step ``t``'s cells are one contiguous
      slice.  :attr:`cells` indexes the same cells in batch-order arrays,
      for one gather of each input and one scatter of each output.

    Each entry of :meth:`steps` is ``(t, key, live, gemm, enter,
    enter_rows)``: ``key`` selects the step's cells in a table, ``gemm``
    is ``live`` widened to :data:`MIN_GEMM_ROWS` rows, and ``enter``
    (packed) / ``enter_rows`` (batch order) are the rows live at ``t``
    but not at ``t + 1``.
    """

    def __init__(self, mask: np.ndarray | None, batch: int,
                 n_steps: int) -> None:
        self.batch, self.n_steps = batch, n_steps
        self.order = None
        suffix = False
        if mask is None or mask.all():
            self.lengths, self.padded, self.width = None, False, n_steps
            counts = [batch] * n_steps
        else:
            lengths = np.count_nonzero(mask, axis=1)
            if not np.array_equal(mask,
                                  np.arange(n_steps) < lengths[:, None]):
                raise ShapeError(
                    "fused sequence kernels need right-padded masks (each "
                    "row live for a prefix of its steps)")
            self.lengths, self.padded = lengths, True
            #: Steps up to the last one where any row is live; beyond it
            #: every row is padding.  A fully padded batch keeps width 1.
            self.width = max(int(lengths.max()), 1)
            change = np.diff(lengths)
            if (change > 0).any():
                if (change < 0).any():
                    self.order = np.argsort(-lengths, kind="stable")
                else:
                    suffix = True
            packed = lengths if self.order is None else lengths[self.order]
            live_cells = packed > np.arange(self.width)[:, None]
            counts = np.count_nonzero(live_cells, axis=1).tolist()
            if self.order is not None:
                times, positions = np.nonzero(live_cells)
                self.cells = (self.order[positions], times)
                self.n_cells = times.shape[0]
        self.in_place = self.order is None

        counts.append(0)
        self._steps = []
        start = 0
        for t in range(self.width):
            n, n_next = counts[t], counts[t + 1]
            if n == 0:
                continue  # only a fully padded batch has a dead step
            k = min(max(n, MIN_GEMM_ROWS), batch)
            if suffix:
                live, gemm = slice(batch - n, batch), slice(batch - k, batch)
                enter = slice(batch - n, batch - n_next)
            else:
                live, gemm = slice(0, n), slice(0, k)
                enter = slice(n_next, n)
            if self.in_place:
                self._steps.append((t, (live, t), live, gemm, enter, enter))
            else:
                self._steps.append((t, slice(start, start + n), live, gemm,
                                    enter, self.order[enter]))
            start += n

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def _cached(batch: int, n_steps: int, mask_bytes: bytes | None
                ) -> "_Packing":
        mask = (None if mask_bytes is None else
                np.frombuffer(mask_bytes, dtype=bool).reshape(batch, n_steps))
        return _Packing(mask, batch, n_steps)

    @staticmethod
    def of(mask: np.ndarray | None, batch: int, n_steps: int) -> "_Packing":
        """The schedule for ``mask``, shared by every call on it.

        Every level of a stacked bidirectional encoder runs on the same
        mask, and serving repeats a few small shapes, so schedules are
        memoised on the mask's bytes; nothing writes to one after it is
        built.
        """
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
        key = None if mask is None or mask.all() else mask.tobytes()
        return _Packing._cached(batch, n_steps, key)

    def steps(self, reverse: bool) -> list[tuple]:
        """Live steps in the forward pass's iteration order."""
        return self._steps[::-1] if reverse else self._steps

    def trim(self, x: np.ndarray) -> np.ndarray:
        """The live window ``x[:, :width]`` (no copy)."""
        return x[:, :self.width] if self.width < x.shape[1] else x

    def table(self, dim: int) -> np.ndarray:
        """A fresh per-cell table (kept for the backward pass).

        In place, its padding cells are zero so whole-table derivative
        ops stay finite.
        """
        if self.in_place:
            return np.zeros((self.batch, self.width, dim))
        return np.empty((self.n_cells, dim))

    def scratch(self, key: str, dim: int, zeros: bool = False) -> np.ndarray:
        """A call-local per-cell table from the scratch pool."""
        n = self.batch * self.width if self.in_place else self.n_cells
        array = _scratch.rows(key, n, dim)
        if zeros:
            array.fill(0.0)
        if self.in_place:
            return array.reshape(self.batch, self.width, dim)
        return array

    def gather(self, sequence: np.ndarray) -> np.ndarray:
        """The live cells of a batch-order ``(batch, time, dim)`` array."""
        return sequence if self.in_place else sequence[self.cells]

    def shifted(self, table: np.ndarray, reverse: bool,
                key: str) -> np.ndarray:
        """Each cell's state one *iteration* earlier (scratch table).

        A row's first step in iteration order gets the zero initial
        state.  In place, padding cells may hold any value: their
        ``dproj`` rows are zero, so they never reach a weight gradient.
        Packed, the previous iteration's cells are a prefix of the
        previous step's slice (forward, where rows only leave) or all of
        it (reversed, where rows only enter), so each step is one copy
        plus zeros for the rows entering at it.
        """
        if self.in_place:
            prev = _scratch.get(key, table.shape)
            if reverse:
                prev[:, -1] = 0.0
                prev[:, :-1] = table[:, 1:]
            else:
                prev[:, 0] = 0.0
                prev[:, 1:] = table[:, :-1]
            return prev
        prev = _scratch.rows(key, self.n_cells, table.shape[-1])
        before = slice(0, 0)
        for _, cells, _, _, _, _ in self.steps(reverse):
            n = min(before.stop - before.start, cells.stop - cells.start)
            prev[cells.start:cells.start + n] = table[before.start:
                                                      before.start + n]
            prev[cells.start + n:cells.stop] = 0.0
            before = cells
        return prev

    def projection(self, x: np.ndarray, w_x: np.ndarray, b_h: np.ndarray,
                   key: str) -> tuple[np.ndarray, np.ndarray]:
        """The input cells and ``x @ w_x + b`` for each (scratch table).

        The input cells are the live window of ``x`` in place and the
        gathered live cells when packed; the backward's ``dw_x`` reads
        them.  A GEMM's rows do not depend on each other, so packed cells
        get the bits the batch-order projection would give them.
        """
        if self.in_place:
            x = self.trim(x)
            proj = self.scratch(key, w_x.shape[-1])
            if self.width == 1:
                # The batched (batch, 1, in) @ (in, out) matmul runs one
                # GEMV per row, whose accumulation can differ from the
                # m >= 2 GEMM path by an ulp.  One flat (batch, in) GEMM
                # keeps a row's projection bits identical to its value
                # inside any wider chunk, so results cannot depend on how
                # rows were grouped into batches.
                np.matmul(x[:, 0], w_x, out=proj[:, 0])
            else:
                np.matmul(x, w_x, out=proj)
        else:
            x = x[self.cells]
            x_gemm = x
            if self.n_cells < MIN_GEMM_ROWS:
                x_gemm = np.concatenate([x] * MIN_GEMM_ROWS)
            proj = _scratch.rows(key, x_gemm.shape[0], w_x.shape[-1])
            np.matmul(x_gemm, w_x, out=proj)
            proj = proj[:self.n_cells]
        proj += b_h
        return x, proj

    def unpack(self, out: np.ndarray, states: np.ndarray, h: np.ndarray,
               reverse: bool) -> None:
        """Complete the batch-order output ``out`` from the state table.

        Padding cells: forward, a row carries its last state ``h``
        (packed rows) through its padding; reversed, its padding comes
        before its first live step and keeps the zero initial state.
        """
        if not self.in_place:
            out[self.cells] = states
        if not self.padded:
            return
        dead = np.arange(self.n_steps) >= self.lengths[:, None]
        if reverse:
            out[dead] = 0.0
            return
        final = h
        if self.order is not None:
            final = np.empty_like(h)
            final[self.order] = h
        out[dead] = np.repeat(final, self.n_steps - self.lengths, axis=0)

    def padding_grads(self, grad: np.ndarray, reverse: bool,
                      key: str) -> np.ndarray | None:
        """Batch-order sums of the gradients reaching padding cells.

        Forward, a row's padding cells hold its carried final state, so
        their gradients accumulate -- latest step first, the order a
        full-width loop visits them -- into the state gradient the row
        enters its last live step with.  The returned accumulator already
        holds the all-padding tail beyond the width; :meth:`add_grads`
        adds the rest.  Reversed, padding holds the constant initial
        state and its gradients are dropped (``None``).
        """
        if reverse:
            return None
        acc = _scratch.zeros(key, (self.batch, grad.shape[-1]))
        for t in range(self.n_steps - 1, self.width - 1, -1):
            acc += grad[:, t]
        return acc

    def add_grads(self, dh: np.ndarray, acc: np.ndarray | None,
                  grad: np.ndarray, grad_cells: np.ndarray,
                  step: tuple) -> None:
        """Fold step ``t``'s output gradients into the carried ``dh``."""
        t, key, live, _, enter, enter_rows = step
        if acc is not None:
            dh[enter] = acc[enter_rows]
            if live.stop - live.start < self.batch:
                acc += grad[:, t]
        np.add(dh[live], grad_cells[key], out=dh[live])


class _ScratchPool(threading.local):
    """Per-thread, per-key scratch arrays reused across kernel calls.

    Fresh large allocations are page-fault bound on this workload, so the
    kernels stage their *call-local* intermediates (input projection, BPTT
    derivative tables, pre-activation gradients) in warm buffers instead.
    An array from the pool is only valid until the next ``get`` with the
    same key *on the same thread*; nothing handed to the autograd graph
    (outputs, returned gradients, ``ctx`` state) may ever live here.
    Kernel calls never nest on a thread, so sequential reuse is safe, and
    each thread (e.g. a serving batcher next to its callers) gets its own
    buffers -- concurrent kernel calls never alias.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        slot = (key, shape)
        array = self._arrays.get(slot)
        if array is None:
            array = np.empty(shape)
            self._arrays[slot] = array
        return array

    def zeros(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        array = self.get(key, shape)
        array.fill(0.0)
        return array

    def rows(self, key: str, n: int, width: int) -> np.ndarray:
        """An ``(n, width)`` array for per-cell tables, whose row count
        changes from call to call: one buffer per key and width, grown to
        the largest ``n`` seen."""
        slot = (key, (width,))
        array = self._arrays.get(slot)
        if array is None or array.shape[0] < n:
            array = np.empty((n, width))
            self._arrays[slot] = array
        return array[:n]


_scratch = _ScratchPool()


def _live_matmul(a: np.ndarray, w: np.ndarray, out: np.ndarray,
                 live: slice, gemm: slice, spare: np.ndarray) -> None:
    """``out[live] = a[live] @ w``, with the GEMM run over the ``gemm`` rows.

    When ``gemm`` borrows a row beyond ``live`` its product lands in
    ``spare`` and is dropped, so the borrowed row's ``out`` is untouched.
    """
    if gemm == live:
        np.matmul(a[live], w, out=out[live])
    else:
        np.matmul(a[gemm], w, out=spare[gemm])
        out[live] = spare[live]


def _level_grads(ctx: FunctionCtx, dproj: np.ndarray,
                 prev: np.ndarray | None, drec: np.ndarray | None
                 ) -> tuple[np.ndarray | None, ...]:
    """Shared tail of every level backward: ``dx, dw_x, dw_h, db``.

    ``dproj`` is the per-cell gradient of the input projection
    ``x @ w_x + b``; ``drec`` that of the recurrent product
    ``prev @ w_h`` (``dproj`` itself except in the GRU), with ``prev`` the
    state table one iteration earlier (needed only for ``dw_h``).  Each
    table holds the live cells when packed, so the weight GEMMs and the
    bias sum run over ``n_cells`` rows, and ``dx`` is one GEMM scattered
    into a zeroed batch-order array.  In place they are the zero-padded
    ``(batch, width, dim)`` tables and ``dx`` gets a zero tail past the
    width.  The returned arrays are scratch: gradient accumulation
    consumes them before the pool is touched again.
    """
    packing, x, w_x = ctx.packing, ctx.x, ctx.w_x
    in_dim, proj_width = w_x.shape
    flat = dproj.reshape(-1, proj_width)
    dx = dw_x = dw_h = db = None
    if ctx.needs_input_grad[0]:
        dx = _scratch.get("level.dx", ctx.x_shape)
        if packing.in_place:
            np.matmul(dproj, w_x.T, out=dx[:, :packing.width])
            dx[:, packing.width:] = 0.0
        else:
            dx.fill(0.0)
            dx[packing.cells] = np.matmul(
                dproj, w_x.T,
                out=_scratch.rows("level.dx_cells", packing.n_cells, in_dim))
    if ctx.needs_input_grad[1]:
        dw_x = np.matmul(x.reshape(-1, in_dim).T, flat,
                         out=_scratch.get("level.dw_x", w_x.shape))
    if ctx.needs_input_grad[2]:
        units, rec_width = ctx.w_h.shape
        dw_h = np.matmul(prev.reshape(-1, units).T,
                         drec.reshape(-1, rec_width),
                         out=_scratch.get("level.dw_h", ctx.w_h.shape))
    if ctx.needs_input_grad[3]:
        db = flat.sum(axis=0)
    return dx, dw_x, dw_h, db


@_instrumented
class RNNLevelFunction(Function):
    """One stacked-RNN level: ``h_t = tanh(x_t W_x + h_{t-1} W_h + b)``.

    Forward input ``x`` is ``(batch, time, input_dim)``; output is the
    full state sequence ``(batch, time, units)`` ordered by the original
    time axis regardless of ``reverse``.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray,
                mask: np.ndarray | None = None,
                reverse: bool = False) -> np.ndarray:
        _check_sequence(x, mask)
        batch, n_steps, _ = x.shape
        units = w_h.shape[0]
        packing = _Packing.of(mask, batch, n_steps)
        x_cells, proj = packing.projection(x, w_x, b_h, "rnn.proj")

        # ``h`` carries every row's state in packed row order; the step's
        # GEMM lands in ``rec`` and the activation writes the live rows'
        # new states into ``h`` and the state table ``hs`` (the output
        # itself when in place).
        states = np.empty((batch, n_steps, units))
        hs = (packing.trim(states) if packing.in_place
              else packing.table(units))
        h = _scratch.zeros("rnn.h", (batch, units))
        rec = _scratch.get("rnn.rec", (batch, units))
        for _, key, live, gemm, _, _ in packing.steps(reverse):
            np.matmul(h[gemm], w_h, out=rec[gemm])
            np.add(rec[live], proj[key], out=rec[live])
            hs[key] = np.tanh(rec[live], out=h[live])
        packing.unpack(states, hs, h, reverse)

        ctx.x, ctx.x_shape, ctx.w_x, ctx.w_h = x_cells, x.shape, w_x, w_h
        ctx.hs, ctx.packing, ctx.reverse = hs, packing, reverse
        return states

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        """The packed BPTT time loop builds the pre-activation gradient
        table ``dproj``; the weight and input gradients then come from it
        as GEMMs over the same per-cell tables (:func:`_level_grads`):
        the live cells only when packed, the zero-padded batch-order
        tables in place."""
        hs, packing, w_h = ctx.hs, ctx.packing, ctx.w_h
        batch, units = packing.batch, w_h.shape[0]

        # tanh' of the whole state table at once, staged in scratch.
        deriv = np.multiply(hs, hs, out=packing.scratch("rnn.deriv", units))
        np.subtract(1.0, deriv, out=deriv)
        grad_cells = packing.gather(grad)
        w_h_t = np.ascontiguousarray(w_h.T)
        # Packed-row carries: the state gradient and the step's dpre.
        dh = _scratch.zeros("rnn.dh", (batch, units))
        dpre = _scratch.zeros("rnn.dpre", (batch, units))
        spare = _scratch.get("rnn.spare", (batch, units))
        dproj = packing.scratch("rnn.dproj", units, zeros=packing.in_place)
        acc = packing.padding_grads(grad, ctx.reverse, "rnn.acc")
        for step in reversed(packing.steps(ctx.reverse)):
            _, key, live, gemm, _, _ = step
            packing.add_grads(dh, acc, grad, grad_cells, step)
            dproj[key] = np.multiply(dh[live], deriv[key], out=dpre[live])
            _live_matmul(dpre, w_h_t, dh, live, gemm, spare)

        prev = (packing.shifted(hs, ctx.reverse, "rnn.prev")
                if ctx.needs_input_grad[2] else None)
        return _level_grads(ctx, dproj, prev, dproj)


@_instrumented
class LSTMLevelFunction(Function):
    """One LSTM level; outputs the hidden-state sequence ``h`` only.

    The cell state ``c`` stays internal to the kernel (mirroring
    ``LSTMCell.output``, which exposes just ``h``); its chain rule is
    handled inside the fused backward.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray,
                mask: np.ndarray | None = None,
                reverse: bool = False) -> np.ndarray:
        _check_sequence(x, mask)
        batch, n_steps, _ = x.shape
        units = w_h.shape[0]
        packing = _Packing.of(mask, batch, n_steps)
        x_cells, proj = packing.projection(x, w_x, b_h, "lstm.proj")

        # Only the hidden sequence is externally visible; the backward
        # tables (see ``_Packing``) cover the live cells.
        h_seq = np.empty((batch, n_steps, units))
        hs = packing.trim(h_seq) if packing.in_place else packing.table(units)
        acts = packing.table(4 * units)   # i, f, g, o
        tanh_c = packing.table(units)
        c_prev = packing.table(units)
        h = _scratch.zeros("lstm.h", (batch, units))
        c = _scratch.zeros("lstm.c", (batch, units))
        rec = _scratch.get("lstm.rec", (batch, 4 * units))
        for _, key, live, gemm, _, _ in packing.steps(reverse):
            np.matmul(h[gemm], w_h, out=rec[gemm])
            gates = proj[key] + rec[live]
            act = acts[key]
            act[:, :units] = _sigmoid(gates[:, :units])
            act[:, units:2 * units] = _sigmoid(gates[:, units:2 * units])
            act[:, 2 * units:3 * units] = np.tanh(gates[:, 2 * units:3 * units])
            act[:, 3 * units:] = _sigmoid(gates[:, 3 * units:])
            c_prev[key] = c[live]
            c[live] = (act[:, units:2 * units] * c[live]
                       + act[:, :units] * act[:, 2 * units:3 * units])
            tc = np.tanh(c[live], out=tanh_c[key])
            hs[key] = np.multiply(act[:, 3 * units:], tc, out=h[live])
        packing.unpack(h_seq, hs, h, reverse)

        ctx.x, ctx.x_shape, ctx.w_x, ctx.w_h = x_cells, x.shape, w_x, w_h
        ctx.hs, ctx.acts, ctx.tanh_c, ctx.c_prev = hs, acts, tanh_c, c_prev
        ctx.packing, ctx.reverse = packing, reverse
        return h_seq

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        """Packed BPTT loop, then the shared tail (see
        ``RNNLevelFunction.backward``)."""
        acts, tanh_c, c_prev = ctx.acts, ctx.tanh_c, ctx.c_prev
        packing, w_h = ctx.packing, ctx.w_h
        batch, units = packing.batch, w_h.shape[0]

        # Whole-table precomputation: sigmoid'/tanh' factors (big
        # vectorized ops beat per-step ones), staged in warm scratch.
        sig_deriv = packing.scratch("lstm.sigd", 4 * units)
        np.subtract(1.0, acts, out=sig_deriv)
        np.multiply(acts, sig_deriv, out=sig_deriv)  # i, f, o slices valid
        g_all = acts[..., 2 * units:3 * units]
        g_deriv = packing.scratch("lstm.gd", units)
        np.multiply(g_all, g_all, out=g_deriv)
        np.subtract(1.0, g_deriv, out=g_deriv)
        tc_deriv = packing.scratch("lstm.tcd", units)
        np.multiply(tanh_c, tanh_c, out=tc_deriv)
        np.subtract(1.0, tc_deriv, out=tc_deriv)
        grad_cells = packing.gather(grad)
        w_h_t = np.ascontiguousarray(w_h.T)

        dh = _scratch.zeros("lstm.dh", (batch, units))
        dc = _scratch.zeros("lstm.dc", (batch, units))
        dgates = _scratch.zeros("lstm.dgates", (batch, 4 * units))
        spare = _scratch.get("lstm.spare", (batch, units))
        dproj = packing.scratch("lstm.dproj", 4 * units,
                                zeros=packing.in_place)
        acc = packing.padding_grads(grad, ctx.reverse, "lstm.acc")
        for step in reversed(packing.steps(ctx.reverse)):
            _, key, live, gemm, _, _ = step
            packing.add_grads(dh, acc, grad, grad_cells, step)
            act, sig_d = acts[key], sig_deriv[key]
            dh_live = dh[live]
            do = dh_live * tanh_c[key]
            dc_raw = dc[live] + dh_live * act[:, 3 * units:] * tc_deriv[key]
            dg = dgates[live]
            dg[:, :units] = (dc_raw * act[:, 2 * units:3 * units]
                             * sig_d[:, :units])
            dg[:, units:2 * units] = (dc_raw * c_prev[key]
                                      * sig_d[:, units:2 * units])
            dg[:, 2 * units:3 * units] = dc_raw * act[:, :units] * g_deriv[key]
            dg[:, 3 * units:] = do * sig_d[:, 3 * units:]
            dproj[key] = dg
            _live_matmul(dgates, w_h_t, dh, live, gemm, spare)
            np.multiply(dc_raw, act[:, units:2 * units], out=dc[live])

        prev = (packing.shifted(ctx.hs, ctx.reverse, "lstm.hprev")
                if ctx.needs_input_grad[2] else None)
        return _level_grads(ctx, dproj, prev, dproj)


@_instrumented
class GRULevelFunction(Function):
    """One GRU level: update gate z, reset gate r, candidate n."""

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                w_h: np.ndarray, b_h: np.ndarray,
                mask: np.ndarray | None = None,
                reverse: bool = False) -> np.ndarray:
        _check_sequence(x, mask)
        batch, n_steps, _ = x.shape
        units = w_h.shape[0]
        packing = _Packing.of(mask, batch, n_steps)
        x_cells, proj = packing.projection(x, w_x, b_h, "gru.proj")

        # Backward tables per live cell, as in the LSTM level; ``h_prev``
        # is also the previous-state table of the backward's ``dw_h``.
        states = np.empty((batch, n_steps, units))
        hs = (packing.trim(states) if packing.in_place
              else packing.scratch("gru.hs", units))
        gates = packing.table(3 * units)  # z, r, n
        rec_n = packing.table(units)      # h_prev W_h candidate slice
        h_prev = packing.table(units)
        h = _scratch.zeros("gru.h", (batch, units))
        rec_all = _scratch.get("gru.rec", (batch, 3 * units))
        for _, key, live, gemm, _, _ in packing.steps(reverse):
            np.matmul(h[gemm], w_h, out=rec_all[gemm])
            rec = rec_all[live]
            proj_t = proj[key]
            z = _sigmoid(proj_t[:, :units] + rec[:, :units])
            r = _sigmoid(proj_t[:, units:2 * units] + rec[:, units:2 * units])
            n = np.tanh(proj_t[:, 2 * units:] + r * rec[:, 2 * units:])
            h_prev[key] = h[live]
            hs[key] = np.add(z * h[live], (1.0 - z) * n, out=h[live])
            gate = gates[key]
            gate[:, :units] = z
            gate[:, units:2 * units] = r
            gate[:, 2 * units:] = n
            rec_n[key] = rec[:, 2 * units:]
        packing.unpack(states, hs, h, reverse)

        ctx.x, ctx.x_shape, ctx.w_x, ctx.w_h = x_cells, x.shape, w_x, w_h
        ctx.gates, ctx.rec_n, ctx.h_prev = gates, rec_n, h_prev
        ctx.packing, ctx.reverse = packing, reverse
        return states

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        """Packed BPTT loop, then the shared tail (see
        ``RNNLevelFunction.backward``)."""
        gates, rec_n, h_prev = ctx.gates, ctx.rec_n, ctx.h_prev
        packing, w_h = ctx.packing, ctx.w_h
        batch, units = packing.batch, w_h.shape[0]

        # Whole-table precomputation, as in the other level backwards.
        zr_all = gates[..., :2 * units]
        n_all = gates[..., 2 * units:]
        zr_deriv = packing.scratch("gru.zrd", 2 * units)
        np.subtract(1.0, zr_all, out=zr_deriv)
        np.multiply(zr_all, zr_deriv, out=zr_deriv)
        n_deriv = packing.scratch("gru.nd", units)
        np.multiply(n_all, n_all, out=n_deriv)
        np.subtract(1.0, n_deriv, out=n_deriv)
        grad_cells = packing.gather(grad)
        w_h_t = np.ascontiguousarray(w_h.T)

        dproj = packing.scratch("gru.dproj", 3 * units, zeros=packing.in_place)
        drec = _scratch.zeros("gru.drec", (batch, 3 * units))
        dh = _scratch.zeros("gru.dh", (batch, units))
        spare = _scratch.get("gru.spare", (batch, units))
        acc = packing.padding_grads(grad, ctx.reverse, "gru.acc")
        for step in reversed(packing.steps(ctx.reverse)):
            _, key, live, gemm, _, _ = step
            packing.add_grads(dh, acc, grad, grad_cells, step)
            dlive = dh[live]
            gate, zr_d = gates[key], zr_deriv[key]
            z, n = gate[:, :units], gate[:, 2 * units:]
            dz = dlive * (h_prev[key] - n)
            dn_pre = dlive * (1.0 - z) * n_deriv[key]
            dr = dn_pre * rec_n[key]
            drec_live = drec[live]
            drec_live[:, :units] = dz * zr_d[:, :units]
            drec_live[:, units:2 * units] = dr * zr_d[:, units:]
            drec_live[:, 2 * units:] = dn_pre * gate[:, units:2 * units]
            dproj_t = dproj[key]
            dproj_t[:, :2 * units] = drec_live[:, :2 * units]
            dproj_t[:, 2 * units:] = dn_pre
            np.matmul(drec[gemm], w_h_t, out=spare[gemm])
            np.add(dlive * z, spare[live], out=dh[live])

        drec_seq = None
        if ctx.needs_input_grad[2]:
            # The candidate slice of ``drec`` differs from ``dproj`` (the
            # reset gate multiplies only the recurrent term), so rebuild it.
            drec_seq = packing.scratch("gru.drecseq", 3 * units)
            np.copyto(drec_seq, dproj)
            np.multiply(dproj[..., 2 * units:], gates[..., units:2 * units],
                        out=drec_seq[..., 2 * units:])
        return _level_grads(ctx, dproj, h_prev, drec_seq)


@_instrumented
class DenseSoftmaxBCEFunction(Function):
    """Classifier head fused with its loss: dense -> softmax -> BCE.

    Computes exactly ``categorical_cross_entropy(softmax(x @ w + b),
    targets)`` (the paper's two-way-softmax binary cross-entropy,
    Section 5.2) as one node, including the clamp-to-``epsilon`` and its
    zero-gradient-outside-the-clip-range semantics.
    """

    @staticmethod
    def forward(ctx: FunctionCtx, x: np.ndarray, w: np.ndarray,
                b: np.ndarray, targets_onehot: np.ndarray,
                epsilon: float = 1e-12) -> np.ndarray:
        targets_onehot = np.asarray(targets_onehot, dtype=np.float64)
        logits = x @ w + b
        if targets_onehot.shape != logits.shape:
            raise ShapeError(
                f"targets shape {targets_onehot.shape} does not match "
                f"logits shape {logits.shape}"
            )
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        clipped = np.clip(probs, epsilon, 1.0)
        per_sample = -(targets_onehot * np.log(clipped)).sum(axis=-1)
        loss = per_sample.sum() / float(per_sample.shape[0])

        ctx.x, ctx.w = x, w
        ctx.probs, ctx.clipped = probs, clipped
        ctx.targets, ctx.epsilon = targets_onehot, epsilon
        return np.asarray(loss)

    @staticmethod
    def backward(ctx: FunctionCtx, grad: np.ndarray
                 ) -> tuple[np.ndarray | None, ...]:
        probs, clipped, targets = ctx.probs, ctx.clipped, ctx.targets
        batch = probs.shape[0]
        dper_sample = float(grad) / batch
        dclipped = -dper_sample * targets / clipped
        inside = (probs >= ctx.epsilon) & (probs <= 1.0)
        dprobs = dclipped * inside
        dot = (dprobs * probs).sum(axis=-1, keepdims=True)
        dlogits = probs * (dprobs - dot)
        dx = dlogits @ ctx.w.T if ctx.needs_input_grad[0] else None
        dw = ctx.x.T @ dlogits if ctx.needs_input_grad[1] else None
        db = dlogits.sum(axis=0) if ctx.needs_input_grad[2] else None
        return dx, dw, db


# -- functional wrappers --------------------------------------------------------

def rnn_level(x, w_x, w_h, b_h, mask=None, reverse=False):
    """Fused tanh-RNN level; returns the state sequence ``(B, T, units)``."""
    return RNNLevelFunction.apply(x, w_x, w_h, b_h, mask, reverse)


def lstm_level(x, w_x, w_h, b_h, mask=None, reverse=False):
    """Fused LSTM level; returns the hidden sequence ``(B, T, units)``."""
    return LSTMLevelFunction.apply(x, w_x, w_h, b_h, mask, reverse)


def gru_level(x, w_x, w_h, b_h, mask=None, reverse=False):
    """Fused GRU level; returns the state sequence ``(B, T, units)``."""
    return GRULevelFunction.apply(x, w_x, w_h, b_h, mask, reverse)


def dense_softmax_bce(x, w, b, targets_onehot, epsilon=1e-12):
    """Fused classifier-head loss; returns a scalar loss tensor."""
    return DenseSoftmaxBCEFunction.apply(x, w, b, targets_onehot, epsilon)
