"""The kernel work plane: length-grouped intra-batch parallelism.

The fused kernels already step only the rows still live (packed
execution, see :mod:`repro.nn.kernels`), but one call is one serial time
loop.  The plane splits the batch into length-sorted row groups and runs
the level kernel per group -- concurrently on a persistent thread pool --
so on multi-core hosts the groups overlap in the BLAS/numpy regions that
release the GIL.  Each group arrives in length order, so the kernel runs
it in place with no gather.

Determinism contract
--------------------
The group plan is a pure function of the batch mask (never of the worker
count), groups are at least :data:`MIN_GROUP_ROWS` rows so BLAS row
results match the full-batch call bit for bit, and the backward reduction
is *not* a per-group gradient sum: workers compute only the row-local
BPTT loops (``_local_grads``), the main thread scatters their
pre-activation gradients into one full-batch buffer and runs the serial
kernel's own GEMM tail (``_finish``) on it.  Forward states and all
gradients are therefore byte-identical across worker counts, including
the plane-off serial path (both zero-fill the padding gradients).

``REPRO_NN_WORKERS`` (or :func:`set_workers` / :func:`use_workers`)
selects the worker count; ``0`` -- the default -- disables the plane.
Every count >= 1 uses the identical grouped code path (``1`` runs the
groups on the calling thread), which is what makes the byte-identity
across counts trivial to audit.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from repro import telemetry
from repro.autograd.function import Function, FunctionCtx
from repro.errors import ConfigurationError

__all__ = [
    "WORKERS_ENV_VAR",
    "MIN_PARALLEL_ROWS",
    "MIN_GROUP_ROWS",
    "MAX_GROUPS",
    "get_workers",
    "set_workers",
    "reset_workers",
    "use_workers",
    "shutdown_pool",
    "plan_groups",
    "parallel_level_active",
    "parallel_level",
]

WORKERS_ENV_VAR = "REPRO_NN_WORKERS"

#: Batches smaller than this run inline: dispatch overhead would dominate.
MIN_PARALLEL_ROWS = 8
#: BLAS kernels pick a different microkernel for single-row operands
#: (see ``pad_single_row``), so groups keep at least two rows to stay
#: bit-identical with the full-batch call.
MIN_GROUP_ROWS = 2
#: Split granularity cap.  Deliberately *not* the worker count: the plan
#: must be identical at every count for reproducibility.
MAX_GROUPS = 4
#: Cost model for the split decision: one time step costs roughly this
#: many row-units of fixed interpreter/dispatch overhead on top of its
#: per-row arithmetic.  A split must reduce
#: ``width * (OVERHEAD_ROWS + n_rows)`` summed over groups to happen at
#: all, so uniform-length batches stay unsplit instead of paying pure
#: overhead.
OVERHEAD_ROWS = 16.0

_workers: int | None = None
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _validate(value: int) -> int:
    if value < 0:
        raise ConfigurationError(
            f"worker count must be a non-negative integer, got {value!r}")
    return value


def get_workers() -> int:
    """Active worker count; ``0`` means the plane is off."""
    global _workers
    if _workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip() or "0"
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        _workers = _validate(value)
    return _workers


def set_workers(value: int) -> None:
    """Override the worker count for this process."""
    global _workers
    _workers = _validate(int(value))


def reset_workers() -> None:
    """Forget any override; the next query re-reads the environment."""
    global _workers
    _workers = None


@contextlib.contextmanager
def use_workers(value: int) -> Iterator[None]:
    """Scoped worker-count override (mirrors ``backend.use_backend``)."""
    global _workers
    previous = _workers
    set_workers(value)
    try:
        yield
    finally:
        _workers = previous


def _get_pool(n_workers: int) -> ThreadPoolExecutor:
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size != n_workers:
            if _pool is not None:
                _pool.shutdown(wait=True)
            _pool = ThreadPoolExecutor(max_workers=n_workers,
                                       thread_name_prefix="repro-plane")
            _pool_size = n_workers
        return _pool


def shutdown_pool() -> None:
    """Tear down the persistent thread pool (tests, interpreter exit)."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None
            _pool_size = 0


atexit.register(shutdown_pool)


def plan_groups(mask: np.ndarray) -> list[np.ndarray]:
    """Length-sorted row groups for one batch.

    Rows are ordered by live length (stable sort, so equal lengths keep
    their batch order) and greedily segmented where a split reduces the
    modelled level cost ``width * (OVERHEAD_ROWS + n_rows)`` the most --
    i.e. where short rows would otherwise be dragged through a long
    tail's time steps.  At most :data:`MAX_GROUPS` groups of at least
    :data:`MIN_GROUP_ROWS` rows; a batch with no profitable split stays
    one group.  A pure function of the mask: the same batch always yields
    the same plan, whatever the worker count.
    """
    batch, n_steps = mask.shape
    lengths = np.where(mask.any(axis=1),
                       n_steps - np.argmax(mask[:, ::-1], axis=1), 0)
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = np.maximum(lengths[order], 1)

    segments = [(0, batch)]
    for _ in range(MAX_GROUPS - 1):
        best: tuple[float, int, int] | None = None
        for index, (lo, hi) in enumerate(segments):
            if hi - lo < 2 * MIN_GROUP_ROWS:
                continue
            splits = np.arange(lo + MIN_GROUP_ROWS,
                               hi - MIN_GROUP_ROWS + 1)
            left_width = sorted_lengths[splits - 1]
            right_width = int(sorted_lengths[hi - 1])
            split_cost = (left_width * (OVERHEAD_ROWS + (splits - lo))
                          + right_width * (OVERHEAD_ROWS + (hi - splits)))
            at = int(np.argmin(split_cost))
            saving = (right_width * (OVERHEAD_ROWS + (hi - lo))
                      - float(split_cost[at]))
            if saving > 0.0 and (best is None or saving > best[0]):
                best = (saving, index, int(splits[at]))
        if best is None:
            break
        _, index, at = best
        lo, hi = segments[index]
        segments[index:index + 1] = [(lo, at), (at, hi)]
    return [order[lo:hi] for lo, hi in segments]


def parallel_level_active(mask: np.ndarray | None) -> bool:
    """Cheap guard the functional kernel wrappers consult per call."""
    return (mask is not None and mask.shape[0] >= MIN_PARALLEL_ROWS
            and get_workers() > 0)


def _run_tasks(tasks: Sequence[Callable[[], Any]]) -> list[Any]:
    """Execute task thunks, on the pool when more than one worker is set.

    Results are returned in task order.  Tasks write only to disjoint row
    slices and thread-local scratch, so scheduling order cannot affect
    the numbers they produce.
    """
    if telemetry.enabled():
        registry = telemetry.get_registry()
        registry.counter("parallel.tasks_dispatched").inc(len(tasks))
        wall = registry.timer("parallel.worker_wall_seconds")
        cpu = registry.timer("parallel.worker_cpu_seconds")

        def timed(task: Callable[[], Any]) -> Callable[[], Any]:
            def run() -> Any:
                wall_start = time.perf_counter()
                cpu_start = time.thread_time()
                out = task()
                wall.observe(time.perf_counter() - wall_start)
                cpu.observe(time.thread_time() - cpu_start)
                return out

            return run

        tasks = [timed(task) for task in tasks]
    n_workers = get_workers()
    if n_workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    pool = _get_pool(n_workers)
    futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]


def _full_width(mask: np.ndarray) -> int:
    """``_effective_width`` of the whole batch, recomputed from the mask."""
    any_live = mask.any(axis=0)
    if not any_live.any():
        return 1
    return int(mask.shape[1] - np.argmax(any_live[::-1]))


_parallel_classes: dict[type[Function], type[Function]] = {}


def _make_parallel_class(kernel_cls: type[Function]) -> type[Function]:
    class ParallelLevel(Function):
        """One autograd node running ``kernel`` per length group.

        Forward: each group runs the unmodified kernel on its row slice
        (the kernel trims its time loop to the group's own width -- the
        source of the speedup) and the states are scattered back into
        the full ``(batch, time, units)`` sequence.

        Backward: workers run only the kernel's row-local BPTT half
        (``_local_grads``); the main thread assembles the groups'
        pre-activation gradients into one full-batch buffer and hands it
        to the kernel's serial GEMM tail (``_finish``).  The reduction
        order is therefore fixed by the serial kernel itself, not by
        worker scheduling.
        """

        kernel = kernel_cls

        @classmethod
        def forward(cls, ctx: FunctionCtx, x: np.ndarray, w_x: np.ndarray,
                    w_h: np.ndarray, b_h: np.ndarray,
                    mask: np.ndarray | None, reverse: bool,
                    groups: list[np.ndarray]) -> np.ndarray:
            kernel = cls.kernel
            batch, n_steps, _ = x.shape
            units = w_h.shape[0]

            def forward_task(rows: np.ndarray) -> tuple[FunctionCtx,
                                                        np.ndarray]:
                group_ctx = FunctionCtx(ctx.needs_input_grad)
                states = kernel.forward(group_ctx, x[rows], w_x, w_h, b_h,
                                        mask[rows], reverse)
                return group_ctx, states

            results = _run_tasks([
                (lambda rows=rows: forward_task(rows)) for rows in groups])
            out = np.empty((batch, n_steps, units))
            group_ctxs = []
            for rows, (group_ctx, states) in zip(groups, results):
                out[rows] = states
                group_ctxs.append(group_ctx)

            ctx.groups, ctx.group_ctxs = groups, group_ctxs
            ctx.x_full, ctx.w_x_full = x, w_x
            ctx.mask_full, ctx.reverse_full, ctx.out = mask, reverse, out
            return out

        @classmethod
        def backward(cls, ctx: FunctionCtx, grad: np.ndarray
                     ) -> tuple[np.ndarray | None, ...]:
            kernel = cls.kernel
            groups, group_ctxs = ctx.groups, ctx.group_ctxs
            mask, reverse = ctx.mask_full, ctx.reverse_full
            batch, n_steps = mask.shape
            width = _full_width(mask)

            def backward_task(group_ctx: FunctionCtx, rows: np.ndarray
                              ) -> tuple[np.ndarray | None, ...]:
                outs = kernel._local_grads(group_ctx, grad[rows])
                # The kernel stages results in thread-local scratch; copy
                # them out before this worker thread reuses the buffers
                # for its next group.
                return tuple(None if o is None else o.copy() for o in outs)

            locals_ = _run_tasks([
                (lambda gc=gc, rows=rows: backward_task(gc, rows))
                for gc, rows in zip(group_ctxs, groups)])

            # Assemble full-batch buffers.  Steps beyond a group's own
            # width are padding for all its rows: their serial gradient is
            # exactly zero, so the zero fill reproduces the serial values.
            n_parts = len(locals_[0])
            assembled: list[np.ndarray | None] = []
            for part in range(n_parts):
                if locals_[0][part] is None:
                    assembled.append(None)
                    continue
                gate_dim = locals_[0][part].shape[-1]
                full = np.zeros((batch, width, gate_dim))
                for rows, outs in zip(groups, locals_):
                    group_part = outs[part]
                    full[rows, :group_part.shape[1]] = group_part
                assembled.append(full)

            finish_ctx = FunctionCtx(ctx.needs_input_grad)
            x = ctx.x_full
            finish_ctx.x = x[:, :width] if width < n_steps else x
            finish_ctx.x_shape = x.shape
            finish_ctx.w_x = ctx.w_x_full
            # The serial kernels stash the output sequence under
            # class-specific names; provide both.
            finish_ctx.states = finish_ctx.h_seq = ctx.out
            finish_ctx.width, finish_ctx.reverse = width, reverse
            return kernel._finish(finish_ctx, *assembled)

    ParallelLevel.__name__ = f"Parallel{kernel_cls.__name__}"
    ParallelLevel.__qualname__ = ParallelLevel.__name__
    return ParallelLevel


def parallel_level(kernel_cls: type[Function], x: Any, w_x: Any, w_h: Any,
                   b_h: Any, mask: np.ndarray, reverse: bool) -> Any:
    """Run one recurrence level through the work plane.

    ``kernel_cls`` is passed in by :mod:`repro.nn.kernels` (this module
    deliberately never imports the kernels, which import it).  When the
    planner finds no profitable split the level runs inline, exactly as
    with the plane off.
    """
    groups = plan_groups(mask)
    if len(groups) < 2:
        return kernel_cls.apply(x, w_x, w_h, b_h, mask, reverse)
    cls = _parallel_classes.get(kernel_cls)
    if cls is None:
        cls = _make_parallel_class(kernel_cls)
        _parallel_classes[kernel_cls] = cls
    return cls.apply(x, w_x, w_h, b_h, mask, reverse, groups)
