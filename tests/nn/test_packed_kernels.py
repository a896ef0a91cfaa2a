"""Packed execution of the fused level kernels.

The kernels sort a batch's rows by length once per call and step only
the rows still live (see :mod:`repro.nn.kernels`).  These tests pin the
contract that packing is invisible in the numbers: forward values equal
the per-step graph backend bit for bit and gradients agree as closely as
they always have, on unsorted ragged batches whose live count falls to a
single row, for every cell type and direction; concurrent calls on
different threads do not share scratch buffers; and masks that are not
right-padded are refused.  The weight and input gradients run on the
same per-cell tables as the time loop (the live cells only when packed);
further tests pin that tail at its edges: a batch with one live cell,
every subset of inputs that needs a gradient, and scratch buffers full
of NaN before the backward.
"""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ShapeError
from repro.nn import StackedRNN, use_backend
from repro.nn import kernels
from repro.nn.kernels import gru_level, lstm_level, rnn_level
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.rnn import CELL_TYPES

pytestmark = pytest.mark.equivalence

LEVELS = {"rnn": (rnn_level, 1), "lstm": (lstm_level, 4),
          "gru": (gru_level, 3)}

#: Row lengths by layout.  "unsorted" has one row longer than all others
#: (the live count falls to 1) and a fully padded row; the sorted ones run
#: in place, the ascending one with its live rows as a suffix.
LENGTHS = {
    "unsorted": [3, 7, 1, 5, 7, 2, 9, 4, 0, 6, 7, 3],
    "descending": [9, 7, 7, 6, 5, 4, 3, 3, 2, 1],
    "ascending": [1, 1, 2, 4, 4, 6, 8],
    "uniform": [5, 5, 5, 5],
    "single_row": [4],
}


def _mask(lengths, n_steps=10):
    lengths = np.asarray(lengths)
    return np.arange(n_steps)[None, :] < lengths[:, None]


def _run_stack(backend, cell_type, reverse, x_data, mask):
    rnn = StackedRNN(x_data.shape[2], 5, np.random.default_rng(7),
                     num_layers=2, reverse=reverse, cell_type=cell_type)
    x = Tensor(x_data.copy(), requires_grad=True)
    with use_backend(backend):
        final, outputs = rnn.run(x, mask=mask)
        loss = (final ** 2).sum()
        for t, out in enumerate(outputs):
            loss = loss + (out * (0.1 * (t + 1))).sum()
        loss.backward()
    states = np.stack([out.data for out in outputs], axis=1)
    return (final.data.copy(), states,
            [x.grad.copy()] + [p.grad.copy() for p in rnn.parameters()])


class TestFusedMatchesGraph:
    @pytest.mark.parametrize("cell_type", CELL_TYPES)
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("layout", sorted(LENGTHS))
    def test_forward_bitwise_and_gradients_close(self, cell_type, reverse,
                                                 layout):
        mask = _mask(LENGTHS[layout])
        x_data = np.random.default_rng(3).normal(size=mask.shape + (4,))
        fused = _run_stack("fused", cell_type, reverse, x_data, mask)
        graph = _run_stack("graph", cell_type, reverse, x_data, mask)
        np.testing.assert_array_equal(fused[0], graph[0])
        np.testing.assert_array_equal(fused[1], graph[1])
        for fused_grad, graph_grad in zip(fused[2], graph[2]):
            np.testing.assert_allclose(fused_grad, graph_grad,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("cell_type", CELL_TYPES)
    def test_row_order_does_not_change_a_rows_bits(self, cell_type):
        # The same rows, once unsorted (packed) and once sorted by length
        # (in place), give each row the same output bytes.
        lengths = np.array(LENGTHS["unsorted"])
        order = np.argsort(-lengths, kind="stable")
        x_data = np.random.default_rng(4).normal(size=(len(lengths), 10, 3))
        rnn = StackedRNN(3, 5, np.random.default_rng(8), num_layers=2,
                         cell_type=cell_type)
        with use_backend("fused"):
            _, unsorted = rnn.run(Tensor(x_data), mask=_mask(lengths))
            _, ordered = rnn.run(Tensor(x_data[order]),
                                 mask=_mask(lengths[order]))
        unsorted = np.stack([out.data for out in unsorted], axis=1)
        ordered = np.stack([out.data for out in ordered], axis=1)
        assert unsorted[order].tobytes() == ordered.tobytes()


def _one_level(cell, lengths, reverse, frozen=(), poison=False):
    """Output and gradients of one fused level call on a ragged batch.

    ``frozen`` names the inputs created without ``requires_grad``;
    ``poison`` fills every scratch buffer with NaN between the forward
    and the backward.
    """
    level, mult = LEVELS[cell]
    rng = np.random.default_rng(11)
    mask = _mask(lengths)
    values = {"x": rng.normal(size=mask.shape + (3,)),
              "w_x": 0.5 * rng.normal(size=(3, 4 * mult)),
              "w_h": 0.5 * rng.normal(size=(4, 4 * mult)),
              "b_h": 0.1 * rng.normal(size=(4 * mult,))}
    inputs = {name: Tensor(value.copy(), requires_grad=name not in frozen)
              for name, value in values.items()}
    out = level(inputs["x"], inputs["w_x"], inputs["w_h"], inputs["b_h"],
                mask=mask, reverse=reverse)
    weights = rng.normal(size=out.data.shape)
    if poison:
        for array in kernels._scratch._arrays.values():
            array.fill(np.nan)
    (out * weights).sum().backward()
    return out.data.copy(), {name: None if t.grad is None else t.grad.copy()
                             for name, t in inputs.items()}


class TestPackedTail:
    """``dx``, ``dw_x``, ``dw_h`` and ``db`` over the live-cell tables."""

    @pytest.mark.parametrize("cell_type", CELL_TYPES)
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_single_live_cell(self, cell_type, reverse):
        lengths = [0, 1, 0, 0]
        packing = kernels._Packing.of(_mask(lengths), len(lengths), 10)
        assert not packing.in_place and packing.n_cells == 1
        x_data = np.random.default_rng(5).normal(size=(4, 10, 3))
        fused = _run_stack("fused", cell_type, reverse, x_data,
                           _mask(lengths))
        graph = _run_stack("graph", cell_type, reverse, x_data,
                           _mask(lengths))
        np.testing.assert_array_equal(fused[1], graph[1])
        for fused_grad, graph_grad in zip(fused[2], graph[2]):
            np.testing.assert_allclose(fused_grad, graph_grad,
                                       rtol=1e-9, atol=1e-12)
        # Only the live cell's input step gets a gradient.
        dx = fused[2][0]
        assert np.count_nonzero(np.abs(dx).sum(axis=-1)) == 1
        assert np.abs(dx[1, 0]).sum() > 0

    @pytest.mark.parametrize("cell", sorted(LEVELS))
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("layout", ["unsorted", "descending",
                                        "ascending"])
    @pytest.mark.parametrize("frozen", [("x",), ("w_x",), ("w_h",),
                                        ("b_h",), ("w_x", "w_h", "b_h")],
                             ids=lambda names: "+".join(names))
    def test_needs_input_grad_subsets(self, cell, reverse, layout, frozen):
        # Frozen inputs get no gradient; every other gradient is the
        # bytes of a call where every input needs one.
        full = _one_level(cell, LENGTHS[layout], reverse)[1]
        part = _one_level(cell, LENGTHS[layout], reverse, frozen)[1]
        for name, grad in part.items():
            if name in frozen:
                assert grad is None
            else:
                assert grad.tobytes() == full[name].tobytes(), name

    @pytest.mark.parametrize("cell", sorted(LEVELS))
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("layout", ["unsorted", "descending",
                                        "ascending", "single_row"])
    def test_stale_scratch_is_never_read(self, cell, reverse, layout):
        clean_out, clean = _one_level(cell, LENGTHS[layout], reverse)
        out, grads = _one_level(cell, LENGTHS[layout], reverse,
                                poison=True)
        assert out.tobytes() == clean_out.tobytes()
        for name, grad in grads.items():
            assert np.isfinite(grad).all(), name
            assert grad.tobytes() == clean[name].tobytes(), name


class TestScratchIsolation:
    def test_concurrent_threads_do_not_corrupt_scratch(self):
        """Two application threads hammer different shapes concurrently;
        thread-local scratch keeps every result equal to a quiet run."""
        level, mult = LEVELS["lstm"]
        masks = [np.ones(shape, dtype=bool) for shape in [(9, 7), (13, 5)]]

        def forward(mask, seed):
            rng = np.random.default_rng(seed)
            batch, n_steps = mask.shape
            x = Tensor(rng.normal(size=(batch, n_steps, 3)))
            w_x = Tensor(0.5 * rng.normal(size=(3, 5 * mult)))
            w_h = Tensor(0.5 * rng.normal(size=(5, 5 * mult)))
            b_h = Tensor(0.1 * rng.normal(size=(5 * mult,)))
            return level(x, w_x, w_h, b_h, mask=mask).data.copy()

        references = [forward(mask, seed)
                      for seed, mask in enumerate(masks)]
        results = [[] for _ in masks]
        barrier = threading.Barrier(len(masks))

        def worker(index):
            barrier.wait()
            for _ in range(25):
                results[index].append(forward(masks[index], index))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(masks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for reference, outs in zip(references, results):
            for out in outs:
                np.testing.assert_array_equal(out, reference)


class TestMaskContract:
    @pytest.mark.parametrize("cell", sorted(LEVELS))
    def test_interior_padding_is_rejected(self, cell):
        level, mult = LEVELS[cell]
        mask = _mask([4, 6, 3])
        mask[1, 2] = False  # a hole before the row's last live step
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="right-padded"):
            level(Tensor(rng.normal(size=(3, 10, 2))),
                  Tensor(rng.normal(size=(2, 3 * mult))),
                  Tensor(rng.normal(size=(3, 3 * mult))),
                  Tensor(rng.normal(size=(3 * mult,))), mask=mask)

    def test_sequence_input_compacts_interior_padding(self):
        layer = Embedding(10, 3, np.random.default_rng(0))
        indices = np.array([[4, 0, 5, 0, 0], [0, 0, 0, 0, 0],
                            [1, 2, 3, 0, 0]])
        packed, mask = layer.sequence_input(indices)
        np.testing.assert_array_equal(
            packed, [[4, 5, 0, 0, 0], [0, 0, 0, 0, 0], [1, 2, 3, 0, 0]])
        np.testing.assert_array_equal(mask, [
            [True, True, False, False, False],
            [True, False, False, False, False],   # empty value: one step
            [True, True, True, False, False]])

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_compaction_keeps_the_final_state(self, reverse):
        # A padded step leaves the state unchanged, so the graph backend's
        # final state over an interior-padded row equals the fused final
        # state over the compacted row.
        layer = Embedding(10, 3, np.random.default_rng(0))
        indices = np.array([[4, 0, 5, 7, 0, 0], [0, 2, 0, 3, 0, 1]])
        rnn = StackedRNN(3, 4, np.random.default_rng(1), num_layers=2,
                         reverse=reverse)
        with use_backend("graph"):
            holes = rnn(layer(indices), mask=indices != 0).data
        packed, mask = layer.sequence_input(indices)
        with use_backend("fused"):
            compact = rnn(layer(packed), mask=mask).data
        np.testing.assert_array_equal(holes, compact)
