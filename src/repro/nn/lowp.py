"""Reduced-precision inference: a float32 re-implementation of the
detector forwards.

The autograd :class:`~repro.autograd.tensor.Tensor` deliberately coerces
everything to float64 (training reproducibility rests on it), so the fast
inference mode lives outside the graph: a straight-line numpy evaluator
that replicates the TSB-RNN / ETSB-RNN eval-mode forward in float32 --
same layer equations, same masking and effective-width trimming, no
autograd bookkeeping.

Weights are cast once per ``weights_version`` and reused across calls.
Float64 remains the default and the only training path; this module is
selected per call via ``InferenceEngine.predict_proba(precision=...)``
and is gated by tolerance tests against the float64 reference.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError

__all__ = ["PRECISION_MODES", "LOWP_MODES", "LowPrecisionEvaluator"]

#: Every precision the inference engine accepts.
PRECISION_MODES = ("float64", "float32")
#: The subset this module evaluates (float64 runs the normal graph).
LOWP_MODES = ("float32",)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Same clamp as the float64 kernels, computed in float32.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _run_level(kind: str, x: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
               b_h: np.ndarray, units: int, mask: np.ndarray | None,
               reverse: bool) -> np.ndarray:
    """One recurrence level in float32; mirrors the fused kernels' math."""
    batch, n_steps, _ = x.shape
    if mask is None:
        width = n_steps
        any_live = all_live = [True] * n_steps
    else:
        any_live = mask.any(axis=0).tolist()
        all_live = mask.all(axis=0).tolist()
        width = 1
        for t in range(n_steps - 1, -1, -1):
            if any_live[t]:
                width = t + 1
                break
    proj = x[:, :width] @ w_x + b_h
    order = range(width - 1, -1, -1) if reverse else range(width)
    states = np.empty((batch, n_steps, units), dtype=np.float32)
    h = np.zeros((batch, units), dtype=np.float32)
    c = np.zeros((batch, units), dtype=np.float32) if kind == "lstm" else None
    for t in order:
        if not any_live[t]:
            states[:, t] = h
            continue
        if kind == "rnn":
            h_raw = np.tanh(proj[:, t] + h @ w_h)
        elif kind == "lstm":
            gates = proj[:, t] + h @ w_h
            i = _sigmoid(gates[:, :units])
            f = _sigmoid(gates[:, units:2 * units])
            g = np.tanh(gates[:, 2 * units:3 * units])
            o = _sigmoid(gates[:, 3 * units:])
            c_raw = f * c + i * g
            h_raw = o * np.tanh(c_raw)
        else:  # gru
            rec = h @ w_h
            z = _sigmoid(proj[:, t, :units] + rec[:, :units])
            r = _sigmoid(proj[:, t, units:2 * units]
                         + rec[:, units:2 * units])
            n = np.tanh(proj[:, t, 2 * units:] + r * rec[:, 2 * units:])
            h_raw = z * h + (1.0 - z) * n
        if all_live[t]:
            h = h_raw
            if kind == "lstm":
                c = c_raw
        else:
            live = mask[:, t:t + 1]
            h = np.where(live, h_raw, h)
            if kind == "lstm":
                c = np.where(live, c_raw, c)
        states[:, t] = h
    if width < n_steps:
        states[:, width:] = 0.0 if reverse else h[:, None, :]
    return states


class LowPrecisionEvaluator:
    """Float32 forward evaluator bound to one detector model.

    Parameters
    ----------
    model:
        A :class:`~repro.models.tsb_rnn.TSBRNN` or
        :class:`~repro.models.etsb_rnn.ETSBRNN` instance (duck-typed on
        the branch attributes).
    mode:
        ``"float32"``, the one reduced-precision mode.
    """

    def __init__(self, model, mode: str = "float32") -> None:
        if mode not in LOWP_MODES:
            raise ConfigurationError(
                f"precision mode must be one of {LOWP_MODES}, got {mode!r}")
        for attr in ("embedding", "birnn", "head", "norm", "classifier"):
            if not hasattr(model, attr):
                raise ConfigurationError(
                    f"{type(model).__name__} is not a supported detector "
                    f"model for reduced-precision inference (missing "
                    f"{attr!r})")
        self.model = model
        self.mode = mode
        self._enriched = hasattr(model, "attr_birnn")
        self._weights: dict | None = None
        self._version: int | None = None

    # -- weight cache --------------------------------------------------------

    @staticmethod
    def _cast(array: np.ndarray) -> np.ndarray:
        return np.asarray(array, dtype=np.float32)

    def _cast_stack(self, stacked) -> list[tuple]:
        cells = []
        for cell in stacked.cells:
            kind = {1: "rnn", 4: "lstm", 3: "gru"}[
                cell.w_x.data.shape[1] // cell.units]
            cells.append((kind, self._cast(cell.w_x.data),
                          self._cast(cell.w_h.data),
                          self._cast(cell.b_h.data), cell.units))
        return cells

    def _cast_birnn(self, birnn) -> dict:
        return {"forward": self._cast_stack(birnn.forward_rnn),
                "backward": self._cast_stack(birnn.backward_rnn)}

    def _cast_dense(self, dense) -> tuple[np.ndarray, np.ndarray | None]:
        bias = (None if dense.bias is None
                else self._cast(dense.bias.data))
        return self._cast(dense.kernel.data), bias

    def _refresh_weights(self) -> dict:
        model = self.model
        version = model.weights_version
        if self._weights is not None and version == self._version:
            return self._weights
        norm = model.norm
        weights = {
            "embedding": self._cast(model.embedding.weights.data),
            "birnn": self._cast_birnn(model.birnn),
            "head": self._cast_dense(model.head),
            "classifier": self._cast_dense(model.classifier),
            "norm_mean": self._cast(norm.buffer("running_mean")),
            "norm_std": self._cast(
                np.sqrt(norm.buffer("running_var") + norm.epsilon)),
            "norm_gamma": self._cast(norm.gamma.data),
            "norm_beta": self._cast(norm.beta.data),
        }
        if self._enriched:
            weights["attr_embedding"] = self._cast(
                model.attr_embedding.weights.data)
            weights["attr_birnn"] = self._cast_birnn(model.attr_birnn)
            weights["length_dense"] = self._cast_dense(model.length_dense)
        self._weights = weights
        self._version = version
        if telemetry.enabled():
            telemetry.get_registry().counter(
                "inference.precision.weight_casts").inc()
        return weights

    # -- forward -------------------------------------------------------------

    @staticmethod
    def _run_birnn(cells: dict, x: np.ndarray,
                   mask: np.ndarray | None) -> np.ndarray:
        n_steps = x.shape[1]
        finals = []
        for direction, stack in (("forward", cells["forward"]),
                                 ("backward", cells["backward"])):
            reverse = direction == "backward"
            sequence = x
            for kind, w_x, w_h, b_h, units in stack:
                sequence = _run_level(kind, sequence, w_x, w_h, b_h, units,
                                      mask, reverse)
            finals.append(sequence[:, 0 if reverse else n_steps - 1])
        return np.concatenate(finals, axis=-1)

    @staticmethod
    def _dense(x: np.ndarray, kernel_bias: tuple, activation: str
               ) -> np.ndarray:
        kernel, bias = kernel_bias
        out = x @ kernel
        if bias is not None:
            out = out + bias
        if activation == "relu":
            return np.maximum(out, 0.0)
        if activation == "softmax":
            return _softmax(out)
        return out

    def predict_proba(self, features: dict[str, np.ndarray]) -> np.ndarray:
        """Float32 ``(batch, 2)`` probabilities for encoded features."""
        weights = self._refresh_weights()
        model = self.model

        indices, mask = model.embedding.sequence_input(
            np.asarray(features["values"], dtype=np.int64))
        embedded = weights["embedding"][indices]
        encoded = self._run_birnn(weights["birnn"], embedded, mask)

        if self._enriched:
            attr_indices = np.asarray(features["attributes"],
                                      dtype=np.int64).reshape(-1, 1)
            attr_embedded = weights["attr_embedding"][attr_indices]
            attr_encoded = self._run_birnn(weights["attr_birnn"],
                                           attr_embedded, None)
            length = np.asarray(features["length_norm"], dtype=np.float32)
            length_encoded = self._dense(length, weights["length_dense"],
                                         "relu")
            encoded = np.concatenate(
                [encoded, attr_encoded, length_encoded], axis=-1)

        hidden = self._dense(encoded, weights["head"], "relu")
        normalised = ((hidden - weights["norm_mean"]) / weights["norm_std"]
                      * weights["norm_gamma"] + weights["norm_beta"])
        return self._dense(normalised, weights["classifier"], "softmax")
