"""ETSB-RNN: the Enriched Two-Stacked Bidirectional RNN (Section 4.3.2).

Extends TSB-RNN with two additional inputs (Figure 5, bottom part):

* the **attribute index** -- embedded and passed through its own
  two-stacked bidirectional RNN with 8 units (the attribute is a
  length-1 sequence, so this is a learned nonlinear attribute encoding);
* the **normalised value length** -- a dense 64 ReLU branch.

The three branch outputs are concatenated and fed through the same head
as TSB-RNN (dense 32 ReLU -> batch norm -> dense 2 softmax).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, concat
from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.nn import BatchNorm1d, BidirectionalRNN, Dense, Embedding
from repro.nn.backend import get_backend
from repro.nn.kernels import dense_softmax_bce
from repro.nn.losses import categorical_cross_entropy, one_hot
from repro.nn.module import Module


class ETSBRNN(Module):
    """The enriched three-input architecture of Figure 5 (bottom part).

    Parameters
    ----------
    char_vocab_size:
        Character dictionary size including the pad slot.
    attr_vocab_size:
        Attribute dictionary size including the pad slot.
    config:
        Architecture widths.
    rng:
        Random generator for weight initialization.
    """

    def __init__(self, char_vocab_size: int, attr_vocab_size: int,
                 config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        # Value branch (identical to TSB-RNN).
        self.embedding = Embedding(char_vocab_size, config.char_embed_dim, rng)
        self.birnn = BidirectionalRNN(config.char_embed_dim, config.value_units,
                                      rng, num_layers=config.num_layers,
                                      cell_type=config.cell_type)
        # Attribute branch: embedding + 8-unit two-stacked BiRNN.
        self.attr_embedding = Embedding(attr_vocab_size, config.attr_embed_dim,
                                        rng, mask_zero=False)
        self.attr_birnn = BidirectionalRNN(config.attr_embed_dim,
                                           config.attr_units, rng,
                                           num_layers=config.num_layers,
                                           cell_type=config.cell_type)
        # Length branch: dense 64 ReLU on the scalar ratio.
        self.length_dense = Dense(1, config.length_dense_units, rng,
                                  activation="relu")
        combined = (self.birnn.output_dim + self.attr_birnn.output_dim
                    + config.length_dense_units)
        self.head = Dense(combined, config.head_units, rng, activation="relu")
        self.norm = BatchNorm1d(config.head_units)
        self.classifier = Dense(config.head_units, 2, rng, activation="softmax")

    def _encode(self, features: dict[str, np.ndarray]) -> Tensor:
        """The shared trunk: all three branches up to (excluding) the classifier."""
        for key in ("values", "attributes", "length_norm"):
            if key not in features:
                raise ConfigurationError(f"ETSBRNN requires a {key!r} feature")
        indices, mask = self.embedding.sequence_input(features["values"])
        value_encoded = self.birnn(self.embedding(indices), mask=mask)

        attr_indices = np.asarray(features["attributes"]).reshape(-1, 1)
        attr_encoded = self.attr_birnn(self.attr_embedding(attr_indices))

        length = Tensor(np.asarray(features["length_norm"], dtype=np.float64))
        length_encoded = self.length_dense(length)

        combined = concat([value_encoded, attr_encoded, length_encoded], axis=-1)
        return self.norm(self.head(combined))

    def forward(self, features: dict[str, np.ndarray]) -> Tensor:
        """Classify each cell; returns ``(batch, 2)`` softmax probabilities.

        Parameters
        ----------
        features:
            ``values`` -- ``(batch, max_length)`` character indices;
            ``attributes`` -- ``(batch,)`` attribute indices;
            ``length_norm`` -- ``(batch, 1)`` length ratios.
        """
        return self.classifier(self._encode(features))

    def training_loss(self, features: dict[str, np.ndarray],
                      labels: np.ndarray) -> Tensor:
        """Binary cross-entropy of the two-way softmax head (Section 5.2).

        Dispatches on the active backend exactly like
        :meth:`repro.models.tsb_rnn.TSBRNN.training_loss`.
        """
        hidden = self._encode(features)
        targets = one_hot(np.asarray(labels), 2)
        if get_backend() == "fused":
            return dense_softmax_bce(hidden, self.classifier.kernel,
                                     self.classifier.bias, targets)
        return categorical_cross_entropy(self.classifier(hidden), targets)
