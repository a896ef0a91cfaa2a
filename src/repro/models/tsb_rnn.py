"""TSB-RNN: the Two-Stacked Bidirectional RNN architecture (Section 4.3.1).

Character indices -> embedding -> two-stacked bidirectional tanh RNN
(64 units per direction) -> dense 32 ReLU -> batch norm -> dense 2
softmax.  The output is the probability distribution over
{correct, error} for one cell value.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.nn import BatchNorm1d, BidirectionalRNN, Dense, Embedding
from repro.nn.backend import get_backend
from repro.nn.kernels import dense_softmax_bce
from repro.nn.losses import categorical_cross_entropy, one_hot
from repro.nn.module import Module


class TSBRNN(Module):
    """The value-only architecture of Figure 5 (top part).

    Parameters
    ----------
    char_vocab_size:
        Character dictionary size including the pad slot.
    config:
        Architecture widths.
    rng:
        Random generator for weight initialization.
    """

    def __init__(self, char_vocab_size: int, config: ModelConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.embedding = Embedding(char_vocab_size, config.char_embed_dim, rng)
        self.birnn = BidirectionalRNN(config.char_embed_dim, config.value_units,
                                      rng, num_layers=config.num_layers,
                                      cell_type=config.cell_type)
        self.head = Dense(self.birnn.output_dim, config.head_units, rng,
                          activation="relu")
        self.norm = BatchNorm1d(config.head_units)
        self.classifier = Dense(config.head_units, 2, rng, activation="softmax")

    def _encode(self, features: dict[str, np.ndarray]) -> Tensor:
        """The shared trunk: everything up to (excluding) the classifier."""
        if "values" not in features:
            raise ConfigurationError("TSBRNN requires a 'values' feature")
        indices, mask = self.embedding.sequence_input(features["values"])
        embedded = self.embedding(indices)
        encoded = self.birnn(embedded, mask=mask)
        return self.norm(self.head(encoded))

    def forward(self, features: dict[str, np.ndarray]) -> Tensor:
        """Classify each cell; returns ``(batch, 2)`` softmax probabilities.

        Parameters
        ----------
        features:
            Must contain ``values``: ``(batch, max_length)`` padded
            character indices.  Other keys are ignored, which lets the
            same feature dicts feed both architectures.
        """
        return self.classifier(self._encode(features))

    def training_loss(self, features: dict[str, np.ndarray],
                      labels: np.ndarray) -> Tensor:
        """Binary cross-entropy of the two-way softmax head (Section 5.2).

        On the ``"fused"`` backend the dense + softmax + BCE head runs as
        a single autograd node; the ``"graph"`` backend composes the same
        computation from primitive ops.  Values are identical.
        """
        hidden = self._encode(features)
        targets = one_hot(np.asarray(labels), 2)
        if get_backend() == "fused":
            return dense_softmax_bce(hidden, self.classifier.kernel,
                                     self.classifier.bias, targets)
        return categorical_cross_entropy(self.classifier(hidden), targets)
