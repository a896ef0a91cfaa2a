"""Trainable embedding layer (Section 3.1 of the paper).

Index 0 is reserved by the data-preparation pipeline as the padding
end-indicator; with ``mask_zero=True`` the layer reports a padding mask the
RNN uses to ignore padded steps when producing its final state.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, embedding_lookup
from repro.errors import ConfigurationError
from repro.nn.init import uniform
from repro.nn.module import Module, Parameter


class Embedding(Module):
    """Maps integer indices to dense vectors.

    Parameters
    ----------
    vocab_size:
        Number of rows in the embedding matrix (dictionary size + 1 for
        the padding index 0).
    embed_dim:
        Dimensionality of the embedding space.
    rng:
        Random generator for initialization.
    mask_zero:
        When ``True``, :meth:`padding_mask` marks index-0 positions.
    """

    def __init__(self, vocab_size: int, embed_dim: int,
                 rng: np.random.Generator, mask_zero: bool = True):
        super().__init__()
        if vocab_size < 1 or embed_dim < 1:
            raise ConfigurationError(
                f"vocab_size and embed_dim must be >= 1, got {vocab_size}, {embed_dim}"
            )
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.mask_zero = mask_zero
        self.weights = Parameter(uniform(rng, (vocab_size, embed_dim)),
                                 name="embedding.weights")

    def forward(self, indices: np.ndarray) -> Tensor:
        """Gather embeddings; output shape ``indices.shape + (embed_dim,)``."""
        return embedding_lookup(self.weights, np.asarray(indices, dtype=np.int64))

    def padding_mask(self, indices: np.ndarray) -> np.ndarray | None:
        """Boolean mask of valid (non-padding) positions, or None."""
        if not self.mask_zero:
            return None
        return np.asarray(indices) != 0

    def sequence_input(self, indices: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray | None]:
        """Indices and the right-padded mask a recurrent encoder runs on.

        The fused sequence kernels take right-padded masks only (every row
        live for a prefix of its steps).  The data pipeline already
        right-pads; a row with an index 0 *between* its characters is
        compacted so its characters come first.  A padded step leaves the
        recurrent state untouched, so the encoder's final states equal
        those of the uncompacted row.  A fully padded row (an empty cell
        value) gets one live step, so its final state is the learned
        response to "empty".
        """
        indices = np.asarray(indices)
        mask = self.padding_mask(indices)
        if mask is None:
            return indices, None
        lengths = np.count_nonzero(mask, axis=1)
        prefix = np.arange(mask.shape[1]) < lengths[:, None]
        if not np.array_equal(mask, prefix):
            order = np.argsort(~mask, axis=1, kind="stable")
            indices = np.take_along_axis(indices, order, axis=1)
        prefix[lengths == 0, 0] = True
        return indices, prefix
