"""The unique-cell index: duplicate detection over encoded feature rows.

Two cells with identical model inputs (character sequence, attribute id,
normalised length) are guaranteed identical probabilities, so prediction
only ever needs to run on one representative per group of duplicates.
:func:`build_dedup_index` finds the groups vectorised -- the feature rows
are viewed as raw bytes and grouped with ``np.unique`` -- and
:class:`DedupIndex` carries the result: first-occurrence representative
rows plus the inverse map that scatters representative outputs back to
every row.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DedupIndex:
    """Duplicate structure of ``n_rows`` feature rows.

    Attributes
    ----------
    representatives:
        ``(n_unique,)`` int64 row indices; for every duplicate group the
        first-occurring row is the group's representative.
    inverse:
        ``(n_rows,)`` int64 map from each row to its group, so that
        ``outputs[representatives][inverse]`` reconstructs per-row
        outputs -- the scatter applied by the inference engine.
    """

    representatives: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        if self.inverse.size and self.representatives.size == 0:
            raise ConfigurationError("non-empty inverse needs representatives")

    @property
    def n_rows(self) -> int:
        """Total number of indexed rows."""
        return int(self.inverse.shape[0])

    @property
    def n_unique(self) -> int:
        """Number of duplicate groups (unique cells)."""
        return int(self.representatives.shape[0])

    @property
    def unique_ratio(self) -> float:
        """Fraction of rows that are unique (1.0 means no duplicates)."""
        return self.n_unique / self.n_rows if self.n_rows else 1.0

    def scatter(self, representative_outputs: np.ndarray) -> np.ndarray:
        """Expand per-representative outputs to per-row outputs."""
        return np.take(representative_outputs, self.inverse, axis=0)

    def subset(self, indices: np.ndarray) -> DedupIndex:
        """The index restricted to a row subset, re-numbered to it.

        Duplicate groups are preserved exactly: two subset rows share a
        group iff they shared one in the parent, and each surviving
        group's representative is its first occurrence *within the
        subset*.  Vectorised (no per-row Python loop), so splits stay
        cheap on large tables.
        """
        indices = np.asarray(indices)
        parent_groups = self.inverse[indices]
        _, first, inverse = np.unique(parent_groups, return_index=True,
                                      return_inverse=True)
        return DedupIndex(representatives=first.astype(np.int64),
                          inverse=inverse.astype(np.int64).reshape(-1))

    def length_order(self, lengths: np.ndarray) -> np.ndarray:
        """Representatives' positions sorted by their sequence length.

        The stable argsort is computed once per (index, lengths-array)
        pair and memoised on the index, so repeated prediction calls over
        the same encoded cells (the serving loop) never re-sort.
        """
        cached = self.__dict__.get("_length_order")
        if cached is not None and cached[0] is lengths:
            return cached[1]
        order = np.argsort(np.asarray(lengths).reshape(-1)[self.representatives],
                           kind="stable")
        object.__setattr__(self, "_length_order", (lengths, order))
        return order


def build_dedup_index(features: Mapping[str, np.ndarray]) -> DedupIndex:
    """Group feature rows that are byte-identical across *all* features.

    Rows are compared on the raw bytes of every feature array (character
    indices, attribute ids, normalised lengths, ...), so two rows fall in
    the same group only when the model is guaranteed to produce the same
    output for both.  Runs vectorised: one byte-view concatenation plus
    one ``np.unique`` over structured rows.
    """
    if not features:
        raise ConfigurationError("at least one feature array is required")
    n_rows = {name: int(arr.shape[0]) for name, arr in features.items()}
    if len(set(n_rows.values())) > 1:
        raise ConfigurationError(
            f"feature arrays disagree on the number of rows: {n_rows}"
        )
    n = next(iter(n_rows.values()))
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return DedupIndex(representatives=empty, inverse=empty.copy())
    parts = []
    for name in sorted(features):
        arr = np.ascontiguousarray(features[name]).reshape(n, -1)
        parts.append(arr.view(np.ubyte).reshape(n, -1))
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    keys = np.ascontiguousarray(keys)
    rows = keys.view([("bytes", np.ubyte, keys.shape[1])]).reshape(n)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return DedupIndex(representatives=first.astype(np.int64),
                      inverse=inverse.astype(np.int64).reshape(-1))
