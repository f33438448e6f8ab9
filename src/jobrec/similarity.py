"""Exact top-k Jaccard neighbours over a dense token x entity indicator.

Column c of the indicator holds the token set of entity `ids[c]` (users
over item rows, say). A query sums the indicator rows of the query
entity's tokens, which gives the exact intersection size with every
entity at once. Results are ordered by descending score with ties broken
by ascending entity id, and zero-score entities are never returned; the
top-k list for k is therefore always a prefix of the one for k+1.
"""

from __future__ import annotations

import numpy as np


class SparseSetIndex:
    """Jaccard queries over a given (tokens x entities) 0/1 indicator whose
    columns are the entities `ids`, in ascending id order."""

    def __init__(self, members: np.ndarray, ids: np.ndarray) -> None:
        self._members = members
        self._ids = np.asarray(ids, dtype=np.int64)
        self._sizes = members.sum(axis=0, dtype=np.int64)

    def top_k_jaccard(self, entity_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and exact Jaccard scores of the entity's top-k other entities;
        none for an entity with no tokens or one the index lacks."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        col = int(np.searchsorted(self._ids, entity_id))
        known = col < len(self._ids) and self._ids[col] == entity_id
        rows = np.flatnonzero(self._members[:, col]) if known else []
        if k == 0 or not len(rows):
            return np.empty(0, dtype=np.int64), np.empty(0)
        inter = self._members[rows].sum(axis=0, dtype=np.int64)
        inter[col] = 0
        # int64 / int64 is one correctly rounded division, as Python's int / int
        scores = inter / (len(rows) + self._sizes - inter)
        cols = np.flatnonzero(inter)
        order = cols[np.lexsort((self._ids[cols], -scores[cols]))[:k]]
        return self._ids[order], scores[order]
