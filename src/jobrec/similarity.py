"""Exact top-k set similarity over a dense token x entity indicator.

One index maps entities (users or items) to token sets (item ids, user ids
or text/tag tokens). A query sums the indicator rows of its tokens, which
gives the exact intersection size with every entity at once. Results are
ordered by descending score with ties broken by ascending entity id, and
zero-score entities are never returned; the top-k list for k is therefore
always a prefix of the one for k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Neighbor:
    id: int
    score: float


class SparseSetIndex:
    """Forward sets plus a (tokens x entities) uint8 indicator over them.

    Columns follow ascending entity id.
    """

    def __init__(self, forward: Mapping[int, Iterable[int]]) -> None:
        self.forward: dict[int, frozenset[int]] = {
            eid: frozenset(tokens) for eid, tokens in forward.items()
        }
        self._ids = np.array(sorted(self.forward), dtype=np.int64)
        self._col_of = {int(e): c for c, e in enumerate(self._ids)}
        sets = [self.forward[int(e)] for e in self._ids]
        self._row_of = {t: r for r, t in enumerate(sorted(set().union(*sets)))}
        self._members = indicator_matrix(sets, self._row_of).T.copy()
        self._sizes = np.array([len(s) for s in sets], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.forward)

    def _intersections(self, query: Iterable[int]) -> np.ndarray:
        rows = [self._row_of[t] for t in query if t in self._row_of]
        return self._members[rows].sum(axis=0, dtype=np.int64)

    def _ranked(self, scores: np.ndarray, k: int) -> list[Neighbor]:
        cols = np.flatnonzero(scores)
        order = cols[np.lexsort((self._ids[cols], -scores[cols]))[:k]]
        return [Neighbor(int(e), float(s)) for e, s in zip(self._ids[order], scores[order])]

    def top_k_overlap(self, query_tokens: Iterable[int], k: int) -> list[Neighbor]:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        return self._ranked(self._intersections(frozenset(query_tokens)), k)

    def top_k_jaccard(
        self,
        query: int | Iterable[int],
        k: int,
        exclude: int | None = None,
    ) -> list[Neighbor]:
        """Top-k entities by Jaccard against a query entity or explicit set.

        Passing an entity id uses that entity's own token set and excludes
        the entity itself from the results.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if isinstance(query, int):
            exclude = query if exclude is None else exclude
            qset = self.forward.get(query, frozenset())
        else:
            qset = frozenset(query)
        if k == 0 or not qset:
            return []
        inter = self._intersections(qset)
        if exclude in self._col_of:
            inter[self._col_of[exclude]] = 0
        # int64 / int64 is one correctly rounded division, as Python's int / int
        return self._ranked(inter / (len(qset) + self._sizes - inter), k)


def indicator_matrix(sets: Sequence[Iterable[int]], col_of: Mapping[int, int]) -> np.ndarray:
    """Dense 0/1 uint8 matrix with one row per set and one column per id of `col_of`."""
    out = np.zeros((len(sets), len(col_of)), dtype=np.uint8)
    rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    out[rows, [col_of[m] for s in sets for m in s]] = 1
    return out
