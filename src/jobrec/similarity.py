"""Exact top-k set similarity over an inverted index.

One index maps entities (users or items) to token sets (item ids, user ids
or text/tag tokens). Queries enumerate only entities sharing at least one
token with the query set, so scoring is exact while skipping disjoint
entities. Results are ordered by descending score with ties broken by
ascending entity id, and zero-score entities are never returned; the top-k
list for k is therefore always a prefix of the one for k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse


@dataclass(frozen=True, slots=True)
class Neighbor:
    id: int
    score: float


def jaccard(a: Iterable[int] | frozenset[int], b: Iterable[int] | frozenset[int]) -> float:
    """|a & b| / |a | b| with the empty/empty case defined as 0."""
    sa = a if isinstance(a, (set, frozenset)) else set(a)
    sb = b if isinstance(b, (set, frozenset)) else set(b)
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


def _ranked(scores: dict[int, float], k: int) -> list[Neighbor]:
    order = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [Neighbor(eid, s) for eid, s in order[:k]]


class SparseSetIndex:
    """Forward and inverted views over entity -> token-set assignments."""

    def __init__(self, forward: Mapping[int, Iterable[int]]) -> None:
        self.forward: dict[int, frozenset[int]] = {
            eid: frozenset(tokens) for eid, tokens in forward.items()
        }
        self.inverted: dict[int, list[int]] = {}
        for eid in sorted(self.forward):
            for tok in self.forward[eid]:
                self.inverted.setdefault(tok, []).append(eid)

    def __len__(self) -> int:
        return len(self.forward)

    def tokens_of(self, entity_id: int) -> frozenset[int]:
        return self.forward.get(entity_id, frozenset())

    def _intersections(self, query: frozenset[int]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for tok in query:
            for eid in self.inverted.get(tok, ()):
                counts[eid] = counts.get(eid, 0) + 1
        return counts

    def overlap_scores(self, query_tokens: Iterable[int]) -> dict[int, int]:
        """Exact |query & tokens(e)| for every entity with a nonzero overlap."""
        return self._intersections(frozenset(query_tokens))

    def top_k_overlap(self, query_tokens: Iterable[int], k: int) -> list[Neighbor]:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        counts = self.overlap_scores(query_tokens)
        return _ranked({e: float(c) for e, c in counts.items()}, k)

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
        counts = self._intersections(qset)
        scores: dict[int, float] = {}
        qlen = len(qset)
        for eid, inter in counts.items():
            if eid == exclude:
                continue
            scores[eid] = inter / (qlen + len(self.forward[eid]) - inter)
        return _ranked(scores, k)


def shared_token_vocab(items: Mapping[int, object], ids: Iterable[int]) -> dict[int, int]:
    """Token -> dense column map over the union of item tags and title terms."""
    vocab: dict[int, int] = {}
    for iid in ids:
        it = items[iid]
        for tok in sorted(it.tags | it.title):
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


def token_csr(
    items: Mapping[int, object],
    ids: np.ndarray,
    field: str,
    vocab: Mapping[int, int],
) -> sparse.csr_matrix:
    """Binary item x token matrix for one field; rows follow `ids` order."""
    rows: list[int] = []
    cols: list[int] = []
    for r, iid in enumerate(ids):
        for tok in getattr(items[int(iid)], field):
            rows.append(r)
            cols.append(vocab[tok])
    data = np.ones(len(rows), dtype=np.int32)
    return sparse.csr_matrix((data, (rows, cols)), shape=(len(ids), max(len(vocab), 1)))


def indicator_matrix(sets: Sequence[Iterable[int]], col_of: Mapping[int, int]) -> np.ndarray:
    """Dense 0/1 uint8 matrix with one row per set and one column per id of `col_of`."""
    out = np.zeros((len(sets), len(col_of)), dtype=np.uint8)
    rows = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    out[rows, [col_of[m] for s in sets for m in s]] = 1
    return out


def user_interaction_index(event_log) -> SparseSetIndex:
    """user -> set of positively interacted items."""
    return SparseSetIndex(
        {u: event_log.int_items(u) for u in event_log.by_user_interactions if event_log.int_items(u)}
    )


def user_impression_index(event_log) -> SparseSetIndex:
    """user -> set of shown items."""
    return SparseSetIndex(
        {u: event_log.imp_items(u) for u in event_log.by_user_impressions}
    )

