"""Candidate generation: nine per-user rankings merged with provenance.

Each generator emits at most `cap` active items as a ranked list. The two
content-knn generators each produce four sub-rankings (candidate field
crossed with source field), so a merged list carries up to 15 rank slots
per item. Inactive items are filtered before capping, which keeps every
slot's ranks dense in 1..cap.
"""

from __future__ import annotations

from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .dataio import INT, Cell, DataFormatError, _read_table, _row_error, _write_tsv
from .entities import Dataset
from .index import TOKEN_FIELDS
from .similarity import SparseSetIndex

DEFAULT_CAP = 60
DEFAULT_NEIGHBORS = 60


class GeneratorId(IntEnum):
    RECENT_INTERACTIONS = 1
    RECENT_IMPRESSIONS = 2
    SIMILAR_USER_INTERACTIONS = 3
    SIMILAR_USER_IMPRESSIONS = 4
    CONTENT_KNN_INTERACTIONS = 5
    CONTENT_KNN_IMPRESSIONS = 6
    JOBROLES_TAGS = 7
    JOBROLES_TITLE = 8
    GLOBAL_POPULAR = 9


# content-knn sub-rankings: (candidate item field, source item field)
_KNN_VARIANTS = [
    ("tags", "tags"),
    ("title", "title"),
    ("tags", "title"),
    ("title", "tags"),
]

# fixed slot order; column names double as feature names downstream
SLOT_COLUMNS: list[tuple[GeneratorId, str]] = (
    [
        (GeneratorId.RECENT_INTERACTIONS, "recent_interactions"),
        (GeneratorId.RECENT_IMPRESSIONS, "recent_impressions"),
        (GeneratorId.SIMILAR_USER_INTERACTIONS, "similar_user_interactions"),
        (GeneratorId.SIMILAR_USER_IMPRESSIONS, "similar_user_impressions"),
    ]
    + [
        (GeneratorId.CONTENT_KNN_INTERACTIONS, f"content_int_{cf}_{sf}")
        for cf, sf in _KNN_VARIANTS
    ]
    + [
        (GeneratorId.CONTENT_KNN_IMPRESSIONS, f"content_imp_{cf}_{sf}")
        for cf, sf in _KNN_VARIANTS
    ]
    + [
        (GeneratorId.JOBROLES_TAGS, "jobroles_tags"),
        (GeneratorId.JOBROLES_TITLE, "jobroles_title"),
        (GeneratorId.GLOBAL_POPULAR, "global_popular"),
    ]
)

SLOT_NAMES: list[str] = [col for _, col in SLOT_COLUMNS]


def _rank(raw: str) -> int | None:
    if not raw:
        return None
    rank = int(raw)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return rank


# candidate file columns; a blank rank means the slot did not rank the item
_CANDIDATE_COLUMNS = {"user_id": ("user_id", INT), "item_id": ("item_id", INT),
                      **{col: (col, Cell(_rank, str)) for col in SLOT_NAMES}}


class CandidateList:
    """Merged candidates of one user: item -> slot -> 1-based rank."""

    def __init__(self, user_id: int) -> None:
        self.user_id = user_id
        self.ranks: dict[int, dict[str, int]] = {}

    def add(self, item_id: int, slot: str, rank: int) -> None:
        self.ranks.setdefault(item_id, {})[slot] = rank

    def items(self) -> list[int]:
        return list(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self.ranks


class CandidateGenerator:
    """All nine generators over one dataset variant.

    Item rows, token indicators, user item sets, job-role tokens and the
    popularity and recency rankings come from the variant's shared
    `Dataset.index`; the constructor adds the content-knn overlap table.
    Only the per-user recency cache changes afterwards.
    """

    def __init__(
        self,
        dataset: Dataset,
        cap: int = DEFAULT_CAP,
        neighbor_count: int = DEFAULT_NEIGHBORS,
    ) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        if neighbor_count < 0:
            raise ValueError(f"neighbor_count must be >= 0, got {neighbor_count}")
        self.dataset = dataset
        self.events = dataset.events
        self.index = index = dataset.index
        self.cap = cap
        self.neighbor_count = neighbor_count

        self.active_ids = index.active_ids

        self._neighbors = {source: SparseSetIndex(index.item_users[src][0], index.user_ids)
                           for source, src in (("interactions", "int"), ("impressions", "imp"))}
        # (items, 4A): each item's token overlap with each active item, one block
        # per (source field, candidate field); cross-field blocks need only the
        # tokens both fields hold, summed exactly in float32 below 2**24
        act, same = index.active_rows, index.token_overlap
        both = index.tokens[:, :, index.tokens.any(axis=1).all(axis=0)]
        bound, dtype = both.sum(axis=2).max(initial=0), np.result_type(*same)
        assert bound < 2**24 and bound <= np.iinfo(dtype).max, (bound, dtype)
        cross = both.astype(np.float32) @ both[::-1, act].astype(np.float32).transpose(0, 2, 1)
        self._overlap = np.concatenate([same[0][:, act], *cross.astype(dtype), same[1][:, act]],
                                       axis=1)
        self._popular = index.popular[:cap].tolist()
        self._recent_cache: dict[tuple[int, str], list[int]] = {}

    # ------------------------------------------------------------ token side

    def _rank_scored(self, scores: np.ndarray, cap: int) -> list[int]:
        """Order active items by (score desc, id asc), keep score >= 1."""
        idx = np.nonzero(scores >= 1)[0]
        if len(idx) == 0:
            return []
        # signed before negating: scores may be unsigned counts
        order = np.lexsort((self.active_ids[idx], -scores[idx].astype(np.int64)))
        return [int(i) for i in self.active_ids[idx[order[:cap]]]]

    def _knn_scores(self, source_items: Iterable[int]) -> np.ndarray:
        """Max token overlap of each active item with the source items, as
        (source field, candidate field, A): the column-wise max of the source
        items' rows of `_overlap`, a gather with no per-user product."""
        rows = [self.index.row_of[i] for i in source_items]
        if not rows:
            return np.zeros((2, 2, len(self.active_ids)), dtype=self._overlap.dtype)
        return self._overlap[rows].max(axis=0).reshape(2, 2, -1)

    # ------------------------------------------------------------ generators

    def recent_items(self, user_id: int, source: str) -> list[int]:
        """`DatasetIndex.recent_items`, memoized for neighbour expansion."""
        key = (user_id, source)
        ranked = self._recent_cache.get(key)
        if ranked is None:
            ranked = self._recent_cache[key] = self.index.recent_items(user_id, source)
        return ranked

    def gen_recent_interactions(self, user_id: int) -> list[int]:
        return self.recent_items(user_id, "interactions")[: self.cap]

    def gen_recent_impressions(self, user_id: int) -> list[int]:
        return self.recent_items(user_id, "impressions")[: self.cap]

    def gen_similar_user_items(self, user_id: int, source: str) -> list[int]:
        neighbors, _ = self._neighbors[source].top_k_jaccard(user_id, self.neighbor_count)
        out: list[int] = []
        seen: set[int] = set()
        for nb in neighbors.tolist():
            for item in self.recent_items(nb, source):
                if item in seen:
                    continue
                seen.add(item)
                out.append(item)
                if len(out) == self.cap:
                    return out
        return out

    def gen_content_knn(self, user_id: int, source: str) -> dict[str, list[int]]:
        """Four sub-rankings keyed by slot column name."""
        if source == "interactions":
            source_items = self.events.int_items(user_id)
            prefix = "content_int"
        else:
            source_items = self.events.imp_items(user_id)
            prefix = "content_imp"
        scores = self._knn_scores(source_items)
        return {
            f"{prefix}_{cf}_{sf}": self._rank_scored(
                scores[TOKEN_FIELDS.index(sf), TOKEN_FIELDS.index(cf)], self.cap
            )
            for cf, sf in _KNN_VARIANTS
        }

    def gen_jobroles_match(self, user_id: int, field: str) -> list[int]:
        index = self.index
        ptr, cols = index.role_tokens
        r = index.user_row[user_id]
        tokens = index.tokens[TOKEN_FIELDS.index(field)][:, cols[ptr[r]:ptr[r + 1]]]
        return self._rank_scored(tokens.sum(axis=1, dtype=np.int64)[index.active_rows], self.cap)

    def gen_popular(self) -> list[int]:
        return self._popular

    # --------------------------------------------------------------- merging

    def generate(self, user_id: int) -> CandidateList:
        if user_id not in self.dataset.users:
            raise ValueError(f"user {user_id} is not in the user table")
        merged = CandidateList(user_id)
        ranks = merged.ranks
        for slot, ranking in [
            ("recent_interactions", self.gen_recent_interactions(user_id)),
            ("recent_impressions", self.gen_recent_impressions(user_id)),
            ("similar_user_interactions", self.gen_similar_user_items(user_id, "interactions")),
            ("similar_user_impressions", self.gen_similar_user_items(user_id, "impressions")),
            *self.gen_content_knn(user_id, "interactions").items(),
            *self.gen_content_knn(user_id, "impressions").items(),
            ("jobroles_tags", self.gen_jobroles_match(user_id, "tags")),
            ("jobroles_title", self.gen_jobroles_match(user_id, "title")),
            ("global_popular", self.gen_popular()),
        ]:
            for rank, item in enumerate(ranking, start=1):
                ranks.setdefault(item, {})[slot] = rank
        return merged

    def generate_all(self, user_ids: Iterable[int]) -> dict[int, CandidateList]:
        return {u: self.generate(u) for u in user_ids}


def coverage(candidates: Mapping[int, CandidateList], ground_truth: Mapping[int, set[int]]) -> float:
    """Fraction of held-out positives present in the merged candidate lists."""
    total = sum(len(items) for items in ground_truth.values())
    if total == 0:
        raise ValueError("ground truth is empty, coverage is undefined")
    hits = 0
    for u, items in ground_truth.items():
        cl = candidates.get(u)
        if cl is None:
            continue
        hits += sum(1 for i in items if i in cl)
    return hits / total


# ------------------------------------------------------------------- file io


def save_candidates(
    candidates: Mapping[int, CandidateList], path: str | Path, provenance=None
) -> None:
    def rows():
        for u, cl in candidates.items():
            for item, ranks in cl.ranks.items():
                yield [str(u), str(item)] + [
                    str(ranks[col]) if col in ranks else "" for col in SLOT_NAMES
                ]

    _write_tsv(Path(path), list(_CANDIDATE_COLUMNS), rows(), provenance)


def load_candidates(path: str | Path) -> dict[int, CandidateList]:
    path = Path(path)
    out: dict[int, CandidateList] = {}
    for lineno, cells in _read_table(path, _CANDIDATE_COLUMNS):
        try:
            uid, item = int(cells[0]), int(cells[1])
            ranks = {slot: _rank(raw) for slot, raw in zip(SLOT_NAMES, cells[2:]) if raw}
            if not ranks:
                raise ValueError(f"item {item} has no rank in any slot")
        except ValueError as exc:
            raise _row_error(path, lineno, _CANDIDATE_COLUMNS, cells, exc) from None
        cl = out.get(uid)
        if cl is None:
            cl = out[uid] = CandidateList(uid)
        elif item in cl.ranks:
            raise DataFormatError(f"{path}:{lineno}: duplicate candidate: user {uid}, item {item}")
        cl.ranks[item] = ranks
    return out
