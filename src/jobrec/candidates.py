"""Candidate generation: nine per-user rankings merged with provenance.

Each generator emits at most `cap` active items as a ranked list. The two
content-knn generators each produce four sub-rankings (candidate field
crossed with source field), so a merged list carries up to 15 rank slots
per item. Inactive items are filtered before capping, which keeps every
slot's ranks dense in 1..cap. The merged lists of many users form one
`CandidateTable`: item ids and a (pairs x 15) rank matrix, user by user.
"""

from __future__ import annotations

from enum import IntEnum
from functools import cached_property
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataio import (ID, Cell, _column_runs, _id, _int64, _int_column, _raise_first_bad_row,
                     _write_tsv)
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
    rank = _int64(raw)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return rank


# a blank cell and the plain spellings of ranks 1-255, read by lookup; the
# loader parses every other cell with `int`
_RANK_TEXT = {"": 0, **{str(rank): rank for rank in range(1, 256)}}

# candidate file columns; a blank rank means the slot did not rank the item
_CANDIDATE_COLUMNS = {"user_id": ("user_id", ID), "item_id": ("item_id", ID),
                      **{col: (col, Cell(_rank, str)) for col in SLOT_NAMES}}


class CandidateList:
    """One user's rows of a `CandidateTable`: item ids in merge order and
    their (items x 15) slot ranks, 0 where the slot did not rank the item."""

    def __init__(self, user_id: int, item_ids: np.ndarray, slot_ranks: np.ndarray) -> None:
        self.user_id = user_id
        self.item_ids = item_ids
        self.slot_ranks = slot_ranks

    def items(self) -> list[int]:
        return self.item_ids.tolist()

    def __len__(self) -> int:
        return len(self.item_ids)

    def __contains__(self, item_id: int) -> bool:
        return bool((self.item_ids == item_id).any())

    @property
    def ranks(self) -> dict[int, dict[str, int]]:
        """item -> slot -> rank as nested dicts, the form the test oracles
        build; no pipeline stage reads it."""
        return {item: {SLOT_NAMES[s]: r for s, r in enumerate(row) if r}
                for item, row in zip(self.item_ids.tolist(), self.slot_ranks.tolist())}


class CandidateTable(Mapping[int, CandidateList]):
    """Merged candidates of many users as one rank table.

    User `user_ids[k]` owns rows `ptr[k]:ptr[k + 1]`, in merge order.
    `item_ids` is int64 and `ranks` is (rows x 15) in the smallest unsigned
    dtype that holds the largest rank, 0 where a slot did not rank the item.
    Indexing by user id gives a `CandidateList` view of that user's rows.
    """

    def __init__(self, user_ids, ptr, item_ids, ranks) -> None:
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        ranks = np.asarray(ranks).reshape(len(self.item_ids), len(SLOT_NAMES))
        self.ranks = ranks.astype(np.min_scalar_type(ranks.max(initial=0)), copy=False)
        self._user_index = dict(zip(self.user_ids.tolist(), range(len(self.user_ids))))
        if len(self._user_index) != len(self.user_ids):
            raise ValueError("a user owns more than one run of rows")

    def __getitem__(self, user_id: int) -> CandidateList:
        k = self._user_index[user_id]
        rows = slice(self.ptr[k], self.ptr[k + 1])
        return CandidateList(user_id, self.item_ids[rows], self.ranks[rows])

    def __iter__(self):
        return iter(self._user_index)

    def __len__(self) -> int:
        return len(self._user_index)

    @cached_property
    def _pair_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(distinct item ids, sorted row keys, the row of each sorted key),
        a row's key being its user's position times the number of distinct
        items plus its item's position among them."""
        vocab, code = np.unique(self.item_ids, return_inverse=True)
        keys = np.repeat(np.arange(len(self.user_ids)), np.diff(self.ptr)) * len(vocab) + code
        order = np.argsort(keys)
        return vocab, keys[order], order

    def rows_of(self, users: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """The table row of each (users[k], items[k]) pair; `ValueError` at
        the first pair whose user has no list or whose item is not in it."""
        owner = np.fromiter(map(self._user_index.get, users, repeat(-1)), np.int64, len(users))
        items = np.asarray(items, dtype=np.int64)
        vocab, keys, order = self._pair_keys
        found = (owner >= 0) & (len(vocab) > 0)
        at = np.zeros(len(items), dtype=np.int64)
        if len(vocab):  # an empty table holds no pair
            code = np.searchsorted(vocab, items).clip(max=len(vocab) - 1)
            key = owner * len(vocab) + code
            at = np.searchsorted(keys, key).clip(max=len(keys) - 1)
            found &= (vocab[code] == items) & (keys[at] == key)
        if not found.all():
            k = int(np.argmin(found))
            if owner[k] < 0:
                raise ValueError(f"user {users[k]} has no candidate list")
            raise ValueError(f"pair ({users[k]}, {items[k]}) is not in the candidate list")
        return order[at]


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
        if both.shape[2]:
            cross = (both.astype(np.float32)
                     @ both[::-1, act].astype(np.float32).transpose(0, 2, 1)).astype(dtype)
        else:  # no token is in both fields: every cross-field overlap is 0
            cross = np.zeros((2, both.shape[1], len(act)), dtype=dtype)
        self._overlap = np.concatenate([same[0][:, act], *cross, same[1][:, act]], axis=1)
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
        """The user's 15 rankings merged: items in order of first appearance
        over the slots in `SLOT_NAMES` order, each with its rank per slot."""
        if user_id not in self.dataset.users:
            raise ValueError(f"user {user_id} is not in the user table")
        rankings = [
            self.gen_recent_interactions(user_id),
            self.gen_recent_impressions(user_id),
            self.gen_similar_user_items(user_id, "interactions"),
            self.gen_similar_user_items(user_id, "impressions"),
            *self.gen_content_knn(user_id, "interactions").values(),
            *self.gen_content_knn(user_id, "impressions").values(),
            self.gen_jobroles_match(user_id, "tags"),
            self.gen_jobroles_match(user_id, "title"),
            self.gen_popular(),
        ]
        lens = np.fromiter(map(len, rankings), np.int64, len(rankings))
        flat = np.fromiter(chain.from_iterable(rankings), np.int64, lens.sum())
        items, first, row = np.unique(flat, return_index=True, return_inverse=True)
        merged = np.argsort(first)  # the distinct items in order of first appearance
        ranks = np.zeros((len(items), len(SLOT_NAMES)), dtype=np.min_scalar_type(self.cap))
        ranks[np.argsort(merged)[row], np.repeat(np.arange(len(lens)), lens)] = (
            np.arange(1, len(flat) + 1) - np.repeat(np.cumsum(lens) - lens, lens))
        return CandidateList(user_id, items[merged], ranks)

    def generate_all(self, user_ids: Iterable[int]) -> CandidateTable:
        """`generate` once per distinct user, stacked into one table in order
        of first appearance."""
        lists = [self.generate(u) for u in dict.fromkeys(user_ids)]
        return CandidateTable(
            [cl.user_id for cl in lists], np.cumsum([0, *map(len, lists)]),
            np.concatenate([np.empty(0, np.int64), *(cl.item_ids for cl in lists)]),
            np.concatenate([np.empty((0, len(SLOT_NAMES)), np.uint8),
                            *(cl.slot_ranks for cl in lists)]))


def coverage(candidates: CandidateTable, ground_truth: Mapping[int, set[int]]) -> float:
    """Fraction of held-out positives present in the merged candidate lists."""
    total = sum(len(items) for items in ground_truth.values())
    if total == 0:
        raise ValueError("ground truth is empty, coverage is undefined")
    return sum(len(items & set(candidates[u].items()))
               for u, items in ground_truth.items() if u in candidates) / total


# ------------------------------------------------------------------- file io

# rows `save_candidates` formats at a time
_SAVE_ROWS = 1 << 12


def save_candidates(candidates: CandidateTable, path: str | Path, provenance=None) -> None:
    """One row per table row, formatted column by column in runs of rows."""
    values = np.unique(candidates.ranks)
    text = np.array([str(v) if v else "" for v in values.tolist()], dtype=object)
    users = np.repeat(candidates.user_ids, np.diff(candidates.ptr))

    def rows():
        for lo in range(0, len(users), _SAVE_ROWS):
            run = slice(lo, lo + _SAVE_ROWS)
            yield from zip(map(str, users[run].tolist()),
                           map(str, candidates.item_ids[run].tolist()),
                           *text[np.searchsorted(values, candidates.ranks[run].T)].tolist())

    _write_tsv(Path(path), list(_CANDIDATE_COLUMNS), rows(), provenance)


def load_candidates(path: str | Path) -> CandidateTable:
    """The table of a candidates file, each user's rows in file order and
    users in order of first appearance. Each column is parsed in one pass
    per run of rows; only when a cell fails, or a row ranks nothing or
    repeats a pair, are the rows scanned for the `file:line` of the first
    bad one."""
    path = Path(path)
    runs = [(np.empty(0, np.int64),) * 2 + (np.empty((0, len(SLOT_NAMES)), np.uint8),)]
    try:
        for users, items, *slots in _column_runs(path, _CANDIDATE_COLUMNS):
            cells = list(chain.from_iterable(slots))  # slot by slot
            ranks = np.fromiter(map(_RANK_TEXT.get, cells, repeat(-1)), np.int64, len(cells))
            other = ranks < 0
            ranks[other] = _int_column(compress(cells, other))
            if (ranks[other] < 1).any():
                raise ValueError("a rank is below 1")
            ranks = ranks.astype(np.min_scalar_type(ranks.max(initial=0)))
            runs.append((_int_column(users), _int_column(items), ranks.reshape(len(slots), -1).T))
        user_ids, item_ids, ranks = map(np.concatenate, zip(*runs))
        _, first, inverse = np.unique(user_ids, return_index=True, return_inverse=True)
        group = first[inverse]  # each row's user, named by the user's first row
        pairs = np.lexsort((item_ids, group))
        if ((user_ids < 0).any() or (item_ids < 0).any() or not ranks.any(axis=1).all()
                or ((np.diff(group[pairs]) == 0) & (np.diff(item_ids[pairs]) == 0)).any()):
            raise ValueError("a negative id, an unranked row or a repeated pair")
    except (ValueError, OverflowError):
        seen: set[tuple[int, int]] = set()

        def check(cells: list[str]) -> None:
            pair = (_id(cells[0]), _id(cells[1]))
            if not [rank for rank in map(_rank, cells[2:]) if rank]:
                raise ValueError(f"item {pair[1]} has no rank in any slot")
            if pair in seen:
                raise ValueError(f"duplicate candidate: user {pair[0]}, item {pair[1]}")
            seen.add(pair)

        _raise_first_bad_row(path, _CANDIDATE_COLUMNS, check)
    order = np.argsort(group, kind="stable")
    starts = np.flatnonzero(np.diff(group[order], prepend=-1))
    return CandidateTable(user_ids[order[starts]], [*starts.tolist(), len(order)],
                          item_ids[order], ranks[order])
