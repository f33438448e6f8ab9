"""Core entity types: users, items, interaction/impression logs.

All ids are integers. Event logs are int64 column tables; the
`Interaction` and `Impression` records build them in memory and are
what iterating a table yields. Multi-valued fields (tags, title terms,
job roles) are frozensets of integer token ids. Missing categorical attributes are
stored as 0, missing coordinates/created_at as None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from operator import attrgetter

import numpy as np

WEEK_SECONDS = 7 * 24 * 3600
DAY_SECONDS = 24 * 3600


class InteractionKind(IntEnum):
    CLICK = 1
    BOOKMARK = 2
    REPLY = 3
    DELETE = 4


# kinds that count as a positive signal; DELETE is the negative one
POSITIVE_KINDS = frozenset(
    {InteractionKind.CLICK, InteractionKind.BOOKMARK, InteractionKind.REPLY}
)


@dataclass(frozen=True, slots=True)
class User:
    id: int
    jobroles: frozenset[int] = frozenset()
    career_level: int = 0
    discipline_id: int = 0
    industry_id: int = 0
    country: int = 0
    region: int = 0
    experience_n_entries_class: int = 0
    experience_years_experience: int = 0
    experience_years_in_current: int = 0
    edu_degree: int = 0
    edu_fieldofstudies: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class Item:
    id: int
    title: frozenset[int] = frozenset()
    tags: frozenset[int] = frozenset()
    career_level: int = 0
    discipline_id: int = 0
    industry_id: int = 0
    country: int = 0
    region: int = 0
    employment: int = 0
    latitude: float | None = None
    longitude: float | None = None
    created_at: int | None = None
    active_during_test: bool = False

    def __post_init__(self) -> None:
        if (self.latitude is None) != (self.longitude is None):
            raise ValueError(
                f"item {self.id}: latitude and longitude must be both present or both missing"
            )
        if self.latitude is not None and not (
            math.isfinite(self.latitude) and math.isfinite(self.longitude)
        ):
            raise ValueError(f"item {self.id}: latitude and longitude must be finite, got "
                             f"{self.latitude}, {self.longitude}")


@dataclass(frozen=True, slots=True)
class Interaction:
    user_id: int
    item_id: int
    kind: InteractionKind
    timestamp: int

    @property
    def week(self) -> int:
        """Epoch week bucket of the event."""
        return self.timestamp // WEEK_SECONDS


@dataclass(frozen=True, slots=True)
class Impression:
    """One shown item. A raw impressions row expands to one of these per item."""

    user_id: int
    item_id: int
    week: int


_EMPTY: frozenset[int] = frozenset()
_POSITIVE_CODES = sorted(map(int, POSITIVE_KINDS))


class EventTable:
    """One event table as read-only int64 columns in file order, one column
    per field of the table's record type, under the field's name.

    Indexing with an int yields one record, with a slice, a mask or an
    index array a table of those rows; iterating yields records in order.
    A table equals another table with equal columns, and a list or tuple
    of equal records.
    """

    __slots__ = ()

    def __init__(self, *columns) -> None:
        for name, column in zip(self.__slots__, columns, strict=True):
            column = np.asarray(column, dtype=np.int64)
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, events):
        """`events` itself when it is a table of this type, else a table of
        its records."""
        if isinstance(events, cls):
            return events
        events = list(events)
        return cls(*(np.fromiter(map(attrgetter(name), events), np.int64, len(events))
                     for name in cls.__slots__))

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._make(*(column[key].item() for column in self._columns()))
        return type(self)(*(column[key] for column in self._columns()))

    def __iter__(self):
        return map(self._make, *(column.tolist() for column in self._columns()))

    def __eq__(self, other) -> bool:
        if isinstance(other, EventTable):
            return type(other) is type(self) and all(
                np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class InteractionTable(EventTable):
    __slots__ = ("user_id", "item_id", "kind", "timestamp")

    @staticmethod
    def _make(user_id: int, item_id: int, kind: int, timestamp: int) -> Interaction:
        return Interaction(user_id, item_id, InteractionKind(kind), timestamp)

    def positive(self) -> np.ndarray:
        """Mask of the rows whose kind counts as positive."""
        return np.isin(self.kind, _POSITIVE_CODES)


class ImpressionTable(EventTable):
    __slots__ = ("user_id", "item_id", "week")
    _make = Impression


def _spans(user: np.ndarray) -> tuple[list[int], list[int]]:
    """The users of rows grouped by user, ascending, and each one's first
    row, then the row count."""
    users, starts = np.unique(user, return_index=True)
    return users.tolist(), starts.tolist() + [len(user)]


def _item_sets(user: np.ndarray, item: np.ndarray) -> dict[int, frozenset[int]]:
    """Each user's item set, of rows grouped by user."""
    users, bounds = _spans(user)
    distinct, codes = np.unique(item, return_inverse=True)
    # the sets share one int object per item id instead of one per row
    items = list(map(distinct.tolist().__getitem__, codes.tolist()))
    return {u: frozenset(items[a:b]) for u, a, b in zip(users, bounds, bounds[1:])}


class EventLog:
    """Interaction and impression tables, in file order and per user.

    Each user's events are in time order (a stable sort, so ties keep file
    order): interactions by timestamp, impressions by week. The per-user
    item sets (positive, deleted, shown) are built once, on the first
    query; lookups for unknown users return empty. Everything per item is
    derived by the variant's `DatasetIndex`.
    """

    def __init__(self, interactions, impressions) -> None:
        self.interactions = ints = InteractionTable.of(interactions)
        self.impressions = imps = ImpressionTable.of(impressions)
        self.max_timestamp: int = int(ints.timestamp.max()) if len(ints) else 0
        self.max_impression_week: int = int(imps.week.max()) if len(imps) else 0

        # row orders that group rows by user (ascending), each user's in time
        # order; a user's rows are one slice of the order
        self._int_order = np.lexsort((ints.timestamp, ints.user_id))
        self._imp_order = np.lexsort((imps.week, imps.user_id))
        self._int_rows, self._imp_rows = (
            {u: slice(a, b) for u, a, b in zip(users, bounds, bounds[1:])}
            for users, bounds in (_spans(ints.user_id[self._int_order]),
                                  _spans(imps.user_id[self._imp_order])))

    @cached_property
    def _item_sets(self) -> tuple[dict[int, frozenset[int]], ...]:
        """Per user, the positive, deleted and shown item sets; built on the
        first query, since a variant that is only split or saved asks none."""
        by_ints, by_imps = self.interactions_by_user(), self.impressions[self._imp_order]
        pos, neg = by_ints.positive(), by_ints.kind == InteractionKind.DELETE
        return (_item_sets(by_ints.user_id[pos], by_ints.item_id[pos]),
                _item_sets(by_ints.user_id[neg], by_ints.item_id[neg]),
                _item_sets(by_imps.user_id, by_imps.item_id))

    def interactions_by_user(self) -> InteractionTable:
        """All interactions grouped by user (ascending), each user's in time
        order."""
        return self.interactions[self._int_order]

    def interactions_of(self, user_id: int) -> InteractionTable:
        """The user's interactions in time order."""
        return self.interactions[self._int_order[self._int_rows.get(user_id, slice(0))]]

    def impressions_of(self, user_id: int) -> ImpressionTable:
        """The user's impressions in week order."""
        return self.impressions[self._imp_order[self._imp_rows.get(user_id, slice(0))]]

    def int_items(self, user_id: int) -> frozenset[int]:
        """Items the user interacted with positively (click/bookmark/reply)."""
        return self._item_sets[0].get(user_id, _EMPTY)

    def del_items(self, user_id: int) -> frozenset[int]:
        return self._item_sets[1].get(user_id, _EMPTY)

    def imp_items(self, user_id: int) -> frozenset[int]:
        return self._item_sets[2].get(user_id, _EMPTY)


@dataclass
class Dataset:
    """A full challenge-format dataset: entity tables plus the event log."""

    users: dict[int, User]
    items: dict[int, Item]
    events: EventLog
    target_users: list[int]
    row_counts: dict[str, int] = field(default_factory=dict)

    @property
    def interactions(self) -> InteractionTable:
        return self.events.interactions

    @property
    def impressions(self) -> ImpressionTable:
        return self.events.impressions

    @cached_property
    def index(self):
        """The variant's shared read-only `DatasetIndex`, built on first use."""
        from .index import DatasetIndex

        return DatasetIndex(self)


# ground truth: target user -> non-empty set of held-out positively
# interacted items; users without positives are omitted entirely
GroundTruth = dict[int, set[int]]
