"""Core entity types: users, items, interaction/impression logs.

All ids are integers. Multi-valued fields (tags, title terms, job roles)
are frozensets of integer token ids. Missing categorical attributes are
stored as 0, missing coordinates/created_at as None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

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


class EventLog:
    """Interaction and impression logs, grouped per user.

    Per-user lists are sorted by time (stable, so ties keep input order).
    The per-user item sets (positive, deleted, shown) are precomputed
    once; lookups for unknown users return empty. Everything per item is
    derived by the variant's `DatasetIndex`.
    """

    def __init__(self, interactions, impressions) -> None:
        self.interactions: list[Interaction] = list(interactions)
        self.impressions: list[Impression] = list(impressions)

        self.by_user_interactions: dict[int, list[Interaction]] = {}
        for ev in self.interactions:
            self.by_user_interactions.setdefault(ev.user_id, []).append(ev)
        for lst in self.by_user_interactions.values():
            lst.sort(key=lambda e: e.timestamp)

        self.by_user_impressions: dict[int, list[Impression]] = {}
        for im in self.impressions:
            self.by_user_impressions.setdefault(im.user_id, []).append(im)
        for lst in self.by_user_impressions.values():
            lst.sort(key=lambda e: e.week)

        self.max_timestamp: int = max((e.timestamp for e in self.interactions), default=0)
        self.max_impression_week: int = max((im.week for im in self.impressions), default=0)

        self._int_items: dict[int, frozenset[int]] = {}
        self._del_items: dict[int, frozenset[int]] = {}
        for u, evs in self.by_user_interactions.items():
            pos = frozenset(e.item_id for e in evs if e.kind in POSITIVE_KINDS)
            neg = frozenset(e.item_id for e in evs if e.kind == InteractionKind.DELETE)
            if pos:
                self._int_items[u] = pos
            if neg:
                self._del_items[u] = neg
        self._imp_items: dict[int, frozenset[int]] = {
            u: frozenset(im.item_id for im in lst)
            for u, lst in self.by_user_impressions.items()
        }

    def interactions_of(self, user_id: int) -> list[Interaction]:
        return self.by_user_interactions.get(user_id, [])

    def impressions_of(self, user_id: int) -> list[Impression]:
        return self.by_user_impressions.get(user_id, [])

    def int_items(self, user_id: int) -> frozenset[int]:
        """Items the user interacted with positively (click/bookmark/reply)."""
        return self._int_items.get(user_id, _EMPTY)

    def del_items(self, user_id: int) -> frozenset[int]:
        return self._del_items.get(user_id, _EMPTY)

    def imp_items(self, user_id: int) -> frozenset[int]:
        return self._imp_items.get(user_id, _EMPTY)


@dataclass
class Dataset:
    """A full challenge-format dataset: entity tables plus the event log."""

    users: dict[int, User]
    items: dict[int, Item]
    events: EventLog
    target_users: list[int]
    row_counts: dict[str, int] = field(default_factory=dict)

    @property
    def interactions(self) -> list[Interaction]:
        return self.events.interactions

    @property
    def impressions(self) -> list[Impression]:
        return self.events.impressions

    @cached_property
    def index(self):
        """The variant's shared read-only `DatasetIndex`, built on first use."""
        from .index import DatasetIndex

        return DatasetIndex(self)


# ground truth: target user -> non-empty set of held-out positively
# interacted items; users without positives are omitted entirely
GroundTruth = dict[int, set[int]]
