"""One read-only index per dataset variant, shared by every stage.

Candidates, features and the baselines read a dataset variant through
`Dataset.index`, so item row order, the tags/title vocabulary, the
popularity ranking and the per-user recency ranking are decided here
only. Arrays and maps are read-only: a stray in-place write raises
instead of corrupting another consumer.
The count tables and per-user parts are built on first use:
`token_overlap` by candidates or features, whichever reads it first, the
rest by features only. Events name only users and items of the variant's
own tables: the index rejects a variant that breaks this.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .entities import DAY_SECONDS, WEEK_SECONDS, Dataset, InteractionKind, POSITIVE_KINDS
from .similarity import indicator_matrix

SENTINEL = -1.0
GEO_SENTINEL = -999.0
CLUSTER_WINDOW_SECONDS = 600

ATTRS = ("career_level", "discipline_id", "industry_id", "country", "region")
TOKEN_FIELDS = ("tags", "title")


def _frozen(a) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def shared_token_vocab(items: list) -> dict[int, int]:
    """Token -> column over the union of tags and title terms, numbered in
    order of first appearance (items in the given order, tokens ascending)."""
    vocab: dict[int, int] = {}
    for it in items:
        for tok in sorted(it.tags | it.title):
            vocab.setdefault(tok, len(vocab))
    return vocab


def _count_product(a: np.ndarray, bound: int) -> np.ndarray:
    """a @ a.T for a 0/1 matrix, as exact counts in the smallest unsigned
    dtype that holds `bound`, a bound on every entry (the largest row sum).

    float32 products sum integers exactly below 2**24; positions in the
    table fit int32. The product runs over blocks of 256 rows, upper
    triangle only, so no float32 copy of `a` or of the table is made.
    """
    assert 0 <= bound < 2**24 and len(a) ** 2 < 2**31, (bound, len(a))
    step = 256
    out = np.empty((len(a), len(a)), dtype=np.min_scalar_type(bound))
    for lo in range(0, len(a), step):
        left = a[lo : lo + step].astype(np.float32)
        for hi in range(lo, len(a), step):
            right = left if hi == lo else a[hi : hi + step].astype(np.float32)
            block = left @ right.T
            out[lo : lo + step, hi : hi + step] = block
            out[hi : hi + step, lo : lo + step] = block.T
    return _frozen(out)


def _nonzero_lists(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzero columns of a 0/1 matrix as CSR: (pointers, int32
    columns ascending)."""
    ptr = np.zeros(len(mat) + 1, dtype=np.int64)
    np.cumsum(mat.sum(axis=1, dtype=np.int64), out=ptr[1:])
    return ptr, np.nonzero(mat)[1].astype(np.int32)


def _dense_codes(attrs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each column's values as dense codes, each column's codes after the
    previous column's; returns the codes and each column's distinct values."""
    codes, values, width = [], [], 0
    for column in attrs.T:
        distinct, code = np.unique(column, return_inverse=True)
        codes.append(code + width)
        values.append(distinct)
        width += len(distinct)
    return np.column_stack(codes), values


def _attr_array(entities: list) -> np.ndarray:
    """(n, 5) int64 array of the `ATTRS` values, one row per user or item."""
    return _frozen(np.array(
        [[getattr(e, a) for a in ATTRS] for e in entities], dtype=np.int64
    ).reshape(len(entities), len(ATTRS)))


class ItemClusterIndex:
    """Pairs of items one user interacted with positively within
    `CLUSTER_WINDOW_SECONDS` of each other.

    The relation is symmetric and irreflexive; neighbors(i) never contains i.
    """

    def __init__(self, event_log) -> None:
        neighbors: dict[int, set[int]] = {}
        for user_id in event_log.by_user_interactions:
            events = [
                e for e in event_log.interactions_of(user_id) if e.kind in POSITIVE_KINDS
            ]
            lo = 0
            for hi, ev in enumerate(events):
                while ev.timestamp - events[lo].timestamp > CLUSTER_WINDOW_SECONDS:
                    lo += 1
                for other in events[lo:hi]:
                    if other.item_id != ev.item_id:
                        neighbors.setdefault(ev.item_id, set()).add(other.item_id)
                        neighbors.setdefault(other.item_id, set()).add(ev.item_id)
        self._neighbors = {i: frozenset(s) for i, s in neighbors.items()}

    def neighbors(self, item_id: int) -> frozenset[int]:
        return self._neighbors.get(item_id, frozenset())


def _check_references(dataset: Dataset) -> None:
    """Raise `ValueError` naming the smallest user or item id that an event
    names and the tables lack; every interaction is positive or a delete."""
    ev = dataset.events
    named = {"user": ev.by_user_interactions.keys() | ev.by_user_impressions.keys(),
             "item": set().union(*map(ev.int_items, ev.by_user_interactions),
                                 *map(ev.del_items, ev.by_user_interactions),
                                 *map(ev.imp_items, ev.by_user_impressions))}
    for table, known in (("user", dataset.users), ("item", dataset.items)):
        if missing := named[table] - known.keys():
            raise ValueError(f"an event names {table} {min(missing)}, "
                             f"which is not in the {table} table")


class DatasetIndex:
    """Item rows, tokens, attributes and popularity of one dataset variant.

    Item arrays have one row per item in ascending id order (`item_ids`,
    `row_of`); `tokens[f]` is the item x token indicator of field f of
    `TOKEN_FIELDS` over `vocab`. `now` and `now_week` are the variant's
    latest interaction timestamp and impression week. Per-item event
    structures are derived here from the `EventLog`'s per-user logs. An
    event naming a user or item missing from the tables raises `ValueError`.
    """

    def __init__(self, dataset: Dataset) -> None:
        _check_references(dataset)
        self._users = dataset.users
        self._items = dataset.items
        self._events = events = dataset.events
        self.now = events.max_timestamp
        self.now_week = events.max_impression_week

        ids = sorted(dataset.items)
        items = [dataset.items[i] for i in ids]
        self.item_ids = _frozen(np.array(ids, dtype=np.int64))
        self.row_of: Mapping[int, int] = MappingProxyType({i: r for r, i in enumerate(ids)})
        vocab = shared_token_vocab(items)
        self.vocab: Mapping[int, int] = MappingProxyType(vocab)
        self.tokens = _frozen(np.stack([
            indicator_matrix([getattr(it, field) for it in items], vocab)
            for field in TOKEN_FIELDS
        ]))
        self.active_rows = _frozen(np.flatnonzero([it.active_during_test for it in items]))
        self.active_ids = _frozen(self.item_ids[self.active_rows])
        self.active_set = frozenset(self.active_ids.tolist())

        self.attrs = _attr_array(items)
        self.lat = _frozen([np.nan if it.latitude is None else it.latitude for it in items])
        self.lon = _frozen([np.nan if it.longitude is None else it.longitude for it in items])

        row_of = self.row_of
        rows = [(row_of[e.item_id], e.kind, e.timestamp) for e in events.interactions]
        table = _frozen(np.array(rows, dtype=np.int64).reshape(len(rows), 3))
        self._ev_rows, self._ev_kinds, self._ev_ts = table.T
        self._ev_positive = _frozen(np.isin(self._ev_kinds, list(POSITIVE_KINDS)))
        self.positive_counts = _frozen(self.count_interactions(self._ev_positive))
        # active items with a positive event, by (count desc, id asc)
        counts = self.positive_counts[self.active_rows]
        scored = np.flatnonzero(counts)
        order = np.argsort(-counts[scored], kind="stable")
        self.popular = _frozen(self.active_ids[scored[order]])

    def count_interactions(self, mask: np.ndarray) -> np.ndarray:
        """Per-item-row count of the interactions `mask` selects."""
        return np.bincount(self._ev_rows[mask], minlength=len(self.item_ids))

    def recent_items(self, user_id: int, source: str) -> list[int]:
        """Active items of the user's log, most recent week first.

        Ordered by (latest event week desc, event count desc, item id asc);
        uncapped, shared by the recency generators, neighbour expansion and
        the recency baseline. A new list on every call: nothing is memoized.
        """
        latest: dict[int, int] = {}
        count: dict[int, int] = {}
        if source == "interactions":
            for ev in self._events.interactions_of(user_id):
                if ev.kind not in POSITIVE_KINDS:
                    continue
                week = ev.timestamp // WEEK_SECONDS
                if week > latest.get(ev.item_id, -1):
                    latest[ev.item_id] = week
                count[ev.item_id] = count.get(ev.item_id, 0) + 1
        elif source == "impressions":
            for im in self._events.impressions_of(user_id):
                if im.week > latest.get(im.item_id, -1):
                    latest[im.item_id] = im.week
                count[im.item_id] = count.get(im.item_id, 0) + 1
        else:
            raise ValueError(f"unknown event source {source!r}")
        return sorted(
            (i for i in latest if i in self.active_set),
            key=lambda i: (-latest[i], -count[i], i),
        )

    # ------------------- lazy; features only, but token_overlap is shared

    @cached_property
    def user_row(self) -> Mapping[int, int]:
        return MappingProxyType({u: r for r, u in enumerate(sorted(self._users))})

    @cached_property
    def user_attrs(self) -> np.ndarray:
        return _attr_array([self._users[u] for u in self.user_row])

    @cached_property
    def jobroles(self) -> tuple[Mapping[int, int], np.ndarray]:
        """(role -> column, user x role indicator in `user_row` order)."""
        sets = [self._users[u].jobroles for u in self.user_row]
        vocab = {t: c for c, t in enumerate(sorted(set().union(*sets)))}
        return MappingProxyType(vocab), _frozen(indicator_matrix(sets, vocab))

    @cached_property
    def item_users(self) -> Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(item x user indicator, item degrees, user degrees) per source:
        "int" for positive interactions, "imp" for impressions, built from
        the per-user item sets in `user_row` order."""
        ev, out = self._events, {}
        for src, items_of in (("int", ev.int_items), ("imp", ev.imp_items)):
            sets = [items_of(u) for u in self.user_row]
            m = _frozen(np.ascontiguousarray(indicator_matrix(sets, self.row_of).T))
            out[src] = (m, *(_frozen(m.sum(axis=a, dtype=np.int64)) for a in (1, 0)))
        return MappingProxyType(out)

    @cached_property
    def item_user_lists(self) -> Mapping[str, tuple[np.ndarray, np.ndarray]]:
        """Each item's users per source, as CSR: (pointers, user rows ascending)."""
        return MappingProxyType({src: tuple(map(_frozen, _nonzero_lists(mat)))
                                 for src, (mat, _, _) in self.item_users.items()})

    @cached_property
    def user_item_lists(self) -> Mapping[str, tuple[np.ndarray, np.ndarray]]:
        """Each user's items per source, as CSR in `user_row` order: (pointers,
        item rows ascending)."""
        return MappingProxyType({src: tuple(map(_frozen, _nonzero_lists(mat.T)))
                                 for src, (mat, _, _) in self.item_users.items()})

    @cached_property
    def co_users(self) -> Mapping[str, np.ndarray]:
        """Per source, item x item counts of users shared by the two items."""
        return MappingProxyType({src: _count_product(mat, deg.max(initial=0))
                                 for src, (mat, deg, _) in self.item_users.items()})

    @cached_property
    def token_overlap(self) -> tuple[np.ndarray, ...]:
        """Per field of `TOKEN_FIELDS`, item x item counts of shared tokens;
        read by the content-knn generators and the `common_*` features."""
        return tuple(_count_product(f, f.sum(axis=1).max(initial=0)) for f in self.tokens)

    @cached_property
    def shared_items(self) -> Mapping[str, np.ndarray]:
        """Per source, user x user counts of items both users have."""
        return MappingProxyType({src: _count_product(mat.T, user_deg.max(initial=0))
                                 for src, (mat, _, user_deg) in self.item_users.items()})

    @cached_property
    def shared_roles(self) -> np.ndarray:
        """User x user counts of job roles both users hold."""
        roles = self.jobroles[1]
        return _count_product(roles, roles.sum(axis=1).max(initial=0))

    @cached_property
    def attr_codes(self) -> tuple[np.ndarray, int]:
        """The items' `ATTRS` values as dense codes, each attribute's codes
        after the previous attribute's: ((items, 5) codes, code count)."""
        codes, values = _dense_codes(self.attrs)
        return _frozen(codes), sum(len(v) for v in values)

    @cached_property
    def user_attr_counts(self) -> tuple[tuple[Mapping[int, int], ...], np.ndarray]:
        """Item x attribute-value counts of each item's positive-interaction users.

        Returns one value -> column map per attribute of `ATTRS` and the
        counts: the attributes' columns side by side, then one all-zero
        column for values no user holds.
        """
        codes, values = _dense_codes(self.user_attrs)
        maps, width = [], 0
        for distinct in values:
            maps.append(MappingProxyType({v: width + c for c, v in enumerate(distinct.tolist())}))
            width += len(distinct)
        mat, deg, _ = self.item_users["int"]
        item, user = np.nonzero(mat)
        keys = item[:, None] * (width + 1) + codes[user]
        counts = np.bincount(keys.ravel(), minlength=mat.shape[0] * (width + 1))
        dtype = np.min_scalar_type(deg.max(initial=0))
        return tuple(maps), _frozen(counts.reshape(-1, width + 1).astype(dtype))

    @cached_property
    def cluster(self) -> ItemClusterIndex:
        return ItemClusterIndex(self._events)

    @cached_property
    def item_block(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Popularity and property feature columns: (names, items x names float64)."""
        columns = {**self._popularity(), **self._properties()}
        return tuple(columns), _frozen(np.column_stack(list(columns.values())))

    def _popularity(self) -> dict[str, np.ndarray]:
        """Per-item event counts and +1-smoothed trend ratios, by column name."""
        kinds, ts, positive = self._ev_kinds, self._ev_ts, self._ev_positive
        count = self.count_interactions
        pop = {"pop_int_total": self.positive_counts}
        for kind in InteractionKind:
            pop[f"pop_{kind.name.lower()}"] = count(kinds == kind)
        row_of = self.row_of
        imp_rows = [row_of[im.item_id] for im in self._events.impressions]
        pop["pop_imp_total"] = np.bincount(np.array(imp_rows, dtype=np.int64),
                                           minlength=len(self.item_ids))
        week_lo = self.now - 7 * DAY_SECONDS
        last_week = count(positive & (ts > week_lo))
        prev_week = count(positive & (ts > week_lo - 7 * DAY_SECONDS) & (ts <= week_lo))
        pop["pop_trend_week"] = (last_week + 1.0) / (prev_week + 1.0)
        day = ts // DAY_SECONDS
        now_day = self.now // DAY_SECONDS
        for bucket in range(7):
            # the latest calendar day in this day-of-week bucket against the
            # same weekday one week earlier
            d1 = now_day - ((now_day - bucket) % 7)
            c1 = count(positive & (day == d1))
            c0 = count(positive & (day == d1 - 7))
            pop[f"pop_trend_day{bucket}"] = (c1 + 1.0) / (c0 + 1.0)
        return pop

    def _properties(self) -> dict[str, np.ndarray]:
        """Raw item properties with their sentinels, by column name."""
        items = [self._items[i] for i in self.item_ids.tolist()]
        props = {
            "prop_created_at": [
                SENTINEL if it.created_at is None else float(it.created_at) for it in items
            ],
            "prop_latitude": np.where(np.isnan(self.lat), GEO_SENTINEL, self.lat),
            "prop_longitude": np.where(np.isnan(self.lon), GEO_SENTINEL, self.lon),
        }
        for k, a in enumerate(ATTRS):
            props[f"prop_{a}"] = self.attrs[:, k]
        props["prop_employment"] = [it.employment for it in items]
        return {name: np.asarray(v, dtype=np.float64) for name, v in props.items()}
