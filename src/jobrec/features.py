"""Per-(user, candidate item) feature extraction.

Twelve groups: event attribute match fractions, item popularity and
trends, collaborative max-similarity, user activity counts, recency
deltas, max common tokens, per-generator candidate positions, recent
user-item counts, raw item properties, user-item content similarity,
geographic distance, and co-click cluster membership.

All time-dependent features anchor at the dataset variant's own maximum
interaction timestamp (impression-side features at its maximum impression
week), so the training variant and the full dataset each measure recency
against their own end. Missing values use per-feature sentinels recorded
in the schema (-1 unless noted).
"""

from __future__ import annotations

import zipfile
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .candidates import SLOT_NAMES, CandidateList
from .dataio import DataFormatError
from .entities import (
    DAY_SECONDS,
    Dataset,
    GroundTruth,
    InteractionKind,
    POSITIVE_KINDS,
    WEEK_SECONDS,
)
from .similarity import set_csr, shared_token_vocab, token_csr

SENTINEL = -1.0
GEO_SENTINEL = -999.0
CLUSTER_WINDOW_SECONDS = 600

_ATTRS = ["career_level", "discipline_id", "industry_id", "country", "region"]

# arrays a feature-matrix archive must hold to load; "labels" is optional
_MATRIX_ARRAYS = ("user_ids", "item_ids", "values", "names", "groups", "sentinels")


@dataclass(frozen=True, slots=True)
class FeatureSpec:
    name: str
    group: str
    sentinel: float


class FeatureSchema:
    """Ordered feature descriptors; order defines matrix columns."""

    def __init__(self, specs: Sequence[FeatureSpec]) -> None:
        self.specs = list(specs)
        self.names = [s.name for s in self.specs]
        self._index = {s.name: i for i, s in enumerate(self.specs)}
        if len(self._index) != len(self.specs):
            raise ValueError("duplicate feature names in schema")

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSchema) and self.specs == other.specs

    def index(self, name: str) -> int:
        return self._index[name]

    def group_of(self, name: str) -> str:
        return self.specs[self._index[name]].group


def build_schema() -> FeatureSchema:
    specs: list[FeatureSpec] = []

    def add(name: str, group: str, sentinel: float = SENTINEL) -> None:
        specs.append(FeatureSpec(name, group, sentinel))

    for src in ("int", "imp"):
        for attr in _ATTRS:
            add(f"match_{src}_{attr}", "event_match")
    for src in ("int", "imp"):
        add(f"match_{src}_tags", "event_match")
        add(f"match_{src}_title", "event_match")
    for attr in _ATTRS:
        add(f"match_users_{attr}", "event_match")
    add("match_users_jobroles", "event_match")

    add("pop_int_total", "popularity")
    for kind in ("click", "bookmark", "reply", "delete"):
        add(f"pop_{kind}", "popularity")
    add("pop_imp_total", "popularity")
    add("pop_trend_week", "popularity")
    for d in range(7):
        add(f"pop_trend_day{d}", "popularity")

    for side in ("item", "user"):
        for src in ("int", "imp"):
            add(f"cf_{side}_{src}", "cf_similarity")

    for src in ("int", "imp"):
        add(f"act_{src}_events", "user_activity")
        add(f"act_{src}_unique", "user_activity")
        add(f"act_{src}_events_week", "user_activity")
        add(f"act_{src}_unique_week", "user_activity")
    for kind in ("click", "bookmark", "reply", "delete"):
        add(f"act_{kind}", "user_activity")

    add("rec_item_seconds", "recency")
    add("rec_item_vs_last_seconds", "recency")
    add("rec_user_seconds", "recency")
    add("rec_item_weeks", "recency")
    add("rec_item_vs_last_weeks", "recency")
    add("rec_user_weeks", "recency")

    for src in ("int", "imp"):
        add(f"common_tags_{src}", "common_tokens")
        add(f"common_title_{src}", "common_tokens")

    for col in SLOT_NAMES:
        add(f"pos_{col}", "candidate_position")

    add("uir_user_week", "user_item_recent")
    add("uir_data_week", "user_item_recent")

    add("prop_created_at", "item_property")
    add("prop_latitude", "item_property", GEO_SENTINEL)
    add("prop_longitude", "item_property", GEO_SENTINEL)
    for attr in _ATTRS:
        add(f"prop_{attr}", "item_property")
    add("prop_employment", "item_property")

    add("cs_career_diff", "content_similarity")
    add("cs_jobroles_title", "content_similarity")
    add("cs_jobroles_tags", "content_similarity")
    for attr in _ATTRS[1:]:
        add(f"cs_eq_{attr}", "content_similarity")

    add("geo_min_dist", "geo_distance")
    add("cluster_hit", "item_cluster")
    return FeatureSchema(specs)


class ItemClusterIndex:
    """Pairs of items positively interacted by one user within a short window.

    The relation is symmetric and irreflexive; neighbors(i) never contains i.
    """

    def __init__(self, event_log, window_seconds: int = CLUSTER_WINDOW_SECONDS) -> None:
        self.window_seconds = window_seconds
        self._neighbors: dict[int, set[int]] = {}
        for user_id in event_log.by_user_interactions:
            events = [
                e for e in event_log.interactions_of(user_id) if e.kind in POSITIVE_KINDS
            ]
            lo = 0
            for hi, ev in enumerate(events):
                while ev.timestamp - events[lo].timestamp > window_seconds:
                    lo += 1
                for other in events[lo:hi]:
                    if other.item_id != ev.item_id:
                        self._neighbors.setdefault(ev.item_id, set()).add(other.item_id)
                        self._neighbors.setdefault(other.item_id, set()).add(ev.item_id)

    def neighbors(self, item_id: int) -> frozenset[int]:
        got = self._neighbors.get(item_id)
        return frozenset(got) if got is not None else frozenset()


@dataclass
class FeatureMatrix:
    schema: FeatureSchema
    user_ids: np.ndarray
    item_ids: np.ndarray
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        if len(self.item_ids) != n or self.values.shape != (n, len(self.schema)):
            raise ValueError("feature matrix dimensions do not line up")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label vector length does not match row count")

    def __len__(self) -> int:
        return len(self.user_ids)

    def save(self, path: str | Path, provenance=None) -> None:
        """One uncompressed .npz archive, written at exactly `path`.

        Arrays: user_ids, item_ids, values, labels (when present), the
        schema as names/groups/sentinels, and provenance as key=value
        strings.
        """
        specs = self.schema.specs
        arrays = {
            "user_ids": self.user_ids,
            "item_ids": self.item_ids,
            "values": self.values,
            "names": np.array([s.name for s in specs], dtype=np.str_),
            "groups": np.array([s.group for s in specs], dtype=np.str_),
            "sentinels": np.array([s.sentinel for s in specs], dtype=np.float64),
            "provenance": np.array(
                [f"{k}={v}" for k, v in (provenance or {}).items()], dtype=np.str_
            ),
        }
        if self.labels is not None:
            arrays["labels"] = self.labels
        # np.savez appends ".npz" to a path argument; a handle keeps the name
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "FeatureMatrix":
        path = Path(path)
        try:
            archive = np.load(path, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a single .npy array")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise DataFormatError(f"{path}: not a feature-matrix .npz archive ({exc})") from None
        missing = [name for name in _MATRIX_ARRAYS if name not in arrays]
        if missing:
            raise DataFormatError(f"{path}: missing arrays {missing}")
        try:
            columns = zip(arrays["names"], arrays["groups"], arrays["sentinels"], strict=True)
            specs = [FeatureSpec(str(n), str(g), float(s)) for n, g, s in columns]
            labels = arrays.get("labels")
            return cls(
                schema=FeatureSchema(specs),
                user_ids=np.asarray(arrays["user_ids"], dtype=np.int64),
                item_ids=np.asarray(arrays["item_ids"], dtype=np.int64),
                values=np.asarray(arrays["values"], dtype=np.float64),
                labels=None if labels is None else np.asarray(labels, dtype=np.float64),
            )
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: {exc}") from None


class FeatureExtractor:
    """Computes feature blocks per user over one dataset variant.

    Assumes referential integrity: every event references a user and item
    present in the entity tables (the loader enforces this; the synthesizer
    produces it by construction).
    """

    def __init__(
        self,
        dataset: Dataset,
        candidates: Mapping[int, CandidateList],
        cluster_index: ItemClusterIndex | None = None,
    ) -> None:
        self.dataset = dataset
        self.events = dataset.events
        self.candidates = candidates
        self.schema = build_schema()
        self.cluster = cluster_index if cluster_index is not None else ItemClusterIndex(self.events)

        self.now = self.events.max_timestamp
        self.now_week = self.events.max_impression_week

        items = dataset.items
        self._item_ids = np.array(sorted(items), dtype=np.int64)
        self._row_of = {int(i): r for r, i in enumerate(self._item_ids)}
        self._vocab = shared_token_vocab(items, (int(i) for i in self._item_ids))
        self._tags = token_csr(items, self._item_ids, "tags", self._vocab)
        self._title = token_csr(items, self._item_ids, "title", self._vocab)

        self._user_ids = np.array(sorted(dataset.users), dtype=np.int64)
        self._user_row = {int(u): r for r, u in enumerate(self._user_ids)}
        self._build_popularity()
        self._build_item_user_matrices()
        self._build_jobroles()

        self._item_attr_counts: dict[int, tuple[int, dict[str, dict[int, int]]]] = {}

    # -------------------------------------------------------- precomputation

    def _build_popularity(self) -> None:
        n = len(self._item_ids)
        self._pop = {
            "int_total": np.zeros(n),
            "click": np.zeros(n),
            "bookmark": np.zeros(n),
            "reply": np.zeros(n),
            "delete": np.zeros(n),
            "imp_total": np.zeros(n),
        }
        kind_col = {
            InteractionKind.CLICK: "click",
            InteractionKind.BOOKMARK: "bookmark",
            InteractionKind.REPLY: "reply",
            InteractionKind.DELETE: "delete",
        }
        now_day = self.now // DAY_SECONDS
        # the 14 calendar days feeding the weekday trends: for each of the 7
        # day-of-week buckets, the latest such day and the one a week before
        self._trend_days: dict[int, tuple[int, int]] = {}
        wanted_days: set[int] = set()
        for bucket in range(7):
            d1 = now_day - ((now_day - bucket) % 7)
            self._trend_days[bucket] = (d1, d1 - 7)
            wanted_days.update((d1, d1 - 7))
        day_counts: dict[tuple[int, int], int] = {}
        week_lo = self.now - 7 * DAY_SECONDS
        week_lo2 = self.now - 14 * DAY_SECONDS
        last_week = np.zeros(n)
        prev_week = np.zeros(n)
        for ev in self.events.interactions:
            row = self._row_of[ev.item_id]
            self._pop[kind_col[ev.kind]][row] += 1
            if ev.kind in POSITIVE_KINDS:
                self._pop["int_total"][row] += 1
                day = ev.timestamp // DAY_SECONDS
                if day in wanted_days:
                    day_counts[(row, day)] = day_counts.get((row, day), 0) + 1
                if week_lo < ev.timestamp <= self.now:
                    last_week[row] += 1
                elif week_lo2 < ev.timestamp <= week_lo:
                    prev_week[row] += 1
        for im in self.events.impressions:
            self._pop["imp_total"][self._row_of[im.item_id]] += 1
        self._pop["trend_week"] = (last_week + 1.0) / (prev_week + 1.0)
        for bucket in range(7):
            d1, d0 = self._trend_days[bucket]
            c1 = np.zeros(n)
            c0 = np.zeros(n)
            for (row, day), c in day_counts.items():
                if day == d1:
                    c1[row] += c
                elif day == d0:
                    c0[row] += c
            self._pop[f"trend_day{bucket}"] = (c1 + 1.0) / (c0 + 1.0)

    def _build_item_user_matrices(self) -> None:
        """item x user binary matrices for interactions and impressions."""
        universe = self._user_row
        int_sets = [self.events.int_users(int(i)) for i in self._item_ids]
        imp_sets = [self.events.imp_users(int(i)) for i in self._item_ids]
        self._item_int_users = set_csr(int_sets, universe)
        self._item_imp_users = set_csr(imp_sets, universe)
        self._item_int_deg = np.asarray(self._item_int_users.sum(axis=1)).ravel()
        self._item_imp_deg = np.asarray(self._item_imp_users.sum(axis=1)).ravel()
        self._item_user_rows = {
            int(i): np.array(sorted(self._user_row[u] for u in int_sets[r]), dtype=np.int64)
            for r, i in enumerate(self._item_ids)
            if int_sets[r]
        }

    def _build_jobroles(self) -> None:
        jr_vocab: dict[int, int] = {}
        for u in self._user_ids:
            for tok in sorted(self.dataset.users[int(u)].jobroles):
                if tok not in jr_vocab:
                    jr_vocab[tok] = len(jr_vocab)
        self._jr_vocab = jr_vocab
        self._jr_csr = set_csr(
            [self.dataset.users[int(u)].jobroles for u in self._user_ids], jr_vocab
        )

    def _item_attr_counter(self, item_id: int) -> tuple[int, dict[str, dict[int, int]]]:
        got = self._item_attr_counts.get(item_id)
        if got is not None:
            return got
        users = self.events.int_users(item_id)
        counters: dict[str, dict[int, int]] = {a: {} for a in _ATTRS}
        for u in users:
            user = self.dataset.users.get(u)
            if user is None:
                continue
            for a in _ATTRS:
                v = getattr(user, a)
                counters[a][v] = counters[a].get(v, 0) + 1
        entry = (len(users), counters)
        self._item_attr_counts[item_id] = entry
        return entry

    # -------------------------------------------------------- per-user state

    def _user_state(self, user_id: int) -> dict:
        events = self.events.interactions_of(user_id)
        positive = [e for e in events if e.kind in POSITIVE_KINDS]
        imps = self.events.impressions_of(user_id)

        last_ts: dict[int, int] = {}
        for e in positive:
            last_ts[e.item_id] = e.timestamp
        last_any = positive[-1].timestamp if positive else None

        last_imp_week: dict[int, int] = {}
        for im in imps:
            last_imp_week[im.item_id] = im.week
        last_any_imp = max(last_imp_week.values()) if last_imp_week else None

        kind_counts = {k: 0 for k in InteractionKind}
        for e in events:
            kind_counts[e.kind] += 1

        pos_ts = [e.timestamp for e in positive]

        def window_counts(anchor: int | None) -> dict[int, int]:
            if anchor is None:
                return {}
            lo = bisect_right(pos_ts, anchor - 7 * DAY_SECONDS)
            hi = bisect_right(pos_ts, anchor)
            out: dict[int, int] = {}
            for e in positive[lo:hi]:
                out[e.item_id] = out.get(e.item_id, 0) + 1
            return out

        user = self.dataset.users.get(user_id)
        jroles = user.jobroles if user is not None else frozenset()
        if jroles and user_id in self._user_row:
            qcols = [self._jr_vocab[t] for t in jroles]
            qvec = sparse.csr_matrix(
                (np.ones(len(qcols), dtype=np.int32), ([0] * len(qcols), qcols)),
                shape=(1, self._jr_csr.shape[1]),
            )
            share_mask = np.asarray((self._jr_csr @ qvec.T).todense()).ravel() > 0
        else:
            share_mask = np.zeros(len(self._user_ids), dtype=bool)

        int_items = sorted(self.events.int_items(user_id))
        imp_items = sorted(self.events.imp_items(user_id))
        week_lo = self.now - 7 * DAY_SECONDS
        imp_week_events = [im for im in imps if im.week == self.now_week]

        # similarity of this user's positive item set against all users that
        # share at least one item, via the item -> users postings
        sims: dict[int, float] = {}
        mine = self.events.int_items(user_id)
        if mine:
            counts: dict[int, int] = {}
            for i in mine:
                for v in self.events.int_users(i):
                    counts[v] = counts.get(v, 0) + 1
            for v, c in counts.items():
                if v != user_id:
                    sims[v] = c / (len(mine) + len(self.events.int_items(v)) - c)
        sims_imp: dict[int, float] = {}
        mine_imp = self.events.imp_items(user_id)
        if mine_imp:
            counts = {}
            for i in mine_imp:
                for v in self.events.imp_users(i):
                    counts[v] = counts.get(v, 0) + 1
            for v, c in counts.items():
                if v != user_id:
                    sims_imp[v] = c / (len(mine_imp) + len(self.events.imp_items(v)) - c)

        geo = [
            (self.dataset.items[i].latitude, self.dataset.items[i].longitude)
            for i in int_items
            if i in self.dataset.items and self.dataset.items[i].latitude is not None
        ]

        cluster_hits: set[int] = set()
        for i in int_items:
            cluster_hits |= self.cluster.neighbors(i)

        return {
            "positive": positive,
            "last_ts": last_ts,
            "last_any": last_any,
            "last_imp_week": last_imp_week,
            "last_any_imp": last_any_imp,
            "kind_counts": kind_counts,
            "uir_user": window_counts(last_any),
            "uir_data": window_counts(self.now),
            "share_mask": share_mask,
            "int_items": int_items,
            "imp_items": imp_items,
            "act": {
                "int_events": float(len(positive)),
                "int_unique": float(len(int_items)),
                "int_events_week": float(sum(1 for t in pos_ts if week_lo < t <= self.now)),
                "int_unique_week": float(
                    len({e.item_id for e in positive if week_lo < e.timestamp <= self.now})
                ),
                "imp_events": float(len(imps)),
                "imp_unique": float(len(imp_items)),
                "imp_events_week": float(len(imp_week_events)),
                "imp_unique_week": float(len({im.item_id for im in imp_week_events})),
            },
            "sims_int": sims,
            "sims_imp": sims_imp,
            "geo": np.array(geo, dtype=np.float64) if geo else None,
            "cluster_hits": cluster_hits,
            "user": user,
        }

    # ---------------------------------------------------------- block pieces

    def _overlap_block(self, cand_rows: np.ndarray, src_rows: list[int], cand_field, src_field) -> np.ndarray:
        """Dense |tokens(cand) & tokens(src)| counts, candidates x sources."""
        sub = cand_field[cand_rows] @ src_field[src_rows].T
        return np.asarray(sub.todense())

    def _cf_item_block(
        self, cand_rows: np.ndarray, cand_ids: list[int], src_items: list[int], kind: str
    ) -> np.ndarray:
        mat = self._item_int_users if kind == "int" else self._item_imp_users
        deg = self._item_int_deg if kind == "int" else self._item_imp_deg
        out = np.full(len(cand_rows), SENTINEL)
        if not src_items:
            return out
        src_rows = [self._row_of[i] for i in src_items]
        inter = np.asarray((mat[cand_rows] @ mat[src_rows].T).todense(), dtype=np.float64)
        deg_c = deg[cand_rows][:, None]
        deg_s = deg[src_rows][None, :]
        union = deg_c + deg_s - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            jac = np.where(union > 0, inter / union, 0.0)
        # self-pairs are excluded from the max
        src_arr = np.array(src_items, dtype=np.int64)
        cand_arr = np.array(cand_ids, dtype=np.int64)
        self_mask = cand_arr[:, None] == src_arr[None, :]
        jac = np.where(self_mask, -np.inf, jac)
        valid = len(src_items) - self_mask.sum(axis=1)
        best = jac.max(axis=1)
        return np.where(valid > 0, best, SENTINEL)

    # ------------------------------------------------------------ main block

    def block(self, user_id: int, items: Sequence[int]) -> np.ndarray:
        cl = self.candidates.get(user_id)
        if cl is None:
            raise ValueError(f"user {user_id} has no candidate list")
        for i in items:
            if i not in cl:
                raise ValueError(f"pair ({user_id}, {i}) is not in the candidate list")

        schema = self.schema
        n = len(items)
        out = np.empty((n, len(schema)), dtype=np.float64)
        state = self._user_state(user_id)
        user = state["user"]
        col = schema.index

        cand_rows = np.array([self._row_of[i] for i in items], dtype=np.int64)
        cand_ids = [int(i) for i in items]

        # ---- event_match + common_tokens (token side, both sources)
        for src, src_items in (("int", state["int_items"]), ("imp", state["imp_items"])):
            if not src_items:
                for a in _ATTRS:
                    out[:, col(f"match_{src}_{a}")] = SENTINEL
                out[:, col(f"match_{src}_tags")] = SENTINEL
                out[:, col(f"match_{src}_title")] = SENTINEL
                out[:, col(f"common_tags_{src}")] = SENTINEL
                out[:, col(f"common_title_{src}")] = SENTINEL
                continue
            src_rows = [self._row_of[i] for i in src_items]
            for a in _ATTRS:
                svals = np.array(
                    [getattr(self.dataset.items[i], a) for i in src_items], dtype=np.int64
                )
                cvals = np.array(
                    [getattr(self.dataset.items[i], a) for i in cand_ids], dtype=np.int64
                )
                out[:, col(f"match_{src}_{a}")] = (cvals[:, None] == svals[None, :]).mean(axis=1)
            tags_ov = self._overlap_block(cand_rows, src_rows, self._tags, self._tags)
            title_ov = self._overlap_block(cand_rows, src_rows, self._title, self._title)
            out[:, col(f"match_{src}_tags")] = (tags_ov > 0).mean(axis=1)
            out[:, col(f"match_{src}_title")] = (title_ov > 0).mean(axis=1)
            out[:, col(f"common_tags_{src}")] = tags_ov.max(axis=1)
            out[:, col(f"common_title_{src}")] = title_ov.max(axis=1)

        # ---- event_match, user side
        u_attrs = {a: (getattr(user, a) if user else 0) for a in _ATTRS}
        share_mask = state["share_mask"]
        for r, i in enumerate(cand_ids):
            n_users, counters = self._item_attr_counter(i)
            if n_users == 0:
                for a in _ATTRS:
                    out[r, col(f"match_users_{a}")] = SENTINEL
                out[r, col("match_users_jobroles")] = SENTINEL
                continue
            for a in _ATTRS:
                out[r, col(f"match_users_{a}")] = counters[a].get(u_attrs[a], 0) / n_users
            rows = self._item_user_rows.get(i)
            out[r, col("match_users_jobroles")] = (
                float(share_mask[rows].mean()) if rows is not None else SENTINEL
            )

        # ---- popularity (item-level lookups)
        out[:, col("pop_int_total")] = self._pop["int_total"][cand_rows]
        for kind in ("click", "bookmark", "reply", "delete"):
            out[:, col(f"pop_{kind}")] = self._pop[kind][cand_rows]
        out[:, col("pop_imp_total")] = self._pop["imp_total"][cand_rows]
        out[:, col("pop_trend_week")] = self._pop["trend_week"][cand_rows]
        for d in range(7):
            out[:, col(f"pop_trend_day{d}")] = self._pop[f"trend_day{d}"][cand_rows]

        # ---- cf similarity
        out[:, col("cf_item_int")] = self._cf_item_block(
            cand_rows, cand_ids, state["int_items"], "int"
        )
        out[:, col("cf_item_imp")] = self._cf_item_block(
            cand_rows, cand_ids, state["imp_items"], "imp"
        )
        for r, i in enumerate(cand_ids):
            for kind in ("int", "imp"):
                users = (
                    self.events.int_users(i) if kind == "int" else self.events.imp_users(i)
                )
                others = [v for v in users if v != user_id]
                sims = state["sims_int"] if kind == "int" else state["sims_imp"]
                out[r, col(f"cf_user_{kind}")] = (
                    max(sims.get(v, 0.0) for v in others) if others else SENTINEL
                )

        # ---- user activity
        for name, value in state["act"].items():
            out[:, col(f"act_{name}")] = value
        kc = state["kind_counts"]
        out[:, col("act_click")] = kc[InteractionKind.CLICK]
        out[:, col("act_bookmark")] = kc[InteractionKind.BOOKMARK]
        out[:, col("act_reply")] = kc[InteractionKind.REPLY]
        out[:, col("act_delete")] = kc[InteractionKind.DELETE]

        # ---- recency
        last_any = state["last_any"]
        out[:, col("rec_user_seconds")] = (
            float(self.now - last_any) if last_any is not None else SENTINEL
        )
        last_any_imp = state["last_any_imp"]
        out[:, col("rec_user_weeks")] = (
            float(self.now_week - last_any_imp) if last_any_imp is not None else SENTINEL
        )
        for r, i in enumerate(cand_ids):
            ts = state["last_ts"].get(i)
            out[r, col("rec_item_seconds")] = float(self.now - ts) if ts is not None else SENTINEL
            out[r, col("rec_item_vs_last_seconds")] = (
                float(last_any - ts) if ts is not None and last_any is not None else SENTINEL
            )
            wk = state["last_imp_week"].get(i)
            out[r, col("rec_item_weeks")] = (
                float(self.now_week - wk) if wk is not None else SENTINEL
            )
            out[r, col("rec_item_vs_last_weeks")] = (
                float(last_any_imp - wk)
                if wk is not None and last_any_imp is not None
                else SENTINEL
            )

        # ---- candidate positions
        for r, i in enumerate(cand_ids):
            ranks = cl.ranks[i]
            for slot in SLOT_NAMES:
                out[r, col(f"pos_{slot}")] = float(ranks[slot]) if slot in ranks else SENTINEL

        # ---- user-item recent counts
        for r, i in enumerate(cand_ids):
            out[r, col("uir_user_week")] = float(state["uir_user"].get(i, 0))
            out[r, col("uir_data_week")] = float(state["uir_data"].get(i, 0))

        # ---- item properties
        for r, i in enumerate(cand_ids):
            it = self.dataset.items[i]
            out[r, col("prop_created_at")] = (
                float(it.created_at) if it.created_at is not None else SENTINEL
            )
            out[r, col("prop_latitude")] = (
                it.latitude if it.latitude is not None else GEO_SENTINEL
            )
            out[r, col("prop_longitude")] = (
                it.longitude if it.longitude is not None else GEO_SENTINEL
            )
            for a in _ATTRS:
                out[r, col(f"prop_{a}")] = float(getattr(it, a))
            out[r, col("prop_employment")] = float(it.employment)

        # ---- content similarity
        jroles = user.jobroles if user else frozenset()
        u_career = user.career_level if user else 0
        for r, i in enumerate(cand_ids):
            it = self.dataset.items[i]
            out[r, col("cs_career_diff")] = float(it.career_level - u_career)
            out[r, col("cs_jobroles_title")] = float(len(jroles & it.title))
            out[r, col("cs_jobroles_tags")] = float(len(jroles & it.tags))
            for a in _ATTRS[1:]:
                out[r, col(f"cs_eq_{a}")] = float(getattr(it, a) == u_attrs[a])

        # ---- geo distance
        geo = state["geo"]
        for r, i in enumerate(cand_ids):
            it = self.dataset.items[i]
            if geo is None or it.latitude is None:
                out[r, col("geo_min_dist")] = SENTINEL
            else:
                d = np.sqrt(
                    (geo[:, 0] - it.latitude) ** 2 + (geo[:, 1] - it.longitude) ** 2
                )
                out[r, col("geo_min_dist")] = float(d.min())

        # ---- cluster membership
        hits = state["cluster_hits"]
        for r, i in enumerate(cand_ids):
            out[r, col("cluster_hit")] = 1.0 if i in hits else 0.0

        return out


def build_matrix(
    dataset: Dataset,
    candidates: Mapping[int, CandidateList],
    rows: Sequence[tuple[int, int]] | None = None,
    ground_truth: GroundTruth | None = None,
    cluster_index: ItemClusterIndex | None = None,
) -> FeatureMatrix:
    """Feature matrix for (user, item) pairs.

    rows=None takes every pair of every candidate list in order; otherwise
    only the given pairs (which must appear in the candidate lists). When
    ground_truth is given a 0/1 label column is attached.
    """
    extractor = FeatureExtractor(dataset, candidates, cluster_index)
    if rows is None:
        per_user: list[tuple[int, list[int]]] = [
            (u, cl.items()) for u, cl in candidates.items()
        ]
    else:
        grouped: dict[int, list[int]] = {}
        for u, i in rows:
            grouped.setdefault(u, []).append(i)
        per_user = list(grouped.items())

    blocks = [
        extractor.block(u, its) if its else np.empty((0, len(extractor.schema)))
        for u, its in per_user
    ]

    users_out: list[int] = []
    items_out: list[int] = []
    for u, its in per_user:
        users_out.extend([u] * len(its))
        items_out.extend(its)
    values = (
        np.vstack(blocks) if blocks else np.empty((0, len(extractor.schema)))
    )
    labels = None
    if ground_truth is not None:
        labels = np.array(
            [1.0 if i in ground_truth.get(u, ()) else 0.0 for u, i in zip(users_out, items_out)],
            dtype=np.float64,
        )
    return FeatureMatrix(
        schema=extractor.schema,
        user_ids=np.array(users_out, dtype=np.int64),
        item_ids=np.array(items_out, dtype=np.int64),
        values=values,
        labels=labels,
    )
