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
from typing import Mapping, Sequence

import numpy as np

from .candidates import SLOT_NAMES, CandidateList
from .dataio import DataFormatError
from .entities import DAY_SECONDS, Dataset, GroundTruth, InteractionKind, POSITIVE_KINDS
from .index import ATTRS, GEO_SENTINEL, SENTINEL

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


def build_schema() -> FeatureSchema:
    specs: list[FeatureSpec] = []

    def add(name: str, group: str, sentinel: float = SENTINEL) -> None:
        specs.append(FeatureSpec(name, group, sentinel))

    for src in ("int", "imp"):
        for attr in ATTRS:
            add(f"match_{src}_{attr}", "event_match")
    for src in ("int", "imp"):
        add(f"match_{src}_tags", "event_match")
        add(f"match_{src}_title", "event_match")
    for attr in ATTRS:
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
    for attr in ATTRS:
        add(f"prop_{attr}", "item_property")
    add("prop_employment", "item_property")

    add("cs_career_diff", "content_similarity")
    add("cs_jobroles_title", "content_similarity")
    add("cs_jobroles_tags", "content_similarity")
    for attr in ATTRS[1:]:
        add(f"cs_eq_{attr}", "content_similarity")

    add("geo_min_dist", "geo_distance")
    add("cluster_hit", "item_cluster")
    return FeatureSchema(specs)


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

    `block` gathers the candidates' rows of the variant's item arrays
    (`Dataset.index`) and combines them with the user's through matrix
    products and broadcasts. Indicators are stored as uint8 and cast to
    float64 per block, so every product sums small integers exactly.

    Assumes referential integrity: every event references a user and item
    present in the entity tables (the loader enforces this; the synthesizer
    produces it by construction). A user whose own positive interaction or
    impression names an unknown item raises `ValueError`.
    """

    def __init__(self, dataset: Dataset, candidates: Mapping[int, CandidateList]) -> None:
        self.dataset = dataset
        self.events = dataset.events
        self.index = dataset.index
        self.candidates = candidates
        self.schema = build_schema()
        names, self._item_block = self.index.item_block
        self._item_cols = [self.schema.index(name) for name in names]

    # -------------------------------------------------------- per-user state

    def _user_state(self, user_id: int) -> dict:
        ix = self.index
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

        int_items = sorted(self.events.int_items(user_id))
        imp_items = sorted(self.events.imp_items(user_id))
        week_lo = ix.now - 7 * DAY_SECONDS
        imp_week_events = [im for im in imps if im.week == ix.now_week]

        try:
            rows = {src: np.array([ix.row_of[i] for i in its], dtype=np.int64)
                    for src, its in (("int", int_items), ("imp", imp_items))}
        except KeyError as exc:
            raise ValueError(f"user {user_id} has events on item {exc.args[0]}, "
                             "which is not in the item table") from None

        cluster_hits: set[int] = set()
        for i in int_items:
            cluster_hits |= ix.cluster.neighbors(i)

        return {
            "last_ts": last_ts,
            "last_any": last_any,
            "last_imp_week": last_imp_week,
            "last_any_imp": last_any_imp,
            "kind_counts": kind_counts,
            "uir_user": window_counts(last_any),
            "uir_data": window_counts(ix.now),
            "rows": rows,
            "act": {
                "int_events": float(len(positive)),
                "int_unique": float(len(int_items)),
                "int_events_week": float(sum(1 for t in pos_ts if week_lo < t <= ix.now)),
                "int_unique_week": float(
                    len({e.item_id for e in positive if week_lo < e.timestamp <= ix.now})
                ),
                "imp_events": float(len(imps)),
                "imp_unique": float(len(imp_items)),
                "imp_events_week": float(len(imp_week_events)),
                "imp_unique_week": float(len({im.item_id for im in imp_week_events})),
            },
            "cluster_hits": cluster_hits,
            "user": self.dataset.users.get(user_id),
        }

    # ---------------------------------------------------------- block pieces

    def _cf_columns(self, src: str, rows: np.ndarray, src_rows: np.ndarray, user_id: int):
        """cf_item and cf_user for one source, as two (n,) columns.

        cf_item: max Jaccard over users between the candidate and each of
        the user's items, self-pairs excluded. cf_user: max Jaccard over
        items between the user and each other user of the candidate.
        """
        ix = self.index
        mat, deg, user_deg = ix.item_users[src]
        # users sharing an item with this user; every other user scores 0
        shared = mat[src_rows].sum(axis=0, dtype=np.int64)
        near = np.flatnonzero(shared)
        cand_near = mat[np.ix_(rows, near)].astype(np.float64)

        if len(src_rows):
            inter = cand_near @ mat[np.ix_(src_rows, near)].astype(np.float64).T
            union = deg[rows][:, None] + deg[src_rows][None, :] - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                jac = np.where(union > 0, inter / union, 0.0)
            self_mask = rows[:, None] == src_rows[None, :]
            jac = np.where(self_mask, -np.inf, jac)
            valid = len(src_rows) - self_mask.sum(axis=1)
            cf_item = np.where(valid > 0, jac.max(axis=1), SENTINEL)
        else:
            cf_item = np.full(len(rows), SENTINEL)

        c = shared[near]
        sims = c / (len(src_rows) + user_deg[near] - c)
        others = deg[rows]
        me = ix.user_row.get(user_id)
        if me is not None:
            others = others - mat[rows, me]
            sims[near == me] = 0.0
        # sims >= 0, so the zeros of non-members never exceed the members' max
        cf_user = np.where(others > 0, (cand_near * sims).max(axis=1, initial=0.0), SENTINEL)
        return cf_item, cf_user

    # ------------------------------------------------------------ main block

    def block(self, user_id: int, items: Sequence[int]) -> np.ndarray:
        cl = self.candidates.get(user_id)
        if cl is None:
            raise ValueError(f"user {user_id} has no candidate list")
        for i in items:
            if i not in cl:
                raise ValueError(f"pair ({user_id}, {i}) is not in the candidate list")

        schema = self.schema
        ix = self.index
        n = len(items)
        out = np.empty((n, len(schema)), dtype=np.float64)
        state = self._user_state(user_id)
        user = state["user"]
        col = schema.index

        cand_ids = [int(i) for i in items]
        rows = np.array([ix.row_of[i] for i in cand_ids], dtype=np.int64)
        attrs = ix.attrs[rows]
        tags, title = ix.tokens[:, rows].astype(np.float64)
        u_attrs = np.array([getattr(user, a) if user else 0 for a in ATTRS], dtype=np.int64)
        jroles = user.jobroles if user else frozenset()

        # ---- event_match + common_tokens (token side, both sources)
        for src in ("int", "imp"):
            src_rows = state["rows"][src]
            attr_cols = [col(f"match_{src}_{a}") for a in ATTRS]
            token_cols = [col(f"match_{src}_tags"), col(f"match_{src}_title")]
            common_cols = [col(f"common_tags_{src}"), col(f"common_title_{src}")]
            if not len(src_rows):
                out[:, attr_cols + token_cols + common_cols] = SENTINEL
                continue
            out[:, attr_cols] = (attrs[:, None, :] == ix.attrs[src_rows]).mean(axis=1)
            for k, (field, cand) in enumerate(zip(ix.tokens, (tags, title))):
                overlap = cand @ field[src_rows].astype(np.float64).T
                out[:, token_cols[k]] = (overlap > 0).mean(axis=1)
                out[:, common_cols[k]] = overlap.max(axis=1)

        # ---- event_match, user side: shares of the candidate's users with
        # the user's attribute values, and sharing one of the user's job roles
        role_col, roles = ix.jobroles
        shares_role = roles[:, [role_col[t] for t in jroles]].any(axis=1)
        alike = np.column_stack([ix.user_attrs == u_attrs, shares_role]).astype(np.float64)
        mat, deg, _ = ix.item_users["int"]
        deg = deg[rows][:, None]
        user_cols = [col(f"match_users_{a}") for a in ATTRS] + [col("match_users_jobroles")]
        out[:, user_cols] = np.divide(
            mat[rows].astype(np.float64) @ alike,
            deg,
            out=np.full((n, len(user_cols)), SENTINEL),
            where=deg > 0,
        )

        # ---- popularity and item properties
        out[:, self._item_cols] = self._item_block[rows]

        # ---- cf similarity
        for src in ("int", "imp"):
            cf_item, cf_user = self._cf_columns(src, rows, state["rows"][src], user_id)
            out[:, col(f"cf_item_{src}")] = cf_item
            out[:, col(f"cf_user_{src}")] = cf_user

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
            float(ix.now - last_any) if last_any is not None else SENTINEL
        )
        last_any_imp = state["last_any_imp"]
        out[:, col("rec_user_weeks")] = (
            float(ix.now_week - last_any_imp) if last_any_imp is not None else SENTINEL
        )
        item_ts = [state["last_ts"].get(i) for i in cand_ids]
        out[:, col("rec_item_seconds")] = [
            float(ix.now - ts) if ts is not None else SENTINEL for ts in item_ts
        ]
        out[:, col("rec_item_vs_last_seconds")] = [
            float(last_any - ts) if ts is not None and last_any is not None else SENTINEL
            for ts in item_ts
        ]
        item_wk = [state["last_imp_week"].get(i) for i in cand_ids]
        out[:, col("rec_item_weeks")] = [
            float(ix.now_week - wk) if wk is not None else SENTINEL for wk in item_wk
        ]
        out[:, col("rec_item_vs_last_weeks")] = [
            float(last_any_imp - wk) if wk is not None and last_any_imp is not None else SENTINEL
            for wk in item_wk
        ]

        # ---- candidate positions
        ranks = [cl.ranks[i] for i in cand_ids]
        for slot in SLOT_NAMES:
            out[:, col(f"pos_{slot}")] = [float(r[slot]) if slot in r else SENTINEL for r in ranks]

        # ---- user-item recent counts
        out[:, col("uir_user_week")] = [float(state["uir_user"].get(i, 0)) for i in cand_ids]
        out[:, col("uir_data_week")] = [float(state["uir_data"].get(i, 0)) for i in cand_ids]

        # ---- content similarity
        out[:, col("cs_career_diff")] = attrs[:, 0] - u_attrs[0]
        role_tokens = [ix.vocab[t] for t in jroles if t in ix.vocab]
        out[:, col("cs_jobroles_title")] = title[:, role_tokens].sum(axis=1)
        out[:, col("cs_jobroles_tags")] = tags[:, role_tokens].sum(axis=1)
        out[:, [col(f"cs_eq_{a}") for a in ATTRS[1:]]] = attrs[:, 1:] == u_attrs[1:]

        # ---- geo distance: nearest of the user's positively interacted items
        geo_rows = state["rows"]["int"]
        geo_rows = geo_rows[~np.isnan(ix.lat[geo_rows])]
        out[:, col("geo_min_dist")] = SENTINEL
        if len(geo_rows):
            lat, lon = ix.lat[rows][:, None], ix.lon[rows][:, None]
            d = np.sqrt((ix.lat[geo_rows] - lat) ** 2 + (ix.lon[geo_rows] - lon) ** 2)
            out[:, col("geo_min_dist")] = np.where(np.isnan(lat[:, 0]), SENTINEL, d.min(axis=1))

        # ---- cluster membership
        hits = state["cluster_hits"]
        out[:, col("cluster_hit")] = [1.0 if i in hits else 0.0 for i in cand_ids]

        return out


def build_matrix(
    dataset: Dataset,
    candidates: Mapping[int, CandidateList],
    rows: Sequence[tuple[int, int]] | None = None,
    ground_truth: GroundTruth | None = None,
) -> FeatureMatrix:
    """Feature matrix for (user, item) pairs.

    rows=None takes every pair of every candidate list in order; otherwise
    only the given pairs (which must appear in the candidate lists). When
    ground_truth is given a 0/1 label column is attached.
    """
    extractor = FeatureExtractor(dataset, candidates)
    if rows is None:
        per_user: list[tuple[int, list[int]]] = [
            (u, cl.items()) for u, cl in candidates.items()
        ]
    else:
        grouped: dict[int, list[int]] = {}
        for u, i in rows:
            grouped.setdefault(u, []).append(i)
        per_user = list(grouped.items())

    # each user's block is written into its slice, so the matrix exists once
    n_rows = sum(len(its) for _, its in per_user)
    values = np.empty((n_rows, len(extractor.schema)), dtype=np.float64)
    users_out: list[int] = []
    items_out: list[int] = []
    for u, its in per_user:
        if its:
            values[len(items_out) : len(items_out) + len(its)] = extractor.block(u, its)
        users_out.extend([u] * len(its))
        items_out.extend(its)
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
