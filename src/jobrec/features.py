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
from bisect import bisect_left, bisect_right
from itertools import chain
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .candidates import SLOT_NAMES, CandidateTable
from .dataio import DataFormatError
from .entities import DAY_SECONDS, Dataset, GroundTruth, InteractionKind
from .index import ATTRS, GEO_SENTINEL, SENTINEL, TOKEN_FIELDS

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


# (row, source item) and (row, item user) pairs one `block` call expands at
# most; `build_matrix` cuts its rows into calls of whole users under it.
# The pair arrays of one call peak at about 12 bytes a pair, under 1 MB.
PAIR_BUDGET = 1 << 16


def _segments(ptr: np.ndarray, flat: np.ndarray, owner: np.ndarray):
    """Row r's segment of a pair list holds flat[ptr[owner[r]]:ptr[owner[r] + 1]].

    Returns the members, and each row's segment start and length; a
    per-row value v spreads to the pairs as np.repeat(v, lens). Builds one
    int32 step array whose running sum is the flat position of every pair.
    """
    assert len(flat) < 2**31
    lo = ptr[owner]
    lens = ptr[owner + 1] - lo
    ends = np.cumsum(lens)
    starts = ends - lens
    full = lens > 0
    first, last = lo[full], (lo + lens - 1)[full]
    step = np.ones(ends[-1] if len(ends) else 0, dtype=np.int32)
    step[starts[full]] = first - np.concatenate(([0], last[:-1]))
    return flat[np.cumsum(step, out=step)], starts, lens


def _reduce(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray, lens: np.ndarray,
            empty: float = SENTINEL, dtype=None) -> np.ndarray:
    """ufunc over each row's segment of the last axis of `values`, as
    float64; `empty` where the segment is empty (reduceat would return the
    next segment's first value)."""
    out = np.full((*values.shape[:-1], len(lens)), empty)
    full = lens > 0
    out[..., full] = ufunc.reduceat(values, starts[full], axis=-1, dtype=dtype)
    return out


def _count(mask: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Ones per row segment of a bool or 0/1 uint8 `mask`'s last axis, as float64. The
    sum runs in the smallest dtype that holds the longest segment: a
    reduceat into int64 would first copy the whole mask to int64."""
    dtype = np.min_scalar_type(lens.max(initial=0))
    return _reduce(np.add, mask.view(np.uint8), starts, lens, 0.0, dtype=dtype)


def _lookup(row_of: Mapping[int, int], ids, table: str) -> list[int]:
    """Rows of `ids` in one of the index's row maps; `ValueError` naming the
    first id missing from the `table` table."""
    try:
        return [row_of[i] for i in ids]
    except KeyError as exc:
        raise ValueError(f"{table} {exc.args[0]} is not in the {table} table") from None


def _share(count: np.ndarray, total: np.ndarray) -> np.ndarray:
    """count / total in float64, SENTINEL where total is 0."""
    out = np.full(np.broadcast(count, total).shape, SENTINEL)
    return np.divide(count, total, out=out, where=total > 0)


class FeatureExtractor:
    """Computes feature rows of (user, candidate item) pairs over one dataset variant.

    `block` takes the pairs of any number of users and makes a number of
    numpy calls that does not grow with them. Row-wise columns are one
    gather from the variant's item arrays (`Dataset.index`) or one Python
    pass over the rows. Columns that reduce over a user's items or an
    item's users are `reduceat` over (row, source item) or (row, item user)
    pair lists, whose values come from the index's exact integer count
    tables: item x item co-users and token overlap, item x attribute-value
    user counts, user x user shared items and job roles. Every fraction is
    one float64 division of two exact integers.

    The variant's index rejects events that name users or items missing
    from its tables; `block` rejects a user missing from the user table and
    a candidate item missing from the item table, both with `ValueError`.
    """

    def __init__(self, dataset: Dataset, candidates: CandidateTable) -> None:
        self.dataset = dataset
        self.events = dataset.events
        self.index = dataset.index
        self.candidates = candidates
        self.schema = build_schema()
        names, self._item_block = self.index.item_block
        self._item_cols = [self.schema.index(name) for name in names]

    # -------------------------------------------------------- per-user state

    def _user_state(self, user_id: int) -> dict:
        ix, ev = self.index, self.events
        events = ev.interactions_of(user_id)
        positive = events[events.positive()]
        imps = ev.impressions_of(user_id)  # sorted by week
        kinds = events.kind.tolist()
        pos_items, pos_ts = positive.item_id.tolist(), positive.timestamp.tolist()
        imp_items_seq, imp_weeks = imps.item_id.tolist(), imps.week.tolist()
        last_any = pos_ts[-1] if pos_ts else None
        last_any_imp = imp_weeks[-1] if imp_weeks else None

        def window_counts(anchor: int | None) -> dict[int, int]:
            if anchor is None:
                return {}
            lo = bisect_right(pos_ts, anchor - 7 * DAY_SECONDS)
            hi = bisect_right(pos_ts, anchor)
            out: dict[int, int] = {}
            for i in pos_items[lo:hi]:
                out[i] = out.get(i, 0) + 1
            return out

        int_items, imp_items = ev.int_items(user_id), ev.imp_items(user_id)
        cluster_hits: set[int] = set()
        for i in int_items:
            cluster_hits |= ix.cluster.neighbors(i)

        # the data-anchored window is the last week, (now - 7 days, now]
        uir_data = window_counts(ix.now)
        imp_week = imp_items_seq[bisect_left(imp_weeks, ix.now_week):]
        columns = {
            "act_int_events": float(len(pos_ts)),
            "act_int_unique": float(len(int_items)),
            "act_int_events_week": float(sum(uir_data.values())),
            "act_int_unique_week": float(len(uir_data)),
            "act_imp_events": float(len(imp_weeks)),
            "act_imp_unique": float(len(imp_items)),
            "act_imp_events_week": float(len(imp_week)),
            "act_imp_unique_week": float(len(set(imp_week))),
            **{f"act_{k.name.lower()}": float(kinds.count(k)) for k in InteractionKind},
            "rec_user_seconds": float(ix.now - last_any) if last_any is not None else SENTINEL,
            "rec_user_weeks": (
                float(ix.now_week - last_any_imp) if last_any_imp is not None else SENTINEL
            ),
        }
        return {
            "columns": columns,
            "last_ts": dict(zip(pos_items, pos_ts)),
            "last_any": last_any,
            "last_imp_week": dict(zip(imp_items_seq, imp_weeks)),
            "last_any_imp": last_any_imp,
            "uir_user": window_counts(last_any),
            "uir_data": uir_data,
            "cluster_hits": cluster_hits,
        }

    # ------------------------------------------------------------ main block

    def block(self, pairs: Sequence[tuple[int, int]], out: np.ndarray | None = None) -> np.ndarray:
        """Feature rows of (user, item) pairs, in the given order, written
        into `out` (a (len(pairs), features) float64 array) when given."""
        schema, ix = self.schema, self.index
        col = schema.index
        n = len(pairs)
        if out is None:
            out = np.empty((n, len(schema)), dtype=np.float64)
        if not n:
            return out

        pair_users = [u for u, _ in pairs]
        cand_ids = [int(i) for _, i in pairs]
        ranks = self.candidates.ranks[self.candidates.rows_of(pair_users, cand_ids)]
        slot_of: dict[int, int] = {}
        owner_list = [slot_of.setdefault(u, len(slot_of)) for u in pair_users]
        user_rows = np.array(_lookup(ix.user_row, slot_of, "user"), dtype=np.int64)
        rows = np.array(_lookup(ix.row_of, cand_ids, "item"), dtype=np.int32)
        states = [self._user_state(u) for u in slot_of]
        owner = np.array(owner_list, dtype=np.int64)  # each row's user, as an index of `states`
        attrs = ix.attrs[rows]
        u_attrs = ix.user_attrs[user_rows]
        me = user_rows[owner].astype(np.int32)

        # ---- user-level columns: one gather of the users' values
        names = list(states[0]["columns"])
        out[:, [col(c) for c in names]] = np.array(
            [[st["columns"][c] for c in names] for st in states])[owner]

        # ---- candidate positions: one gather; recency, recent counts, cluster:
        # passes over the rows
        out[:, [col(f"pos_{slot}") for slot in SLOT_NAMES]] = np.where(ranks > 0, ranks, SENTINEL)
        row_states = [states[b] for b in owner_list]
        ts = [st["last_ts"].get(i) for st, i in zip(row_states, cand_ids)]
        wk = [st["last_imp_week"].get(i) for st, i in zip(row_states, cand_ids)]
        now, now_week = ix.now, ix.now_week
        out[:, col("rec_item_seconds")] = [
            float(now - t) if t is not None else SENTINEL for t in ts]
        out[:, col("rec_item_vs_last_seconds")] = [
            float(st["last_any"] - t) if t is not None else SENTINEL
            for st, t in zip(row_states, ts)]
        out[:, col("rec_item_weeks")] = [
            float(now_week - w) if w is not None else SENTINEL for w in wk]
        out[:, col("rec_item_vs_last_weeks")] = [
            float(st["last_any_imp"] - w) if w is not None else SENTINEL
            for st, w in zip(row_states, wk)]
        out[:, col("uir_user_week")] = [
            float(st["uir_user"].get(i, 0)) for st, i in zip(row_states, cand_ids)]
        out[:, col("uir_data_week")] = [
            float(st["uir_data"].get(i, 0)) for st, i in zip(row_states, cand_ids)]
        out[:, col("cluster_hit")] = [
            1.0 if i in st["cluster_hits"] else 0.0 for st, i in zip(row_states, cand_ids)]

        # ---- popularity and item properties
        out[:, self._item_cols] = self._item_block[rows]

        # ---- event_match, common_tokens, cf_item and cf_user, per source;
        # pair arrays are updated in place and dropped early, since they
        # set the call's peak memory
        codes, width = ix.attr_codes
        n_items, n_users = len(ix.item_ids), len(ix.user_row)
        for src in ("int", "imp"):
            flat, _, n_src = _segments(*ix.user_item_lists[src], user_rows)
            ptr = np.zeros(len(states) + 1, dtype=np.int64)
            np.cumsum(n_src, out=ptr[1:])
            flat_owner = np.repeat(np.arange(len(states)), n_src)
            # each user's items per attribute value, looked up at the candidate's value
            same = np.bincount((flat_owner[:, None] * width + codes[flat]).ravel(),
                               minlength=len(states) * width)
            out[:, [col(f"match_{src}_{a}") for a in ATTRS]] = _share(
                same[owner[:, None] * width + codes[rows]], n_src[owner, None])

            # (row, source item) pairs
            mat, deg, user_deg = ix.item_users[src]
            deg = deg.astype(np.int32)
            item, starts, lens = _segments(ptr, flat, owner)
            union = deg[item]
            cell = np.repeat(rows, lens)
            own = cell == item
            cell *= n_items
            cell += item  # the pair's position in an item x item table
            del item
            union += np.repeat(deg[rows], lens)
            overlap = np.array([t.ravel()[cell] for t in ix.token_overlap])
            out[:, [col(f"match_{src}_{f}") for f in TOKEN_FIELDS]] = _share(
                _count(overlap > 0, starts, lens).T, lens[:, None])
            out[:, [col(f"common_{f}_{src}") for f in TOKEN_FIELDS]] = _reduce(
                np.maximum, overlap, starts, lens).T
            # cf_item: max Jaccard over users between the candidate and each
            # of the user's items, self-pairs excluded
            inter = ix.co_users[src].ravel()[cell]
            del overlap, cell
            union -= inter
            jac = np.divide(inter, union, out=np.zeros(len(inter)), where=union > 0)
            del inter, union
            jac[own] = -np.inf
            valid = lens - _count(own, starts, lens)
            out[:, col(f"cf_item_{src}")] = np.where(
                valid > 0, _reduce(np.maximum, jac, starts, lens), SENTINEL)
            del jac, own

            if src == "int":
                # geo distance: nearest of the user's positively interacted items
                geo = ~np.isnan(ix.lat[flat])
                gptr = np.zeros(len(states) + 1, dtype=np.int64)
                np.cumsum(np.bincount(flat_owner[geo], minlength=len(states)), out=gptr[1:])
                there, starts, lens = _segments(gptr, flat[geo], owner)
                lat, lon = ix.lat[rows], ix.lon[rows]
                d = np.square(ix.lat[there] - np.repeat(lat, lens))
                d += np.square(ix.lon[there] - np.repeat(lon, lens))
                np.sqrt(d, out=d)
                out[:, col("geo_min_dist")] = np.where(
                    np.isnan(lat), SENTINEL, _reduce(np.minimum, d, starts, lens))
                del there, d

            # (row, candidate's user) pairs; cf_user: max Jaccard over items
            # between the user and each other user of the candidate
            other, starts, lens = _segments(*ix.item_user_lists[src], rows)
            den = np.repeat(n_src[owner].astype(np.int32), lens)
            den += user_deg.astype(np.int32)[other]
            cell = np.repeat(me, lens)
            own = other == cell
            cell *= n_users
            cell += other  # the pair's position in a user x user table
            del other
            shared = ix.shared_items[src].ravel()[cell]
            shared[own] = 0
            if src == "int":
                # share of the candidate's users holding one of the user's job roles
                roles = ix.shared_roles.ravel()[cell] > 0
                out[:, col("match_users_jobroles")] = _share(_count(roles, starts, lens), lens)
                del roles
            del cell
            den -= shared
            sims = np.divide(shared, den, out=np.zeros(len(shared)), where=shared > 0)
            del den, shared
            others = lens - _count(own, starts, lens)
            out[:, col(f"cf_user_{src}")] = np.where(
                others > 0, _reduce(np.maximum, sims, starts, lens, 0.0), SENTINEL)
            del sims, own

        # ---- event_match, user side: shares of the candidate's users with
        # the user's attribute values
        value_cols, counts = ix.user_attr_counts
        none = counts.shape[1] - 1
        c = np.array([[value_cols[k].get(v, none) for k, v in enumerate(vals)]
                      for vals in u_attrs.tolist()], dtype=np.int64).reshape(-1, len(ATTRS))
        out[:, [col(f"match_users_{a}") for a in ATTRS]] = _share(
            counts[rows[:, None], c[owner]], ix.item_users["int"][1][rows][:, None])

        # ---- content similarity
        out[:, col("cs_career_diff")] = attrs[:, 0] - u_attrs[owner, 0]
        out[:, [col(f"cs_eq_{a}") for a in ATTRS[1:]]] = attrs[:, 1:] == u_attrs[owner, 1:]
        tok, starts, lens = _segments(*ix.role_tokens, me)
        out[:, [col(f"cs_jobroles_{f}") for f in TOKEN_FIELDS]] = _count(
            ix.tokens[:, np.repeat(rows, lens), tok], starts, lens).T
        return out


def _chunks(extractor: FeatureExtractor, per_user: list[tuple[int, list[int]]]):
    """`per_user` in runs of whole users, one run per `block` call: at most
    `PAIR_BUDGET` (row, source item) and (row, item user) pairs per run,
    each row counted as one more pair, unless one user alone has more."""
    ix, ev = extractor.index, extractor.events
    deg = sum(d for _, d, _ in ix.item_users.values())
    run, cost = [], 0
    for u, its in per_user:
        pairs = len(its) * (1 + len(ev.int_items(u)) + len(ev.imp_items(u)))
        pairs += int(deg[_lookup(ix.row_of, its, "item")].sum())
        if run and cost + pairs > PAIR_BUDGET:
            yield run
            run, cost = [], 0
        run.append((u, its))
        cost += pairs
    if run:
        yield run


def build_matrix(
    dataset: Dataset,
    candidates: CandidateTable,
    rows: Sequence[tuple[int, int]] | None = None,
    ground_truth: GroundTruth | None = None,
) -> FeatureMatrix:
    """Feature matrix for (user, item) pairs.

    rows=None takes every pair of every candidate list in order; otherwise
    only the given pairs (which must appear in the candidate lists), grouped
    by user in order of first appearance. When ground_truth is given a 0/1
    label column is attached. Rows are extracted in `block` calls of whole
    users, each under `PAIR_BUDGET` pairs unless one user alone exceeds it.
    """
    extractor = FeatureExtractor(dataset, candidates)
    if rows is None:  # the table's rows, user by user
        per_user = [(u, cl.items()) for u, cl in candidates.items() if len(cl)]
    else:
        grouped: dict[int, list[int]] = {}
        for u, i in rows:
            grouped.setdefault(u, []).append(i)
        per_user = list(grouped.items())
    sizes = [len(its) for _, its in per_user]
    values = np.empty((sum(sizes), len(extractor.schema)), dtype=np.float64)
    lo = 0
    for run in _chunks(extractor, per_user):
        pairs = [(u, i) for u, its in run for i in its]
        extractor.block(pairs, out=values[lo : lo + len(pairs)])
        lo += len(pairs)
    users_out = np.repeat(np.array([u for u, _ in per_user], dtype=np.int64), sizes)
    items_out = np.fromiter(chain.from_iterable(its for _, its in per_user), dtype=np.int64,
                            count=len(values))
    labels = None
    if ground_truth is not None:
        labels = np.array(
            [1.0 if i in ground_truth.get(u, ()) else 0.0 for u, its in per_user for i in its],
            dtype=np.float64,
        )
    return FeatureMatrix(
        schema=extractor.schema,
        user_ids=users_out,
        item_ids=items_out,
        values=values,
        labels=labels,
    )
