"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately naive: plain dict/loop implementations
with no code shared with the package beyond the entity data model. Tests
compare library output against these, so any agreement is meaningful.
"""

import hashlib
import weakref
from bisect import bisect_right
from typing import Sequence

import numpy as np
from scipy import sparse

from jobrec.candidates import SLOT_NAMES
from jobrec.entities import DAY_SECONDS, InteractionKind, POSITIVE_KINDS, WEEK_SECONDS
from jobrec.features import GEO_SENTINEL, SENTINEL, FeatureExtractor, FeatureMatrix

_ATTRS = ["career_level", "discipline_id", "industry_id", "country", "region"]


# ------------------------------------------------------------- training file


def _hash_oracle(seed, value):
    digest = hashlib.blake2b(f"{seed}:{value}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def training_file_oracle(lists, truth, mode, seed):
    """(train users, valid users, train rows, valid rows) of
    build_training_file, from user -> item -> slot -> rank dicts, with the
    dict loops it ran before candidate lists became one rank table."""
    eligible = sorted(u for u in truth if lists.get(u))
    order = sorted(eligible, key=lambda u: (_hash_oracle(seed, u), u))
    half = (len(order) + 1) // 2
    train_users, valid_users = sorted(order[:half]), sorted(order[half:])

    def sample(users, quarter):
        rows = []
        for u in users:
            items = list(lists[u])
            pool = [i for i in items if i not in truth[u]]
            k = len(pool) // 4 if quarter else min(5, len(pool))
            chosen = []
            if k > 0:
                rng = np.random.default_rng(_hash_oracle(seed, u))
                chosen = [pool[j] for j in rng.choice(len(pool), size=k, replace=False)]
            rows += [(u, i, 1) for i in items if i in truth[u]] + [(u, i, 0) for i in chosen]
        return rows

    if mode == "extended":
        return eligible, valid_users, sample(eligible, True), sample(valid_users, False)
    return train_users, valid_users, sample(train_users, False), sample(valid_users, False)


# ---------------------------------------------------------------- evaluation


def user_score_oracle(items, truth, mode):
    def prec(k):
        hits = 0
        for rank in range(min(k, len(items))):
            if items[rank] in truth:
                hits += 1
        return hits / k

    hits_all = sum(1 for i in items if i in truth)
    success = 1 if hits_all > 0 else 0
    denom = max(1, len(truth)) if mode == "corrected" else min(1, len(truth))
    recall = hits_all / denom
    return 20 * (prec(2) + prec(4) + success + recall) + 10 * (prec(6) + prec(20))


def total_score_oracle(predictions, ground_truth, mode):
    return sum(
        user_score_oracle(list(predictions.get(u, [])), ground_truth[u], mode)
        for u in ground_truth
    )


# ---------------------------------------------------------------- event log


class ObjectEventLog:
    """`jobrec.entities.EventLog` as it was before its int64 columns: one
    record per event, grouped per user in Python, each user's list sorted
    by time (stable, so ties keep input order)."""

    def __init__(self, interactions, impressions) -> None:
        self.interactions = list(interactions)
        self.impressions = list(impressions)

        self.by_user_interactions = {}
        for ev in self.interactions:
            self.by_user_interactions.setdefault(ev.user_id, []).append(ev)
        for lst in self.by_user_interactions.values():
            lst.sort(key=lambda e: e.timestamp)

        self.by_user_impressions = {}
        for im in self.impressions:
            self.by_user_impressions.setdefault(im.user_id, []).append(im)
        for lst in self.by_user_impressions.values():
            lst.sort(key=lambda e: e.week)

        self.max_timestamp = max((e.timestamp for e in self.interactions), default=0)
        self.max_impression_week = max((im.week for im in self.impressions), default=0)

        self._int_items, self._del_items = {}, {}
        for u, evs in self.by_user_interactions.items():
            pos = frozenset(e.item_id for e in evs if e.kind in POSITIVE_KINDS)
            neg = frozenset(e.item_id for e in evs if e.kind == InteractionKind.DELETE)
            if pos:
                self._int_items[u] = pos
            if neg:
                self._del_items[u] = neg
        self._imp_items = {u: frozenset(im.item_id for im in lst)
                           for u, lst in self.by_user_impressions.items()}

    def interactions_of(self, user_id):
        return self.by_user_interactions.get(user_id, [])

    def impressions_of(self, user_id):
        return self.by_user_impressions.get(user_id, [])

    def int_items(self, user_id):
        return self._int_items.get(user_id, frozenset())

    def del_items(self, user_id):
        return self._del_items.get(user_id, frozenset())

    def imp_items(self, user_id):
        return self._imp_items.get(user_id, frozenset())


def split_oracle(log, holdout_weeks):
    """`temporal_split` over an `ObjectEventLog`: (train log, holdout
    interactions, holdout impressions), or None when the log spans fewer
    than two week buckets."""
    if holdout_weeks == 0:
        return ObjectEventLog(log.interactions, log.impressions), [], []
    int_weeks = {(log.max_timestamp - e.timestamp) // WEEK_SECONDS for e in log.interactions}
    if max(len(int_weeks), len({im.week for im in log.impressions})) < 2:
        return None
    boundary_ts = log.max_timestamp - holdout_weeks * WEEK_SECONDS
    boundary_week = log.max_impression_week - holdout_weeks
    train = ObjectEventLog([e for e in log.interactions if e.timestamp < boundary_ts],
                           [im for im in log.impressions if im.week <= boundary_week])
    return (train, [e for e in log.interactions if e.timestamp >= boundary_ts],
            [im for im in log.impressions if im.week > boundary_week])


def ground_truth_oracle(held_interactions, target_users):
    truth = {}
    for e in held_interactions:
        if e.kind in POSITIVE_KINDS and e.user_id in set(target_users):
            truth.setdefault(e.user_id, set()).add(e.item_id)
    return truth


# ---------------------------------------------------------------- similarity


def jaccard_oracle(a, b):
    union = a | b
    return len(a & b) / len(union) if union else 0.0


# ---------------------------------------------------- candidate generators


def active_set(dataset):
    return {i for i, it in dataset.items.items() if it.active_during_test}


def positive_events(dataset, user_id):
    return [
        e
        for e in dataset.events.interactions
        if e.user_id == user_id and e.kind in POSITIVE_KINDS
    ]


def int_set(dataset, user_id):
    return {e.item_id for e in positive_events(dataset, user_id)}


def imp_set(dataset, user_id):
    return {im.item_id for im in dataset.events.impressions if im.user_id == user_id}


def recent_oracle(dataset, user_id, source):
    """Active items ordered by (latest week desc, count desc, id asc), no cap."""
    latest, count = {}, {}
    if source == "interactions":
        for e in positive_events(dataset, user_id):
            week = e.timestamp // WEEK_SECONDS
            latest[e.item_id] = max(latest.get(e.item_id, week), week)
            count[e.item_id] = count.get(e.item_id, 0) + 1
    else:
        for im in dataset.events.impressions:
            if im.user_id != user_id:
                continue
            latest[im.item_id] = max(latest.get(im.item_id, im.week), im.week)
            count[im.item_id] = count.get(im.item_id, 0) + 1
    act = active_set(dataset)
    return sorted(
        (i for i in latest if i in act),
        key=lambda i: (-latest[i], -count[i], i),
    )


def similar_users_oracle(dataset, user_id, source, k):
    """All-pairs Jaccard neighbors, (score desc, id asc), zero excluded."""
    of = int_set if source == "interactions" else imp_set
    mine = of(dataset, user_id)
    user_ids = {e.user_id for e in dataset.events.interactions} | {
        im.user_id for im in dataset.events.impressions
    }
    scored = []
    for v in user_ids:
        if v == user_id:
            continue
        s = jaccard_oracle(mine, of(dataset, v))
        if s > 0:
            scored.append((s, v))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored[:k]


def similar_user_items_oracle(dataset, user_id, source, cap, neighbor_count):
    out, seen = [], set()
    for _, v in similar_users_oracle(dataset, user_id, source, neighbor_count):
        for item in recent_oracle(dataset, v, source):
            if item not in seen:
                seen.add(item)
                out.append(item)
                if len(out) == cap:
                    return out
    return out


def field_of(item, field):
    return item.tags if field == "tags" else item.title


def knn_oracle(dataset, user_id, source, cand_field, src_field, cap):
    """Active items scored by max token overlap against the user's items."""
    of = int_set if source == "interactions" else imp_set
    source_items = [dataset.items[i] for i in of(dataset, user_id) if i in dataset.items]
    if not source_items:
        return []
    scored = []
    for i in active_set(dataset):
        cand_tokens = field_of(dataset.items[i], cand_field)
        best = max(len(cand_tokens & field_of(s, src_field)) for s in source_items)
        if best > 0:
            scored.append((best, i))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [i for _, i in scored[:cap]]


def jobroles_oracle(dataset, user_id, field, cap):
    user = dataset.users.get(user_id)
    if user is None or not user.jobroles:
        return []
    scored = []
    for i in active_set(dataset):
        s = len(user.jobroles & field_of(dataset.items[i], field))
        if s > 0:
            scored.append((s, i))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [i for _, i in scored[:cap]]


def popular_oracle(dataset, cap):
    counts = {}
    for e in dataset.events.interactions:
        if e.kind in POSITIVE_KINDS:
            counts[e.item_id] = counts.get(e.item_id, 0) + 1
    act = active_set(dataset)
    ranked = sorted((i for i in counts if i in act), key=lambda i: (-counts[i], i))
    return ranked[:cap]


def recency_baseline_oracle(dataset, user_id, limit):
    """Items of the user's positive events by last timestamp desc (id asc),
    then shown items by (latest week desc, count desc, id asc); deleted and
    inactive items never appear, nor does an item twice; at most `limit`."""
    act = active_set(dataset)
    deleted = {
        e.item_id
        for e in dataset.events.interactions
        if e.user_id == user_id and e.kind == InteractionKind.DELETE
    }
    last = {}
    for e in positive_events(dataset, user_id):
        last[e.item_id] = max(last.get(e.item_id, e.timestamp), e.timestamp)
    latest, count = {}, {}
    for im in dataset.events.impressions:
        if im.user_id == user_id:
            latest[im.item_id] = max(latest.get(im.item_id, im.week), im.week)
            count[im.item_id] = count.get(im.item_id, 0) + 1
    clicked = sorted((i for i in last if i in act and i not in deleted),
                     key=lambda i: (-last[i], i))
    shown = sorted((i for i in latest if i in act and i not in deleted and i not in clicked),
                   key=lambda i: (-latest[i], -count[i], i))
    return (clicked + shown)[:limit]


def all_slots_oracle(dataset, user_id, cap, neighbor_count):
    """Every slot's ranking, keyed and ordered as the library's slot columns."""
    slots = {
        "recent_interactions": recent_oracle(dataset, user_id, "interactions")[:cap],
        "recent_impressions": recent_oracle(dataset, user_id, "impressions")[:cap],
        "similar_user_interactions": similar_user_items_oracle(
            dataset, user_id, "interactions", cap, neighbor_count
        ),
        "similar_user_impressions": similar_user_items_oracle(
            dataset, user_id, "impressions", cap, neighbor_count
        ),
    }
    for src, prefix in (("interactions", "content_int"), ("impressions", "content_imp")):
        for cf, sf in (("tags", "tags"), ("title", "title"), ("tags", "title"), ("title", "tags")):
            slots[f"{prefix}_{cf}_{sf}"] = knn_oracle(dataset, user_id, src, cf, sf, cap)
    slots["jobroles_tags"] = jobroles_oracle(dataset, user_id, "tags", cap)
    slots["jobroles_title"] = jobroles_oracle(dataset, user_id, "title", cap)
    slots["global_popular"] = popular_oracle(dataset, cap)
    return slots


def merged_oracle(dataset, user_id, cap, neighbor_count):
    """item -> slot -> rank merge of all slot rankings."""
    merged = {}
    for slot, ranking in all_slots_oracle(dataset, user_id, cap, neighbor_count).items():
        for rank, item in enumerate(ranking, start=1):
            merged.setdefault(item, {})[slot] = rank
    return merged


# ---------------------------------------------------------------- gbdt


def best_split_oracle(X, g, h, idx, cfg):
    """Exact greedy search over all features and distinct thresholds."""
    G = g[idx].sum()
    H = h[idx].sum()
    lam = cfg.reg_lambda
    parent = G * G / (H + lam)
    best = None
    for f in range(X.shape[1]):
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        gs = np.cumsum(g[idx][order])[:-1]
        hs = np.cumsum(h[idx][order])[:-1]
        cut = xs[1:] != xs[:-1]
        gl, hl = gs, hs
        gr, hr = G - gs, H - hs
        gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - cfg.gamma
        ok = cut & (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight) & (gain > 0.0)
        if not ok.any():
            continue
        pos = np.nonzero(ok)[0]
        j = pos[np.argmax(gain[pos])]
        cand = (float(gain[j]), f, float(xs[j]))
        # strict comparison keeps the lowest feature index on equal gain;
        # within a feature argmax already picks the lowest threshold
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def grow_oracle(X, g, h, cfg):
    """One tree from best_split_oracle, as the dict Tree.to_dict writes:
    nodes numbered in pre-order, left subtree first."""
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def build(idx, depth):
        node = len(tree["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1), ("value", 0.0)):
            tree[key].append(blank)
        split = best_split_oracle(X, g, h, idx, cfg) if depth < cfg.max_depth else None
        if split is None:
            tree["value"][node] = -g[idx].sum() / (h[idx].sum() + cfg.reg_lambda)
            return node
        _, f, thr = split
        tree["feature"][node] = f
        tree["threshold"][node] = thr
        left = X[idx, f] <= thr
        tree["left"][node] = build(idx[left], depth + 1)
        tree["right"][node] = build(idx[~left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return tree


def tree_predict_oracle(tree, X):
    out = np.empty(X.shape[0])
    for r in range(X.shape[0]):
        node = 0
        while tree["feature"][node] >= 0:
            go_left = X[r, tree["feature"][node]] <= tree["threshold"][node]
            node = tree["left"][node] if go_left else tree["right"][node]
        out[r] = tree["value"][node]
    return out


def logloss_oracle(margin, y):
    p = np.clip(1.0 / (1.0 + np.exp(-margin)), 1e-15, 1.0 - 1e-15)
    return float((-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))).mean())


def boost_oracle(X, y, cfg, valid=None):
    """Trees, eval_history and best_round of a logloss boosting run: each
    tree grown by grow_oracle, training and validation margins advanced by
    tree_predict_oracle, and validation data driving early stopping."""
    rate = float(y.mean())
    if cfg.base_margin is not None:
        base = float(cfg.base_margin)
    elif rate in (0.0, 1.0):
        base = 10.0 if rate else -10.0
    else:
        base = float(np.clip(np.log(rate / (1.0 - rate)), -10.0, 10.0))
    margin = np.full(X.shape[0], base)
    history = {"train": []}
    if valid is not None:
        Xv, yv = valid
        vmargin = np.full(Xv.shape[0], base)
        history["valid"] = []
    trees = []
    best_round, best_loss, patience = None, np.inf, cfg.early_stopping_rounds
    for _ in range(cfg.num_round):
        p = 1.0 / (1.0 + np.exp(-margin))
        tree = grow_oracle(X, p - y, p * (1.0 - p), cfg)
        trees.append(tree)
        margin += cfg.eta * tree_predict_oracle(tree, X)
        history["train"].append(logloss_oracle(margin, y))
        if valid is None:
            continue
        vmargin += cfg.eta * tree_predict_oracle(tree, Xv)
        history["valid"].append(logloss_oracle(vmargin, yv))
        if history["valid"][-1] < best_loss:
            best_loss, best_round = history["valid"][-1], len(trees)
        elif patience and len(trees) - (best_round or 0) >= patience:
            break
    if valid is not None and patience and best_round is not None:
        trees = trees[:best_round]
        history = {k: v[:best_round] for k, v in history.items()}
    return trees, history, best_round


# ---------------------------------------------------------------- features


def set_csr(sets, universe):
    """0/1 CSR matrix with one row per set, padded to at least one column."""
    rows = [r for r, members in enumerate(sets) for _ in members]
    cols = [universe[m] for members in sets for m in members]
    data = np.ones(len(rows), dtype=np.int32)
    return sparse.csr_matrix((data, (rows, cols)), shape=(len(sets), max(len(universe), 1)))


class _BlockOracle:
    """FeatureExtractor.block before it was vectorised: per-row loops,
    per-user sparse products and a per-event popularity count, over its
    own CSR matrices. Reads only the dataset, candidates, schema, cluster
    index and time anchors of the extractor it shadows."""

    def __init__(self, extractor):
        self.dataset = extractor.dataset
        self.events = ObjectEventLog(extractor.events.interactions, extractor.events.impressions)
        self.candidates = extractor.candidates
        self.schema = extractor.schema
        self.cluster = extractor.index.cluster
        self.now = extractor.index.now
        self.now_week = extractor.index.now_week

        dataset = self.dataset
        items = dataset.items
        self._item_ids = np.array(sorted(items), dtype=np.int64)
        self._row_of = {int(i): r for r, i in enumerate(self._item_ids)}
        tokens = sorted({t for it in items.values() for t in it.tags | it.title})
        self._vocab = {t: c for c, t in enumerate(tokens)}
        self._tags = set_csr([items[int(i)].tags for i in self._item_ids], self._vocab)
        self._title = set_csr([items[int(i)].title for i in self._item_ids], self._vocab)

        self._user_ids = np.array(sorted(dataset.users), dtype=np.int64)
        self._user_row = {int(u): r for r, u in enumerate(self._user_ids)}
        self._int_users: dict[int, set[int]] = {}
        for e in self.events.interactions:
            if e.kind in POSITIVE_KINDS:
                self._int_users.setdefault(e.item_id, set()).add(e.user_id)
        self._imp_users: dict[int, set[int]] = {}
        for im in self.events.impressions:
            self._imp_users.setdefault(im.item_id, set()).add(im.user_id)
        self._build_popularity()
        self._build_item_user_matrices()
        self._build_jobroles()

        self._item_attr_counts: dict[int, tuple[int, dict[str, dict[int, int]]]] = {}

    # -------------------------------------------------------- precomputation

    def int_users(self, item_id: int) -> set[int]:
        """Users who interacted positively with the item."""
        return self._int_users.get(item_id, set())

    def imp_users(self, item_id: int) -> set[int]:
        return self._imp_users.get(item_id, set())

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
        int_sets = [self.int_users(int(i)) for i in self._item_ids]
        imp_sets = [self.imp_users(int(i)) for i in self._item_ids]
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
        users = self.int_users(item_id)
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
                for v in self.int_users(i):
                    counts[v] = counts.get(v, 0) + 1
            for v, c in counts.items():
                if v != user_id:
                    sims[v] = c / (len(mine) + len(self.events.int_items(v)) - c)
        sims_imp: dict[int, float] = {}
        mine_imp = self.events.imp_items(user_id)
        if mine_imp:
            counts = {}
            for i in mine_imp:
                for v in self.imp_users(i):
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
                    self.int_users(i) if kind == "int" else self.imp_users(i)
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
        slot_ranks = cl.ranks
        for r, i in enumerate(cand_ids):
            ranks = slot_ranks[i]
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


_ORACLES = weakref.WeakKeyDictionary()


def block_oracle(extractor, user_id, items):
    """What FeatureExtractor.block returned before it was vectorised."""
    oracle = _ORACLES.get(extractor)
    if oracle is None:
        oracle = _ORACLES[extractor] = _BlockOracle(extractor)
    return oracle.block(user_id, items)


def build_matrix_oracle(dataset, candidates, rows=None, ground_truth=None):
    """build_matrix with every block from block_oracle, stacked by np.vstack."""
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

    blocks = [
        block_oracle(extractor, u, its) if its else np.empty((0, len(extractor.schema)))
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
