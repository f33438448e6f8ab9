"""Independent brute-force reimplementations used as test oracles.

Everything here is deliberately naive: plain dict/loop implementations
with no code shared with the package beyond the entity data model. Tests
compare library output against these, so any agreement is meaningful.
"""

import numpy as np

from jobrec.entities import POSITIVE_KINDS, WEEK_SECONDS


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
            latest[e.item_id] = max(latest.get(e.item_id, -1), week)
            count[e.item_id] = count.get(e.item_id, 0) + 1
    else:
        for im in dataset.events.impressions:
            if im.user_id != user_id:
                continue
            latest[im.item_id] = max(latest.get(im.item_id, -1), im.week)
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


def boost_oracle(X, y, cfg):
    """The trees of a logloss boosting run without validation data, each
    grown by grow_oracle."""
    rate = float(y.mean())
    if cfg.base_margin is not None:
        base = float(cfg.base_margin)
    elif rate in (0.0, 1.0):
        base = 10.0 if rate else -10.0
    else:
        base = float(np.clip(np.log(rate / (1.0 - rate)), -10.0, 10.0))
    margin = np.full(X.shape[0], base)
    trees = []
    for _ in range(cfg.num_round):
        p = 1.0 / (1.0 + np.exp(-margin))
        tree = grow_oracle(X, p - y, p * (1.0 - p), cfg)
        trees.append(tree)
        margin += cfg.eta * tree_predict_oracle(tree, X)
    return trees
