"""Ranking pipeline: training file construction, top-30 selection,
model blending and the no-model baselines."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .candidates import CandidateTable
from .dataio import DataFormatError, _write_tsv, format_provenance
from .entities import Dataset, GroundTruth
from .evaluation import MAX_ITEMS
from .features import FeatureMatrix
from .gbdt import GbdtModel


def stable_hash(seed: int, value: int) -> int:
    """Platform-stable 64-bit hash of (seed, value)."""
    digest = hashlib.blake2b(f"{seed}:{value}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class TrainingFile:
    """Row selections for the ranking model, split by user halves."""

    train_users: list[int]
    valid_users: list[int]
    train_rows: list[tuple[int, int, int]] = field(default_factory=list)  # (user, item, label)
    valid_rows: list[tuple[int, int, int]] = field(default_factory=list)


def _sample_rows(
    users: Sequence[int],
    candidates: CandidateTable,
    ground_truth: GroundTruth,
    seed: int,
    quarter: bool,
) -> list[tuple[int, int, int]]:
    """Per user, the candidates in the truth in list order, then a seeded
    sample of at most 5 of the others (a quarter of them when `quarter`)."""
    rows: list[tuple[int, int, int]] = []
    for u in users:
        truth, items = ground_truth[u], candidates[u].items()
        pool = [i for i in items if i not in truth]
        k = len(pool) // 4 if quarter else min(5, len(pool))
        picks = []
        if k:
            picks = np.random.default_rng(stable_hash(seed, u)).choice(len(pool), k, replace=False)
        rows += [(u, i, 1) for i in items if i in truth] + [(u, pool[j], 0) for j in picks]
    return rows


def build_training_file(
    candidates: CandidateTable,
    ground_truth: GroundTruth,
    mode: str = "paper",
    seed: int = 0,
) -> TrainingFile:
    """Select (user, item, label) rows for model fitting.

    Users with at least one held-out positive and a non-empty candidate
    list are split 50/50 by a seeded hash of the user id. mode="paper"
    keeps all positive candidates plus at most 5 sampled negatives per
    user on both halves; mode="extended" trains on every eligible user
    with all positives and a quarter of the negatives (the validation
    half keeps paper-mode sampling).
    """
    if mode not in ("paper", "extended"):
        raise ValueError(f"mode must be 'paper' or 'extended', got {mode!r}")
    eligible = [u for u in sorted(ground_truth) if u in candidates and len(candidates[u]) > 0]
    order = sorted(eligible, key=lambda u: (stable_hash(seed, u), u))
    half = (len(order) + 1) // 2
    train_users = sorted(order[:half]) if mode == "paper" else eligible
    valid_users = sorted(order[half:])
    return TrainingFile(
        train_users=train_users,
        valid_users=valid_users,
        train_rows=_sample_rows(train_users, candidates, ground_truth, seed, mode == "extended"),
        valid_rows=_sample_rows(valid_users, candidates, ground_truth, seed, False),
    )


@dataclass
class Prediction:
    user_id: int
    items: list[int]
    scores: list[float] = field(default_factory=list)


def rank_and_select(
    matrix: FeatureMatrix,
    probs: np.ndarray,
    deletes: Mapping[int, frozenset[int]] | None = None,
) -> list[Prediction]:
    """Per user: drop deleted items, order by probability desc (ties by
    ascending item id), keep the first `MAX_ITEMS`. Users keep matrix row
    order; each user's rows must be contiguous."""
    if len(probs) != len(matrix):
        raise ValueError("probability vector length does not match matrix rows")
    out: list[Prediction] = []
    users = matrix.user_ids
    if len(users) == 0:
        return out
    boundaries = np.nonzero(np.diff(users))[0] + 1
    starts = [0, *boundaries.tolist(), len(users)]
    seen: set[int] = set()
    for a, b in zip(starts[:-1], starts[1:]):
        u = int(users[a])
        if u in seen:
            raise ValueError(f"rows of user {u} are not contiguous in the feature matrix")
        seen.add(u)
        del_u = deletes.get(u, frozenset()) if deletes is not None else frozenset()
        items = matrix.item_ids[a:b]
        p = probs[a:b]
        keep = np.array([it not in del_u for it in items], dtype=bool)
        items = items[keep]
        p = p[keep]
        order = np.lexsort((items, -p))[:MAX_ITEMS]
        out.append(
            Prediction(
                user_id=u,
                items=[int(i) for i in items[order]],
                scores=[float(v) for v in p[order]],
            )
        )
    return out


def score_and_select(
    model: GbdtModel,
    matrix: FeatureMatrix,
    deletes: Mapping[int, frozenset[int]] | None = None,
) -> list[Prediction]:
    probs = model.predict_proba(matrix.values, feature_names=matrix.schema.names)
    return rank_and_select(matrix, probs, deletes)


def blend_probabilities(models: Sequence[GbdtModel], matrix: FeatureMatrix) -> np.ndarray:
    """Arithmetic mean of the models' probabilities.

    Per-row probabilities are sorted before summing so the result is
    bit-identical under any permutation of the model list.
    """
    if not models:
        raise ValueError("blend needs at least one model")
    names = models[0].feature_names
    for m in models[1:]:
        if m.feature_names != names:
            raise ValueError("models disagree on the feature schema, cannot blend")
    stacked = np.stack(
        [m.predict_proba(matrix.values, feature_names=matrix.schema.names) for m in models]
    )
    stacked.sort(axis=0)
    return stacked.sum(axis=0) / len(models)


def blend(
    models: Sequence[GbdtModel],
    matrix: FeatureMatrix,
    deletes: Mapping[int, frozenset[int]] | None = None,
) -> list[Prediction]:
    return rank_and_select(matrix, blend_probabilities(models, matrix), deletes)


# ------------------------------------------------------------------ baselines


def baseline_recency(
    dataset: Dataset, target_users: Sequence[int] | None = None, limit: int = MAX_ITEMS
) -> list[Prediction]:
    """Most recently interacted items first, padded with shown items.

    Deleted and inactive items are filtered from both parts before
    padding. Interactions order by last event timestamp desc then item
    id; impressions by the index's recency ranking (latest week desc,
    count desc, id asc).
    """
    ev, index = dataset.events, dataset.index
    users = dataset.target_users if target_users is None else list(target_users)
    active = index.active_set
    out: list[Prediction] = []
    for u in users:
        del_u = ev.del_items(u)
        events = ev.interactions_of(u)
        positive = events[events.positive()]
        last_ts = dict(zip(positive.item_id.tolist(), positive.timestamp.tolist()))
        ranked = sorted(
            (i for i in last_ts if i in active and i not in del_u), key=lambda i: (-last_ts[i], i)
        )[:limit]
        if len(ranked) < limit:
            chosen = set(ranked)
            pad = [i for i in index.recent_items(u, "impressions")
                   if i not in del_u and i not in chosen]
            ranked = ranked + pad[: limit - len(ranked)]
        out.append(Prediction(user_id=u, items=ranked))
    return out


def baseline_popular(
    dataset: Dataset, target_users: Sequence[int] | None = None, limit: int = MAX_ITEMS
) -> list[Prediction]:
    """Top active items by positive-interaction count, minus user deletes."""
    ev = dataset.events
    users = dataset.target_users if target_users is None else list(target_users)
    ranked_all = dataset.index.popular.tolist()
    out: list[Prediction] = []
    for u in users:
        del_u = ev.del_items(u)
        picks = [i for i in ranked_all if i not in del_u][:limit]
        out.append(Prediction(user_id=u, items=picks))
    return out


# -------------------------------------------------------------------- file io


def save_predictions(
    predictions: Sequence[Prediction],
    path: str | Path,
    provenance=None,
    scores_path: str | Path | None = None,
) -> None:
    """Challenge submission format: user_id TAB space-separated item ids."""
    for p in predictions:
        if len(p.items) > MAX_ITEMS:
            raise ValueError(f"user {p.user_id}: {len(p.items)} items exceeds {MAX_ITEMS}")
        if len(set(p.items)) != len(p.items):
            raise ValueError(f"user {p.user_id}: duplicate items in prediction")
    with open(path, "w", encoding="utf-8") as fh:
        for line in format_provenance(provenance):
            fh.write(line + "\n")
        for p in predictions:
            fh.write(f"{p.user_id}\t{' '.join(str(i) for i in p.items)}\n")
    if scores_path is not None:
        rows = (
            [str(p.user_id), " ".join(repr(s) for s in p.scores)] for p in predictions
        )
        _write_tsv(Path(scores_path), ["user_id", "scores"], rows, provenance)


def load_predictions(path: str | Path) -> dict[int, list[int]]:
    path = Path(path)
    out: dict[int, list[int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'user TAB items'")
            try:
                uid = int(parts[0])
                items = [int(tok) for tok in parts[1].split()] if parts[1] else []
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer id") from None
            if uid in out:
                raise DataFormatError(f"{path}:{lineno}: duplicate user {uid}")
            out[uid] = items
    return out
