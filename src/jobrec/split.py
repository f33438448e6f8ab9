"""Temporal train/holdout splitting of a dataset."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .entities import WEEK_SECONDS, Dataset, EventLog, GroundTruth, ImpressionTable, InteractionTable

log = logging.getLogger(__name__)


@dataclass
class Holdout:
    interactions: InteractionTable
    impressions: ImpressionTable
    boundary_timestamp: int
    boundary_week: int


def _span_weeks(dataset: Dataset) -> int:
    """Distinct week buckets covered, the larger of both event sides."""
    ev = dataset.events
    int_weeks = np.unique((ev.max_timestamp - ev.interactions.timestamp) // WEEK_SECONDS)
    return max(len(int_weeks), len(np.unique(ev.impressions.week)))


def temporal_split(dataset: Dataset, holdout_weeks: int = 1) -> tuple[Dataset, Holdout]:
    """Cut the last `holdout_weeks` weeks of events into a holdout.

    Interactions are cut at max_timestamp - holdout_weeks * WEEK_SECONDS
    (train keeps strictly-earlier events). Impressions only carry a week
    index, so the last `holdout_weeks` observed week indexes go to the
    holdout. holdout_weeks=0 returns the full dataset and an empty holdout.
    """
    if holdout_weeks < 0:
        raise ValueError(f"holdout_weeks must be >= 0, got {holdout_weeks}")
    ev = dataset.events
    if holdout_weeks == 0:
        train = Dataset(
            users=dataset.users,
            items=dataset.items,
            events=EventLog(ev.interactions, ev.impressions),
            target_users=dataset.target_users,
        )
        return train, Holdout(ev.interactions[:0], ev.impressions[:0],
                              ev.max_timestamp + 1, ev.max_impression_week + 1)

    if _span_weeks(dataset) < 2:
        raise ValueError("dataset spans a single week, nothing left to train on after a holdout")

    boundary_ts = ev.max_timestamp - holdout_weeks * WEEK_SECONDS
    boundary_week = ev.max_impression_week - holdout_weeks

    int_train = ev.interactions.timestamp < boundary_ts
    imp_train = ev.impressions.week <= boundary_week
    train_int = ev.interactions[int_train]

    if not len(train_int):
        log.warning("temporal_split: no interactions before the holdout boundary, train side is empty")

    train = Dataset(
        users=dataset.users,
        items=dataset.items,
        events=EventLog(train_int, ev.impressions[imp_train]),
        target_users=dataset.target_users,
    )
    holdout = Holdout(ev.interactions[~int_train], ev.impressions[~imp_train],
                      boundary_ts, boundary_week)
    return train, holdout


def build_ground_truth(holdout: Holdout, target_users: list[int]) -> GroundTruth:
    """Positively interacted holdout items per target user; empty sets omitted."""
    held = holdout.interactions
    held = held[held.positive() & np.isin(held.user_id, list(target_users))]
    truth: GroundTruth = {}
    for u, i in zip(held.user_id.tolist(), held.item_id.tolist()):
        truth.setdefault(u, set()).add(i)
    return truth
