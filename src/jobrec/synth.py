"""Seeded synthetic challenge-format data with planted topic structure.

Users and items are assigned to latent topics. Each topic owns disjoint
tag and title token pools; user job roles are drawn from the same pools,
so content overlap carries a real signal. Interactions mostly pick items
from the user's own topic, weighted by an item popularity skew and by
job-role token affinity, with a small repeat rate and uniform noise.
Impressions are noisy supersets of a week's interacted items plus popular
topic items. Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .entities import (
    Dataset,
    EventLog,
    ImpressionTable,
    InteractionKind,
    InteractionTable,
    Item,
    User,
    WEEK_SECONDS,
)

ITEM_ID_BASE = 100000
TOKENS_PER_TOPIC = 100
TAG_POOL = 40
TITLE_POOL = 40


@dataclass
class SynthConfig:
    users: int = 200
    items: int = 400
    weeks: int = 8
    seed: int = 0
    topics: int | None = None
    target_fraction: float = 0.5
    active_fraction: float = 0.55
    events_per_week: float = 2.0
    repeat_prob: float = 0.15
    noise_prob: float = 0.10
    impressions_per_week: float = 7.0
    delete_prob: float = 0.05
    # Monday 2015-01-05 00:00 UTC, so week buckets align with calendar weeks
    start_timestamp: int = 1420416000

    def n_topics(self) -> int:
        if self.topics is not None:
            return self.topics
        return int(np.clip(self.items // 250, 4, 16))

    def validate(self) -> None:
        if self.users < 10 or self.items < 10 or self.weeks < 3:
            raise ValueError("need at least 10 users, 10 items and 3 weeks")
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        if not 0.0 < self.active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")


def _tag_tokens(topic: int) -> np.ndarray:
    base = topic * TOKENS_PER_TOPIC + 1
    return np.arange(base, base + TAG_POOL)

def _title_tokens(topic: int) -> np.ndarray:
    base = topic * TOKENS_PER_TOPIC + 1 + TAG_POOL
    return np.arange(base, base + TITLE_POOL)


def _iso_week_index(ts: int) -> int:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().toordinal() // 7


def generate(config: SynthConfig) -> Dataset:
    config.validate()
    rng = np.random.default_rng(config.seed)
    n_topics = config.n_topics()

    # ---- items
    items: dict[int, Item] = {}
    item_topic = rng.integers(0, n_topics, size=config.items)
    topic_items: dict[int, list[int]] = {t: [] for t in range(n_topics)}
    for k in range(config.items):
        iid = ITEM_ID_BASE + k + 1
        t = int(item_topic[k])
        tags = rng.choice(_tag_tokens(t), size=int(rng.integers(3, 8)), replace=False)
        title = rng.choice(_title_tokens(t), size=int(rng.integers(3, 8)), replace=False)
        if rng.random() < 0.05:
            other = int(rng.integers(0, n_topics))
            tags = np.append(tags, rng.choice(_tag_tokens(other)))
        missing_geo = rng.random() < 0.10
        lat = float(10.0 * (t % 4) + rng.normal(0, 0.5))
        lon = float(10.0 * (t // 4) + rng.normal(0, 0.5))
        items[iid] = Item(
            id=iid,
            title=frozenset(int(x) for x in title),
            tags=frozenset(int(x) for x in tags),
            career_level=int(1 + (t % 5) + rng.integers(0, 3)),
            discipline_id=t + 1 if rng.random() < 0.9 else int(rng.integers(1, n_topics + 1)),
            industry_id=(t % 7) + 1,
            country=int(rng.integers(1, 5)),
            region=int(rng.integers(1, 17)),
            employment=int(rng.integers(1, 6)),
            latitude=None if missing_geo else lat,
            longitude=None if missing_geo else lon,
            created_at=int(config.start_timestamp + rng.integers(0, config.weeks * WEEK_SECONDS)),
            active_during_test=bool(rng.random() < config.active_fraction),
        )
        topic_items[t].append(iid)

    # popularity skew inside each topic
    topic_weights: dict[int, np.ndarray] = {}
    for t in range(n_topics):
        n = len(topic_items[t])
        if n == 0:
            topic_weights[t] = np.array([])
            continue
        ranks = rng.permutation(n) + 1
        w = ranks.astype(np.float64) ** -0.7
        topic_weights[t] = w / w.sum()

    all_item_ids = np.array(sorted(items), dtype=np.int64)

    # ---- users
    users: dict[int, User] = {}
    user_topic = rng.integers(0, n_topics, size=config.users)
    for k in range(config.users):
        uid = k + 1
        t = int(user_topic[k])
        pool = np.concatenate([_tag_tokens(t), _title_tokens(t)])
        jobroles = rng.choice(pool, size=int(rng.integers(4, 9)), replace=False)
        users[uid] = User(
            id=uid,
            jobroles=frozenset(int(x) for x in jobroles),
            career_level=int(1 + (t % 5) + rng.integers(0, 3)),
            discipline_id=t + 1 if rng.random() < 0.9 else int(rng.integers(1, n_topics + 1)),
            industry_id=(t % 7) + 1,
            country=int(rng.integers(1, 5)),
            region=int(rng.integers(1, 17)),
            experience_n_entries_class=int(rng.integers(0, 4)),
            experience_years_experience=int(rng.integers(0, 7)),
            experience_years_in_current=int(rng.integers(0, 7)),
            edu_degree=int(rng.integers(0, 4)),
            edu_fieldofstudies=frozenset(int(x) for x in rng.choice(pool, size=2, replace=False)),
        )

    # per-user sampling distribution over own-topic items: popularity times
    # job-role token affinity, the signal the ranking model is meant to learn
    user_item_p: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for uid, user in users.items():
        t = int(user_topic[uid - 1])
        ids = np.array(topic_items[t], dtype=np.int64)
        if len(ids) == 0:
            user_item_p[uid] = (all_item_ids, np.full(len(all_item_ids), 1.0 / len(all_item_ids)))
            continue
        aff = np.array(
            [1.0 + len(user.jobroles & (items[int(i)].tags | items[int(i)].title)) for i in ids]
        )
        w = topic_weights[t] * aff
        user_item_p[uid] = (ids, w / w.sum())

    # ---- interactions, as (user, item, kind, timestamp) rows
    interactions: list[tuple[int, int, int, int]] = []
    history: dict[int, list[int]] = {u: [] for u in users}
    rate = np.exp(rng.normal(np.log(config.events_per_week), 0.4, size=config.users))
    for week in range(config.weeks):
        week_start = config.start_timestamp + week * WEEK_SECONDS
        for uid in users:
            n_events = rng.poisson(rate[uid - 1])
            for _ in range(n_events):
                roll = rng.random()
                if roll < config.repeat_prob and history[uid]:
                    iid = int(history[uid][int(rng.integers(0, len(history[uid])))])
                elif roll < config.repeat_prob + config.noise_prob:
                    iid = int(all_item_ids[int(rng.integers(0, len(all_item_ids)))])
                else:
                    ids, p = user_item_p[uid]
                    iid = int(ids[rng.choice(len(ids), p=p)])
                kind_roll = rng.random()
                if kind_roll < config.delete_prob:
                    kind = InteractionKind.DELETE
                elif kind_roll < config.delete_prob + 0.80:
                    kind = InteractionKind.CLICK
                elif kind_roll < config.delete_prob + 0.89:
                    kind = InteractionKind.BOOKMARK
                else:
                    kind = InteractionKind.REPLY
                ts = int(week_start + rng.integers(0, WEEK_SECONDS))
                interactions.append((uid, iid, kind, ts))
                if kind != InteractionKind.DELETE:
                    history[uid].append(iid)

    # ---- impressions: noisy supersets of the week's interacted items
    by_user_week: dict[tuple[int, int], list[int]] = {}
    for uid, iid, kind, ts in interactions:
        if kind != InteractionKind.DELETE:
            wk = (ts - config.start_timestamp) // WEEK_SECONDS
            by_user_week.setdefault((uid, wk), []).append(iid)
    impressions: list[tuple[int, int, int]] = []
    for week in range(config.weeks):
        widx = _iso_week_index(config.start_timestamp + week * WEEK_SECONDS)
        for uid in users:
            shown: list[int] = []
            seen: set[int] = set()
            for iid in by_user_week.get((uid, week), []):
                if rng.random() < 0.7 and iid not in seen:
                    shown.append(iid)
                    seen.add(iid)
            n_extra = max(1, rng.poisson(config.impressions_per_week))
            ids, p = user_item_p[uid]
            for _ in range(n_extra):
                if rng.random() < 0.2:
                    iid = int(all_item_ids[int(rng.integers(0, len(all_item_ids)))])
                else:
                    iid = int(ids[rng.choice(len(ids), p=p)])
                if iid not in seen:
                    shown.append(iid)
                    seen.add(iid)
            for iid in shown:
                impressions.append((uid, iid, widx))

    # ---- targets
    n_targets = max(1, round(config.target_fraction * config.users))
    target_users = sorted(
        int(u) for u in rng.choice(np.array(sorted(users)), size=n_targets, replace=False)
    )

    return Dataset(
        users=users,
        items=items,
        events=EventLog(InteractionTable(*np.array(interactions, dtype=np.int64).reshape(-1, 4).T),
                        ImpressionTable(*np.array(impressions, dtype=np.int64).reshape(-1, 3).T)),
        target_users=target_users,
    )
