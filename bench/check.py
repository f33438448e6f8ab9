"""Correctness facts and checks that do not use jobrec's own code.

The facts are read straight from the challenge-format input files the
benchmark wrote, so a defect in jobrec's loaders, split or scorer shows up
as a disagreement instead of being checked against itself.
"""

from __future__ import annotations

import csv
from pathlib import Path

WEEK_SECONDS = 7 * 24 * 3600
POSITIVE_CODES = {1, 2, 3}  # click, bookmark, reply
DELETE_CODE = 4
LIMIT = 30


def _rows(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        yield from csv.DictReader(lines, delimiter="\t")


def read_facts(raw_dir: Path, holdout_weeks: int = 1) -> dict:
    """Targets, held-out truth, pre-holdout deletes and active items.

    Interactions at or after max(created_at) - holdout_weeks weeks are the
    held-out week; truth is each target user's positively interacted items
    there, and deletes are the items a user deleted before it.
    """
    targets = [int(r["user_id"]) for r in _rows(raw_dir / "target_users.tsv")]
    active = [int(r["id"]) for r in _rows(raw_dir / "items.tsv") if r["active_during_test"] == "1"]
    events = [
        (int(r["user_id"]), int(r["item_id"]), int(r["interaction_type"]), int(r["created_at"]))
        for r in _rows(raw_dir / "interactions.tsv")
    ]
    boundary = max(ts for *_, ts in events) - holdout_weeks * WEEK_SECONDS
    target_set = set(targets)
    truth: dict[int, set[int]] = {}
    deletes: dict[int, set[int]] = {}
    for u, i, code, ts in events:
        if ts >= boundary and code in POSITIVE_CODES and u in target_set:
            truth.setdefault(u, set()).add(i)
        elif ts < boundary and code == DELETE_CODE:
            deletes.setdefault(u, set()).add(i)
    return {
        "targets": targets,
        "active": sorted(active),
        "truth": {str(u): sorted(s) for u, s in truth.items()},
        "deletes": {str(u): sorted(s) for u, s in deletes.items()},
    }


def read_submission(path: Path) -> dict[str, list[int]]:
    """Submission file: 'user TAB space-separated items', '#' lines skipped."""
    out: dict[str, list[int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            user, _, items = line.rstrip("\n").partition("\t")
            if user in out:
                raise ValueError(f"{path}: user {user} listed twice")
            out[user] = [int(t) for t in items.split()]
    return out


def score(submission: dict[str, list[int]], truth: dict[str, list[int]]) -> float:
    """Challenge score, corrected recall: summed over ground-truth users,
    20 * (p@2 + p@4 + success + hits/|truth|) + 10 * (p@6 + p@20)."""
    total = 0.0
    for user in sorted(truth, key=int):
        want = set(truth[user])
        items = submission.get(user, [])
        hit = [i in want for i in items]
        p = {k: sum(hit[:k]) / k for k in (2, 4, 6, 20)}
        success = 1.0 if any(hit) else 0.0
        recall = sum(hit) / len(want)
        total += 20.0 * (p[2] + p[4] + success + recall) + 10.0 * (p[6] + p[20])
    return total


def check_submission(
    submission: dict[str, list[int]], facts: dict, candidate_users: list[int]
) -> list[str]:
    """Problems with one submission; an empty list means it passes."""
    problems = []
    targets = {str(u) for u in facts["targets"]}
    active = set(facts["active"])
    for user, items in submission.items():
        if user not in targets:
            problems.append(f"user {user} is not a target user")
        if len(items) > LIMIT or len(set(items)) != len(items):
            problems.append(f"user {user}: {len(items)} items, {len(set(items))} unique")
        deleted = set(facts["deletes"].get(user, ())) & set(items)
        if deleted:
            problems.append(f"user {user}: deleted items {sorted(deleted)[:3]} submitted")
        inactive = set(items) - active
        if inactive:
            problems.append(f"user {user}: inactive items {sorted(inactive)[:3]} submitted")
    missing = [u for u in candidate_users if str(u) not in submission]
    if missing:
        problems.append(f"{len(missing)} target users with candidates are missing, e.g. {missing[:3]}")
    return problems
