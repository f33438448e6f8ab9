"""Shared fixture builders.

Most suites construct tiny datasets by hand; these helpers keep that
terse. Each builder fills every non-essential field with a neutral
default so a test only spells out what it is actually exercising.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from jobrec.candidates import SLOT_NAMES, CandidateTable
from jobrec.entities import (
    Dataset,
    EventLog,
    Impression,
    Interaction,
    InteractionKind,
    Item,
    User,
)


def candidate_table(lists):
    """A CandidateTable from user -> item -> slot -> rank dicts, users and
    items in dict order."""
    rows = [slots for items in lists.values() for slots in items.values()]
    ranks = np.zeros((len(rows), len(SLOT_NAMES)), dtype=np.int64)
    for row, slots in enumerate(rows):
        for slot, rank in slots.items():
            ranks[row, SLOT_NAMES.index(slot)] = rank
    return CandidateTable(list(lists), np.cumsum([0, *map(len, lists.values())]),
                          [i for items in lists.values() for i in items], ranks)


@st.composite
def rank_lists(draw, max_users=6, max_items=12, max_rank=60):
    """user -> item -> slot -> rank dicts for `candidate_table`: distinct
    users, distinct items per user, each item ranked in one to four slots."""
    lists = {}
    for u in draw(st.lists(st.integers(0, 40), unique=True, max_size=max_users)):
        items = draw(st.lists(st.integers(0, 30), unique=True, max_size=max_items))
        lists[u] = {i: draw(st.dictionaries(st.sampled_from(SLOT_NAMES), st.integers(1, max_rank),
                                            min_size=1, max_size=4)) for i in items}
    return lists


def ranked(items, slot="global_popular"):
    """item -> {slot: rank}, ranks 1, 2, ... in list order."""
    return {i: {slot: rank} for rank, i in enumerate(items, start=1)}


KIND = {
    "click": InteractionKind.CLICK,
    "bookmark": InteractionKind.BOOKMARK,
    "reply": InteractionKind.REPLY,
    "delete": InteractionKind.DELETE,
}


def make_user(uid, **kw):
    kw.setdefault("jobroles", frozenset())
    return User(id=uid, **kw)


def make_item(iid, active=True, **kw):
    kw.setdefault("tags", frozenset())
    kw.setdefault("title", frozenset())
    return Item(id=iid, active_during_test=active, **kw)


def ev(u, i, kind="click", ts=0):
    return Interaction(user_id=u, item_id=i, kind=KIND[kind], timestamp=ts)


def imp(u, i, week):
    return Impression(user_id=u, item_id=i, week=week)


def make_dataset(users, items, interactions=(), impressions=(), targets=None):
    """Dataset from entity lists; targets default to every user."""
    users = {u.id: u for u in users}
    items = {i.id: i for i in items}
    log = EventLog(interactions, impressions)
    if targets is None:
        targets = sorted(users)
    return Dataset(users=users, items=items, events=log, target_users=list(targets))


# ---------------------------------------------------------------------------
# acceptance reporting: each acceptance test records one verdict here and the
# terminal summary prints one PASS/FAIL line per criterion.

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_acceptance(num, name, ok, detail=""):
    ACCEPTANCE_RESULTS[num] = (name, bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance summary")
    for num in sorted(ACCEPTANCE_RESULTS):
        name, ok, detail = ACCEPTANCE_RESULTS[num]
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
