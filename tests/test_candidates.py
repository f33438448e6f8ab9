"""Candidate generators against naive reimplementations.

Hand fixtures pin down each generator's ordering and filtering rules;
the randomized sweep at the bottom checks all fifteen slot rankings
against the oracles on fixtures small enough to brute force.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobrec.candidates import (
    CandidateGenerator,
    CandidateTable,
    GeneratorId,
    SLOT_COLUMNS,
    SLOT_NAMES,
    coverage,
    load_candidates,
    save_candidates,
)
from jobrec.dataio import RUN_CHARS, DataFormatError
from jobrec.entities import WEEK_SECONDS

import oracles
from conftest import KIND, candidate_table, ev, imp, make_dataset, make_item, make_user, rank_lists


WEEK = WEEK_SECONDS


def assert_tables_equal(a, b):
    for name in ("user_ids", "ptr", "item_ids", "ranks"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def random_dataset(rng, n_users=30, n_items=60, n_events=200, n_imps=200, weeks=6, shift=0):
    """`shift` moves every event by that many weeks; -2310 makes all weeks negative."""
    users = [
        make_user(
            u,
            jobroles=frozenset(rng.choice(40, size=int(rng.integers(0, 4)), replace=False).tolist()),
        )
        for u in range(1, n_users + 1)
    ]
    items = [
        make_item(
            100 + i,
            active=bool(rng.random() < 0.6),
            tags=frozenset(rng.choice(40, size=int(rng.integers(0, 5)), replace=False).tolist()),
            title=frozenset(rng.choice(40, size=int(rng.integers(0, 5)), replace=False).tolist()),
        )
        for i in range(1, n_items + 1)
    ]
    kinds = ["click", "click", "click", "bookmark", "reply", "delete"]
    interactions = [
        ev(
            int(rng.integers(1, n_users + 1)),
            100 + int(rng.integers(1, n_items + 1)),
            kinds[int(rng.integers(0, len(kinds)))],
            ts=int(rng.integers(0, weeks * WEEK)) + shift * WEEK,
        )
        for _ in range(n_events)
    ]
    impressions = [
        imp(
            int(rng.integers(1, n_users + 1)),
            100 + int(rng.integers(1, n_items + 1)),
            int(rng.integers(2300, 2300 + weeks)) + shift,
        )
        for _ in range(n_imps)
    ]
    return make_dataset(users, items, interactions, impressions)


@st.composite
def tiny_dataset(draw):
    """A small random dataset plus a cap and a neighbour count.

    Tags and titles draw from one token pool, empty sets included; job
    roles also draw tokens 8-11, which no item carries. User n+1 has no
    events and user n+2 only impressions; about one dataset in four has
    no active item."""
    tokens = st.frozensets(st.integers(0, 7), max_size=4)
    n_users, n_items = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    viewer = n_users + 2
    users = [
        make_user(u, jobroles=draw(st.frozensets(st.integers(0, 11), max_size=3)))
        for u in range(1, n_users + 3)
    ]
    none_active = draw(st.sampled_from([False, False, False, True]))
    items = [
        make_item(i, active=not none_active and draw(st.sampled_from([True, True, False])),
                  tags=draw(tokens), title=draw(tokens))
        for i in range(100, 100 + n_items)
    ]
    actor, item = st.integers(1, n_users), st.integers(100, 99 + n_items)
    rows = draw(st.lists(
        st.builds(ev, actor, item, st.sampled_from(sorted(KIND)), st.integers(0, 3 * WEEK)),
        max_size=25,
    ))
    imps = draw(st.lists(st.builds(imp, actor | st.just(viewer), item, st.integers(2300, 2303)),
                         max_size=15))
    imps.append(imp(viewer, draw(item), draw(st.integers(2300, 2303))))
    ds = make_dataset(users, items, rows, imps)
    return ds, draw(st.sampled_from([60, 2, 1])), draw(st.sampled_from([60, 1, 0]))


class TestArguments:
    @pytest.mark.parametrize("cap, neighbors, message", [
        (0, 60, "cap must be >= 1, got 0"),
        (60, -1, "neighbor_count must be >= 0, got -1"),
    ])
    def test_out_of_range_rejected(self, cap, neighbors, message):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=10)])
        with pytest.raises(ValueError, match=message):
            CandidateGenerator(ds, cap, neighbors)


class TestRecentInteractions:
    def test_week_order(self):
        ds = make_dataset(
            [make_user(1)],
            [make_item(101), make_item(102)],
            [ev(1, 101, ts=5 * WEEK), ev(1, 102, ts=7 * WEEK)],
        )
        assert CandidateGenerator(ds).gen_recent_interactions(1) == [102, 101]

    def test_count_tiebreak_same_week(self):
        rows = [ev(1, 101, ts=10), ev(1, 101, ts=11), ev(1, 101, ts=12), ev(1, 102, ts=13)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], rows)
        assert CandidateGenerator(ds).gen_recent_interactions(1) == [101, 102]

    def test_cap_at_60(self):
        rows = [ev(1, 100 + i, ts=i) for i in range(1, 71)]
        ds = make_dataset([make_user(1)], [make_item(100 + i) for i in range(1, 71)], rows)
        got = CandidateGenerator(ds).gen_recent_interactions(1)
        assert len(got) == 60

    def test_delete_not_a_positive(self):
        rows = [ev(1, 101, "delete", ts=10), ev(1, 102, "click", ts=5)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], rows)
        assert CandidateGenerator(ds).gen_recent_interactions(1) == [102]

    def test_inactive_filtered_before_cap(self):
        # 61 items, the newest one inactive: cap must not eat a live slot
        items = [make_item(100 + i) for i in range(1, 61)] + [make_item(999, active=False)]
        rows = [ev(1, 100 + i, ts=i) for i in range(1, 61)] + [ev(1, 999, ts=10**6)]
        ds = make_dataset([make_user(1)], items, rows)
        got = CandidateGenerator(ds).gen_recent_interactions(1)
        assert len(got) == 60
        assert 999 not in got


class TestRecentImpressions:
    def test_week_order(self):
        ds = make_dataset(
            [make_user(1)],
            [make_item(101), make_item(102)],
            impressions=[imp(1, 101, 2303), imp(1, 102, 2304)],
        )
        assert CandidateGenerator(ds).gen_recent_impressions(1) == [102, 101]

    def test_no_impressions_empty(self):
        ds = make_dataset([make_user(1)], [make_item(101)])
        assert CandidateGenerator(ds).gen_recent_impressions(1) == []

    def test_cap(self):
        imps = [imp(1, 100 + i, 2300) for i in range(1, 71)]
        ds = make_dataset([make_user(1)], [make_item(100 + i) for i in range(1, 71)], impressions=imps)
        assert len(CandidateGenerator(ds).gen_recent_impressions(1)) == 60


class TestSimilarUsers:
    def test_clone_neighbor_contributes_extra_item(self):
        rows = [
            ev(1, 101, ts=10), ev(1, 102, ts=20),
            ev(2, 101, ts=10), ev(2, 102, ts=20), ev(2, 109, ts=30),
        ]
        items = [make_item(i) for i in (101, 102, 109)]
        ds = make_dataset([make_user(1), make_user(2)], items, rows)
        got = CandidateGenerator(ds).gen_similar_user_items(1, "interactions")
        assert 109 in got

    def test_stronger_neighbor_items_first(self):
        # u3 shares 1/2 of u1's items, u4 shares 1/3: u3's exclusive items
        # must precede u4's
        rows = [
            ev(1, 101, ts=10), ev(1, 102, ts=10),
            ev(3, 101, ts=10), ev(3, 102, ts=10), ev(3, 201, ts=10),  # J = 2/3
            ev(4, 101, ts=10), ev(4, 202, ts=10), ev(4, 203, ts=10),  # J = 1/4
        ]
        items = [make_item(i) for i in (101, 102, 201, 202, 203)]
        ds = make_dataset([make_user(u) for u in (1, 3, 4)], items, rows)
        got = CandidateGenerator(ds).gen_similar_user_items(1, "interactions")
        assert got.index(201) < got.index(202)

    def test_own_items_still_emitted(self):
        # the generator does not subtract the user's own seen items
        rows = [ev(1, 101, ts=10), ev(2, 101, ts=10)]
        ds = make_dataset([make_user(1), make_user(2)], [make_item(101)], rows)
        got = CandidateGenerator(ds).gen_similar_user_items(1, "interactions")
        assert got == [101]


class TestContentKnn:
    def test_self_overlap_tops_ranking(self):
        items = [
            make_item(101, tags=frozenset({1, 2})),
            make_item(102, tags=frozenset({1, 2})),
            make_item(103, tags=frozenset({2})),
        ]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=10)])
        got = CandidateGenerator(ds).gen_content_knn(1, "interactions")
        assert got["content_int_tags_tags"][:2] == [101, 102]

    def test_zero_overlap_absent(self):
        items = [make_item(101, tags=frozenset({1})), make_item(102, tags=frozenset({9}))]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=10)])
        got = CandidateGenerator(ds).gen_content_knn(1, "interactions")
        assert 102 not in got["content_int_tags_tags"]

    def test_cross_field_variant(self):
        # candidate tags scored against source titles
        items = [
            make_item(101, title=frozenset({5, 6})),
            make_item(102, tags=frozenset({5})),
        ]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=10)])
        got = CandidateGenerator(ds).gen_content_knn(1, "interactions")
        assert got["content_int_tags_title"][0] == 102

    def test_no_source_items_all_empty(self):
        ds = make_dataset([make_user(1)], [make_item(101, tags=frozenset({1}))])
        got = CandidateGenerator(ds).gen_content_knn(1, "interactions")
        assert all(v == [] for v in got.values())

    def test_matches_oracle_on_fixture(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n_users=8, n_items=20, n_events=60, n_imps=40)
        gen = CandidateGenerator(ds)
        for u in range(1, 9):
            got = gen.gen_content_knn(u, "interactions")
            for cf, sf in (("tags", "tags"), ("title", "title"), ("tags", "title"), ("title", "tags")):
                want = oracles.knn_oracle(ds, u, "interactions", cf, sf, 60)
                assert got[f"content_int_{cf}_{sf}"] == want, (u, cf, sf)


def knn_fields_dataset(kind, seed=0, n_items=24):
    """Items whose tags and titles relate as `kind` says, each user with
    interactions and impressions on a few of them:
    - "shared": every token is used in both fields;
    - "disjoint": no token is in both fields;
    - "ties": 4 tokens in both fields, 2-4 per set, so many items score
      2 or more and tie on it;
    - "wide": 300 tokens in both fields, overlaps above 255."""
    rng = np.random.default_rng(seed)
    pools = {"shared": (range(6), range(6)), "disjoint": (range(10), range(10, 20)),
             "ties": (range(4), range(4)), "wide": (range(300), range(300))}[kind]
    sizes = {"ties": (2, 5), "wide": (250, 300)}.get(kind, (0, 4))

    def draw(pool):
        size = min(int(rng.integers(*sizes)), len(pool))
        return frozenset(rng.choice(list(pool), size=size, replace=False).tolist())

    items = [make_item(100 + i, active=bool(rng.random() < 0.7),
                       tags=draw(pools[0]), title=draw(pools[1])) for i in range(n_items)]
    rows = [ev(u, 100 + int(rng.integers(n_items)), ts=int(rng.integers(WEEK)))
            for u in range(1, 7) for _ in range(3)]
    imps = [imp(u, 100 + int(rng.integers(n_items)), 2300) for u in range(1, 7) for _ in range(3)]
    return make_dataset([make_user(u) for u in range(1, 8)], items, rows, imps)


class TestContentKnnCrossFields:
    """The overlap table's cross-field blocks against the oracle, where the
    fields share every token, none, or enough to tie above 1."""

    @pytest.mark.parametrize("kind", ["shared", "disjoint", "ties", "wide"])
    def test_all_crossings_match_oracle(self, kind):
        ds = knn_fields_dataset(kind)
        tags = set().union(*(it.tags for it in ds.items.values()))
        title = set().union(*(it.title for it in ds.items.values()))
        assert (tags == title) if kind != "disjoint" else not (tags & title)
        gen = CandidateGenerator(ds)
        scored = set()
        for u in [*ds.users, 99]:
            for source, prefix in (("interactions", "content_int"), ("impressions", "content_imp")):
                got = gen.gen_content_knn(u, source)
                for cf, sf in (("tags", "tags"), ("title", "title"), ("tags", "title"),
                               ("title", "tags")):
                    want = oracles.knn_oracle(ds, u, source, cf, sf, 60)
                    assert got[f"{prefix}_{cf}_{sf}"] == want, (u, source, cf, sf)
                    if want:
                        scored.add((cf, sf))
        crossings = {("tags", "title"), ("title", "tags")}
        assert crossings & scored == (set() if kind == "disjoint" else crossings)

    @pytest.mark.parametrize("kind, dtype", [("shared", np.uint8), ("wide", np.uint16),
                                             ("disjoint", np.uint8)])
    def test_table_holds_every_count(self, kind, dtype):
        ds = knn_fields_dataset(kind)
        gen = CandidateGenerator(ds)
        assert gen._overlap.dtype == dtype
        n_act = len(gen.active_ids)
        tokens = {f: [getattr(ds.items[i], f) for i in ds.index.item_ids.tolist()]
                  for f in ("tags", "title")}
        for block, (sf, cf) in enumerate([("tags", "tags"), ("tags", "title"),
                                          ("title", "tags"), ("title", "title")]):
            want = [[len(s & tokens[cf][r]) for r in ds.index.active_rows.tolist()]
                    for s in tokens[sf]]
            assert gen._overlap[:, block * n_act:(block + 1) * n_act].tolist() == want

    def test_ties_break_by_id(self):
        ds = knn_fields_dataset("ties")
        gen = CandidateGenerator(ds)
        ranked = gen.gen_content_knn(1, "interactions")["content_int_tags_title"]
        # (source field, candidate field): candidate tags against source titles
        scores = gen._knn_scores(ds.events.int_items(1))[1, 0]
        by_id = dict(zip(gen.active_ids.tolist(), scores.tolist()))
        keys = [(-by_id[i], i) for i in ranked]
        assert keys == sorted(keys) and keys[0][0] <= -2
        assert len({k for k, _ in keys}) < len(keys)


class TestJobrolesMatch:
    def test_hand_intersection(self):
        ds = make_dataset(
            [make_user(1, jobroles=frozenset({3, 4}))],
            [make_item(101, tags=frozenset({4})), make_item(102, tags=frozenset({9}))],
        )
        assert CandidateGenerator(ds).gen_jobroles_match(1, "tags") == [101]

    def test_disjoint_empty(self):
        ds = make_dataset(
            [make_user(1, jobroles=frozenset({3}))],
            [make_item(101, tags=frozenset({9}))],
        )
        assert CandidateGenerator(ds).gen_jobroles_match(1, "tags") == []

    def test_ties_ascending_id(self):
        ds = make_dataset(
            [make_user(1, jobroles=frozenset({3}))],
            [make_item(105, tags=frozenset({3})), make_item(101, tags=frozenset({3}))],
        )
        assert CandidateGenerator(ds).gen_jobroles_match(1, "tags") == [101, 105]

    def test_title_field(self):
        ds = make_dataset(
            [make_user(1, jobroles=frozenset({3, 4}))],
            [make_item(101, title=frozenset({3, 4})), make_item(102, title=frozenset({4}))],
        )
        assert CandidateGenerator(ds).gen_jobroles_match(1, "title") == [101, 102]


class TestGlobalPopular:
    def test_count_order(self):
        rows = [ev(u, 101, ts=u) for u in range(1, 6)] + [ev(u, 102, ts=u) for u in range(1, 10)]
        ds = make_dataset([make_user(u) for u in range(1, 10)], [make_item(101), make_item(102)], rows)
        assert CandidateGenerator(ds).gen_popular() == [102, 101]

    def test_inactive_excluded(self):
        rows = [ev(1, 101, ts=1), ev(2, 101, ts=2), ev(1, 102, ts=3)]
        ds = make_dataset(
            [make_user(1), make_user(2)],
            [make_item(101, active=False), make_item(102)],
            rows,
        )
        assert CandidateGenerator(ds).gen_popular() == [102]

    def test_equal_counts_ascending_id(self):
        rows = [ev(1, 105, ts=1), ev(1, 101, ts=2)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(105)], rows)
        assert CandidateGenerator(ds).gen_popular() == [101, 105]


class TestMerge:
    def test_multi_generator_item_keeps_all_positions(self):
        # one item reachable via recency, content and popularity
        items = [make_item(101, tags=frozenset({3}))]
        ds = make_dataset([make_user(1, jobroles=frozenset({3}))], items, [ev(1, 101, ts=10)])
        merged = CandidateGenerator(ds).generate(1)
        ranks = merged.ranks[101]
        assert ranks["recent_interactions"] == 1
        assert ranks["jobroles_tags"] == 1
        assert ranks["global_popular"] == 1
        assert len(merged) == 1

    def test_fallback_user_gets_exactly_global_popular(self):
        rows = [ev(2, 100 + i, ts=i) for i in range(1, 80)]
        items = [make_item(100 + i) for i in range(1, 80)]
        ds = make_dataset([make_user(1), make_user(2)], items, rows)
        merged = CandidateGenerator(ds).generate(1)
        popular = CandidateGenerator(ds).gen_popular()
        assert merged.items() == popular
        assert len(merged) == 60
        assert all(set(r) == {"global_popular"} for r in merged.ranks.values())

    def test_slot_count_and_bound(self):
        assert len(SLOT_NAMES) == 15
        knn = GeneratorId.CONTENT_KNN_INTERACTIONS
        assert [col for gen, col in SLOT_COLUMNS if gen == knn] == [
            "content_int_tags_tags",
            "content_int_title_title",
            "content_int_tags_title",
            "content_int_title_tags",
        ]

    def test_ranks_dense_from_one(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        gen = CandidateGenerator(ds)
        for u in (1, 2, 3):
            merged = gen.generate(u)
            by_slot = {}
            for item, ranks in merged.ranks.items():
                for slot, rank in ranks.items():
                    by_slot.setdefault(slot, []).append(rank)
            for slot, ranks in by_slot.items():
                assert sorted(ranks) == list(range(1, len(ranks) + 1)), slot


class TestOracleSweep:
    """All fifteen slots against the naive oracles on random fixtures."""

    def test_all_slots_match(self):
        rng = np.random.default_rng(77)
        lists_checked = 0
        # the last two trials hold only negative timestamps and weeks
        for trial in range(8):
            ds = random_dataset(
                rng,
                n_users=int(rng.integers(5, 25)),
                n_items=int(rng.integers(10, 50)),
                n_events=int(rng.integers(30, 250)),
                n_imps=int(rng.integers(20, 200)),
                shift=-2310 if trial >= 6 else 0,
            )
            gen = CandidateGenerator(ds)
            for u in ds.users:
                merged = gen.generate(u)
                want = oracles.merged_oracle(ds, u, 60, 60)
                got = {i: dict(r) for i, r in merged.ranks.items()}
                assert got == want, f"trial {trial} user {u}"
                lists_checked += 15
        assert lists_checked >= 6 * 5 * 15

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tiny_dataset())
    def test_random_datasets_match(self, case):
        ds, cap, neighbors = case
        gen = CandidateGenerator(ds, cap, neighbors)
        for u in ds.users:
            assert gen.generate(u).ranks == oracles.merged_oracle(ds, u, cap, neighbors), u

    def test_user_missing_from_the_table_rejected(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)])
        with pytest.raises(ValueError, match="^user 99 is not in the user table$"):
            CandidateGenerator(ds).generate(99)

    def test_small_cap_respected(self):
        rng = np.random.default_rng(78)
        ds = random_dataset(rng)
        gen = CandidateGenerator(ds, cap=7)
        act = oracles.active_set(ds)
        for u in ds.users:
            merged = gen.generate(u)
            per_slot = {}
            for item, ranks in merged.ranks.items():
                assert item in act
                for slot in ranks:
                    per_slot[slot] = per_slot.get(slot, 0) + 1
            assert all(n <= 7 for n in per_slot.values())
            assert len(merged) <= 15 * 7


class TestCandidateTable:
    def lists(self):
        return {7: {30: {"global_popular": 2}, 10: {"recent_interactions": 1}},
                3: {31: {"jobroles_tags": 300}}, 5: {}}

    def test_views_slice_the_table(self):
        table = candidate_table(self.lists())
        assert list(table) == [7, 3, 5] and len(table) == 3
        assert table.ranks.dtype == np.uint16 and table.ptr.tolist() == [0, 2, 3, 3]
        cl = table[7]
        assert cl.user_id == 7 and cl.items() == [30, 10] and len(cl) == 2
        assert np.shares_memory(cl.slot_ranks, table.ranks)
        assert 10 in cl and 31 not in cl and len(table[5]) == 0
        assert 99 not in table and table.get(99) is None
        with pytest.raises(KeyError):
            table[99]

    def test_rows_of_pairs_in_any_order(self):
        table = candidate_table(self.lists())
        assert table.rows_of([3, 7, 7], [31, 10, 30]).tolist() == [2, 1, 0]
        assert table.rows_of([], []).tolist() == []

    @pytest.mark.parametrize("users, items, message", [
        ([7, 5, 99], [10, 30, 1], r"^pair \(5, 30\) is not in the candidate list$"),
        ([7, 99, 5], [10, 1, 30], "^user 99 has no candidate list$"),
        ([3], [30], r"^pair \(3, 30\) is not in the candidate list$"),
    ])
    def test_rows_of_names_the_first_missing_pair(self, users, items, message):
        with pytest.raises(ValueError, match=message):
            candidate_table(self.lists()).rows_of(users, items)

    def test_empty_table(self):
        table = candidate_table({})
        assert len(table) == 0 and table.ranks.shape == (0, len(SLOT_NAMES))
        with pytest.raises(ValueError, match="^user 1 has no candidate list$"):
            table.rows_of([1], [2])

    def test_a_user_owns_one_run_of_rows(self):
        with pytest.raises(ValueError, match="more than one run"):
            CandidateTable([1, 1], [0, 1, 2], [5, 6], np.ones((2, len(SLOT_NAMES))))

    def test_generate_all_stacks_generate(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n_users=8)
        gen = CandidateGenerator(ds, cap=7)
        table = gen.generate_all([3, 1, 3, 2])
        assert list(table) == [3, 1, 2] and table.ranks.dtype == np.uint8
        for u in table:
            assert table[u].ranks == gen.generate(u).ranks
            assert table[u].items() == gen.generate(u).items()


class TestCoverage:
    def test_superset_is_one(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)])
        cands = CandidateGenerator(ds).generate_all([1])
        assert coverage(cands, {1: {101}}) == 1.0

    def test_disjoint_is_zero(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)])
        cands = CandidateGenerator(ds).generate_all([1])
        assert coverage(cands, {1: {999}}) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            coverage({}, {})

    def test_partial_matches_hand_count(self):
        ds = make_dataset(
            [make_user(1)],
            [make_item(101), make_item(102)],
            [ev(1, 101, ts=1)],
        )
        cands = CandidateGenerator(ds).generate_all([1])
        # candidates contain 101 (recent+popular) but not 102
        assert coverage(cands, {1: {101, 102, 999}}) == pytest.approx(1 / 3)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, n_users=6, n_items=25, n_events=80, n_imps=50)
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        path = tmp_path / "cands.tsv"
        save_candidates(cands, path, provenance={"stage": "candidates"})
        back = load_candidates(path)
        assert set(back) == set(cands)
        for u in cands:
            assert back[u].ranks == cands[u].ranks
            assert back[u].items() == cands[u].items()

    def write_rows(self, path, *rows):
        header = "\t".join(["user_id", "item_id"] + SLOT_NAMES)
        path.write_text("\n".join([header, *rows]) + "\n")

    @staticmethod
    def row(user, item, **ranks):
        return "\t".join([str(user), str(item), *(str(ranks.get(s, "")) for s in SLOT_NAMES)])

    def assert_round_trip(self, table, path, want=None):
        """save -> load gives an equal table (`want`, when some list is empty:
        a file holds no row for it), and saving it again the same bytes."""
        save_candidates(table, path, provenance={"stage": "candidates"})
        first = path.read_bytes()
        back = load_candidates(path)
        assert_tables_equal(back, table if want is None else want)
        save_candidates(back, path, provenance={"stage": "candidates"})
        assert path.read_bytes() == first
        return back

    def test_interleaved_users_group_in_order_of_first_row(self, tmp_path):
        path = tmp_path / "cands.tsv"
        self.write_rows(path, self.row(7, 30, global_popular=2), self.row(3, 31, jobroles_tags=1),
                        self.row(7, 10, recent_interactions=1, global_popular=1),
                        self.row(3, 30, jobroles_tags=2), self.row(5, 30, global_popular=1))
        table = load_candidates(path)
        assert list(table) == [7, 3, 5]
        assert [table[u].items() for u in table] == [[30, 10], [31, 30], [30]]
        assert table[7].ranks == {30: {"global_popular": 2},
                                  10: {"recent_interactions": 1, "global_popular": 1}}
        self.assert_round_trip(table, tmp_path / "again.tsv")

    def test_single_item_users(self, tmp_path):
        path = tmp_path / "cands.tsv"
        self.write_rows(path, *(self.row(u, 100 + u, content_imp_title_tags=u)
                                for u in range(1, 6)))
        table = load_candidates(path)
        assert [len(table[u]) for u in table] == [1] * 5
        assert table.ptr.tolist() == list(range(6))
        self.assert_round_trip(table, tmp_path / "again.tsv")

    def test_ranks_above_255_widen_the_dtype(self, tmp_path):
        path = tmp_path / "cands.tsv"
        self.write_rows(path, self.row(1, 10, global_popular=255),
                        self.row(1, 11, global_popular=256, recent_impressions=70000))
        table = load_candidates(path)
        assert table.ranks.dtype == np.uint32
        assert table[1].ranks[11] == {"recent_impressions": 70000, "global_popular": 256}
        self.assert_round_trip(table, tmp_path / "again.tsv")
        self.write_rows(path, self.row(1, 10, global_popular=255))
        assert load_candidates(path).ranks.dtype == np.uint8

    def test_empty_file_and_header_order(self, tmp_path):
        path = tmp_path / "cands.tsv"
        self.write_rows(path)
        assert len(load_candidates(path)) == 0
        self.assert_round_trip(load_candidates(path), tmp_path / "again.tsv")
        # columns in any order, an extra column ignored
        header = ["extra", *reversed(SLOT_NAMES), "item_id", "user_id"]
        path.write_text("\t".join(header) + "\n" + "\t".join(
            ["x", "4", *[""] * (len(SLOT_NAMES) - 1), "9", "2"]) + "\n")
        assert load_candidates(path)[2].ranks == {9: {"global_popular": 4}}

    def test_long_file_reads_across_runs(self, tmp_path):
        rng = np.random.default_rng(3)
        lists = {u: {i: {SLOT_NAMES[int(s)]: int(r) + 1}
                     for i, s, r in zip(rng.choice(5000, 300, replace=False),
                                        rng.integers(0, 15, 300), rng.integers(0, 60, 300))}
                 for u in rng.choice(100000, 40, replace=False).tolist()}
        table = candidate_table(lists)
        assert len(table.item_ids) * 40 > RUN_CHARS
        self.assert_round_trip(table, tmp_path / "cands.tsv")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rank_lists(max_rank=300))
    def test_random_tables_round_trip(self, tmp_path_factory, lists):
        listed = {u: items for u, items in lists.items() if items}
        back = self.assert_round_trip(candidate_table(lists),
                                      tmp_path_factory.mktemp("cands") / "cands.tsv",
                                      candidate_table(listed))
        assert {u: back[u].ranks for u in back} == listed

    def test_repeated_pair_rejected_at_second_row(self, tmp_path):
        blanks = "\t" * (len(SLOT_NAMES) - 1)
        path = tmp_path / "cands.tsv"
        self.write_rows(path, f"1\t101\t1{blanks}", f"1\t102\t2{blanks}",
                        f"1\t101\t{blanks}3")
        with pytest.raises(DataFormatError, match=r"cands.tsv:4: duplicate candidate: user 1, item 101"):
            load_candidates(path)

    @pytest.mark.parametrize("column", ["user_id", "item_id", *SLOT_NAMES])
    def test_bad_cell_names_line_and_column(self, tmp_path, column):
        cells = dict.fromkeys(["user_id", "item_id", *SLOT_NAMES], "1")
        cells[column] = "x"
        path = tmp_path / "cands.tsv"
        self.write_rows(path, "\t".join(cells.values()))
        with pytest.raises(DataFormatError, match=rf"cands.tsv:2: column '{column}'"):
            load_candidates(path)

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one_names_line_and_column(self, tmp_path, rank):
        """-1 would read as the features' SENTINEL, "not ranked"."""
        cells = dict.fromkeys(["user_id", "item_id", *SLOT_NAMES], "")
        cells.update(user_id="1", item_id="101", recent_interactions="2", recent_impressions=rank)
        path = tmp_path / "cands.tsv"
        self.write_rows(path, f"1\t100\t1{chr(9) * (len(SLOT_NAMES) - 1)}", "\t".join(cells.values()))
        with pytest.raises(DataFormatError,
                           match=rf"cands.tsv:3: column 'recent_impressions': rank must be >= 1, "
                                 rf"got {rank}"):
            load_candidates(path)

    def test_row_with_no_rank_rejected(self, tmp_path):
        path = tmp_path / "cands.tsv"
        self.write_rows(path, "1\t101" + "\t" * len(SLOT_NAMES))
        with pytest.raises(DataFormatError, match=r"cands.tsv:2: item 101 has no rank in any slot"):
            load_candidates(path)
