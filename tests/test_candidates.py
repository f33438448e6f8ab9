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
    GeneratorId,
    SLOT_COLUMNS,
    SLOT_NAMES,
    coverage,
    load_candidates,
    save_candidates,
)
from jobrec.dataio import DataFormatError
from jobrec.entities import WEEK_SECONDS

import oracles
from conftest import KIND, ev, imp, make_dataset, make_item, make_user


WEEK = WEEK_SECONDS


def random_dataset(rng, n_users=30, n_items=60, n_events=200, n_imps=200, weeks=6):
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
            ts=int(rng.integers(0, weeks * WEEK)),
        )
        for _ in range(n_events)
    ]
    impressions = [
        imp(
            int(rng.integers(1, n_users + 1)),
            100 + int(rng.integers(1, n_items + 1)),
            int(rng.integers(2300, 2300 + weeks)),
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

    @pytest.mark.parametrize("kind, dtype", [("shared", np.uint8), ("wide", np.uint16)])
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
        for trial in range(6):
            ds = random_dataset(
                rng,
                n_users=int(rng.integers(5, 25)),
                n_items=int(rng.integers(10, 50)),
                n_events=int(rng.integers(30, 250)),
                n_imps=int(rng.integers(20, 200)),
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
