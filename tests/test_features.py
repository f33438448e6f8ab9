"""Per-group feature fixtures with hand-computed expected values."""

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobrec import features
from jobrec.candidates import CandidateGenerator, SLOT_NAMES, save_candidates, load_candidates
from jobrec.dataio import DataFormatError
from jobrec.entities import DAY_SECONDS, POSITIVE_KINDS, WEEK_SECONDS
from jobrec.features import (
    GEO_SENTINEL,
    SENTINEL,
    FeatureExtractor,
    FeatureMatrix,
    build_matrix,
    build_schema,
)
from jobrec.index import ItemClusterIndex
from jobrec.pipeline import build_training_file
from jobrec.split import build_ground_truth, temporal_split
from jobrec.synth import SynthConfig, generate

from conftest import KIND, candidate_table, ev, imp, make_dataset, make_item, make_user, ranked
from oracles import block_oracle, build_matrix_oracle


def one_block(ds, u, items):
    ext = FeatureExtractor(ds, candidate_table({u: ranked(items)}))
    return ext.block([(u, i) for i in items]), ext.schema


def val(block, schema, row, name):
    return block[row, schema.index(name)]


class TestSchema:
    def test_ninety_five_features(self):
        schema = build_schema()
        assert len(schema) == 95
        assert len(set(schema.names)) == 95

    def test_group_sizes(self):
        schema = build_schema()
        sizes = {}
        for spec in schema.specs:
            sizes[spec.group] = sizes.get(spec.group, 0) + 1
        assert sizes == {
            "event_match": 20,
            "popularity": 14,
            "cf_similarity": 4,
            "user_activity": 12,
            "recency": 6,
            "common_tokens": 4,
            "candidate_position": 15,
            "user_item_recent": 2,
            "item_property": 9,
            "content_similarity": 7,
            "geo_distance": 1,
            "item_cluster": 1,
        }

    def test_position_columns_match_slots(self):
        schema = build_schema()
        pos = [s.name for s in schema.specs if s.group == "candidate_position"]
        assert pos == [f"pos_{slot}" for slot in SLOT_NAMES]


class TestEventMatch:
    def test_half_discipline_match(self):
        # 2 of 4 clicked items share the candidate's discipline
        items = [
            make_item(101, discipline_id=7),
            make_item(102, discipline_id=7),
            make_item(103, discipline_id=8),
            make_item(104, discipline_id=9),
            make_item(200, discipline_id=7),
        ]
        rows = [ev(1, i, ts=10 + i) for i in (101, 102, 103, 104)]
        ds = make_dataset([make_user(1)], items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_int_discipline_id") == 0.5

    def test_full_country_match(self):
        items = [make_item(101, country=3), make_item(102, country=3), make_item(200, country=3)]
        rows = [ev(1, 101, ts=1), ev(1, 102, ts=2)]
        ds = make_dataset([make_user(1)], items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_int_country") == 1.0

    def test_no_interactions_sentinel(self):
        ds = make_dataset([make_user(1)], [make_item(200)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_int_discipline_id") == SENTINEL
        assert val(block, schema, 0, "match_int_tags") == SENTINEL

    def test_token_match_fraction(self):
        # one of two clicked items shares a tag token with the candidate
        items = [
            make_item(101, tags=frozenset({1})),
            make_item(102, tags=frozenset({9})),
            make_item(200, tags=frozenset({1, 5})),
        ]
        rows = [ev(1, 101, ts=1), ev(1, 102, ts=2)]
        ds = make_dataset([make_user(1)], items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_int_tags") == 0.5

    def test_impression_side(self):
        items = [make_item(101, industry_id=4), make_item(200, industry_id=4)]
        ds = make_dataset([make_user(1)], items, impressions=[imp(1, 101, 2300)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_imp_industry_id") == 1.0
        assert val(block, schema, 0, "match_int_industry_id") == SENTINEL

    def test_user_side_fraction(self):
        # item 200 clicked by users 2 (career 5) and 3 (career 1); user 1 has
        # career 5 -> half the item's audience matches
        users = [make_user(1, career_level=5), make_user(2, career_level=5), make_user(3, career_level=1)]
        items = [make_item(200), make_item(101)]
        rows = [ev(2, 200, ts=1), ev(3, 200, ts=2), ev(1, 101, ts=3)]
        ds = make_dataset(users, items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_users_career_level") == 0.5

    def test_user_side_no_audience_sentinel(self):
        ds = make_dataset([make_user(1)], [make_item(200)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_users_career_level") == SENTINEL

    def test_user_side_jobroles(self):
        users = [
            make_user(1, jobroles=frozenset({3})),
            make_user(2, jobroles=frozenset({3, 8})),
            make_user(3, jobroles=frozenset({9})),
        ]
        rows = [ev(2, 200, ts=1), ev(3, 200, ts=2)]
        ds = make_dataset(users, [make_item(200)], rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "match_users_jobroles") == 0.5


class TestPopularity:
    def anchor(self, rows, items=None, weeks=4):
        # pad with a neutral user so now = a round timestamp
        T = weeks * WEEK_SECONDS
        rows = rows + [ev(99, 998, ts=T), ev(99, 998, ts=100)]
        base_items = [make_item(998), make_item(200)]
        ds = make_dataset(
            [make_user(1), make_user(99)],
            base_items + (items or []),
            rows,
        )
        assert ds.events.max_timestamp == T
        return ds, T

    def test_no_clicks_smoothing_identity(self):
        ds, _ = self.anchor([])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "pop_int_total") == 0.0
        assert val(block, schema, 0, "pop_trend_week") == 1.0
        for d in range(7):
            assert val(block, schema, 0, f"pop_trend_day{d}") == 1.0

    def test_week_trend_two(self):
        # 9 clicks in (T-7d, T], 4 in (T-14d, T-7d] -> (9+1)/(4+1) = 2
        rows = [ev(1, 200, ts=4 * WEEK_SECONDS - 1000 - k) for k in range(9)]
        rows += [ev(1, 200, ts=4 * WEEK_SECONDS - 8 * DAY_SECONDS - k) for k in range(4)]
        ds, _ = self.anchor(rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "pop_trend_week") == 2.0

    def test_weekday_trend_two(self):
        T = 4 * WEEK_SECONDS
        now_day = T // DAY_SECONDS
        bucket = (now_day - 3) % 7
        d1 = now_day - 3
        d0 = d1 - 7
        rows = [ev(1, 200, ts=d1 * DAY_SECONDS + k) for k in range(3)]
        rows += [ev(1, 200, ts=d0 * DAY_SECONDS + 50)]
        ds, _ = self.anchor(rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, f"pop_trend_day{bucket}") == (3 + 1) / (1 + 1)

    def test_kind_counts_and_impressions(self):
        rows = [
            ev(2, 200, "click", ts=10),
            ev(3, 200, "bookmark", ts=11),
            ev(4, 200, "delete", ts=12),
        ]
        T = 4 * WEEK_SECONDS
        ds = make_dataset(
            [make_user(u) for u in (1, 2, 3, 4, 99)],
            [make_item(200), make_item(998)],
            rows + [ev(99, 998, ts=T), ev(99, 998, ts=100)],
            impressions=[imp(1, 200, 2300), imp(2, 200, 2301)],
        )
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "pop_click") == 1.0
        assert val(block, schema, 0, "pop_bookmark") == 1.0
        assert val(block, schema, 0, "pop_delete") == 1.0
        assert val(block, schema, 0, "pop_reply") == 0.0
        assert val(block, schema, 0, "pop_int_total") == 2.0  # delete not positive
        assert val(block, schema, 0, "pop_imp_total") == 2.0


class TestCfSimilarity:
    def test_self_pair_excluded(self):
        # u1 clicked 101 and 102; users(101) = {1,2}, users(102) = {1}
        # candidate 101: best OTHER source item is 102 -> J({1,2},{1}) = 1/2
        rows = [ev(1, 101, ts=1), ev(1, 102, ts=2), ev(2, 101, ts=3)]
        ds = make_dataset([make_user(1), make_user(2)], [make_item(101), make_item(102)], rows)
        block, schema = one_block(ds, 1, [101])
        assert val(block, schema, 0, "cf_item_int") == 0.5

    def test_only_self_in_basis_sentinel(self):
        rows = [ev(1, 101, ts=1)]
        ds = make_dataset([make_user(1)], [make_item(101)], rows)
        block, schema = one_block(ds, 1, [101])
        assert val(block, schema, 0, "cf_item_int") == SENTINEL

    def test_empty_basis_sentinel(self):
        ds = make_dataset([make_user(1), make_user(2)], [make_item(200)], [ev(2, 200, ts=1)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "cf_item_int") == SENTINEL

    def test_disjoint_users_zero(self):
        rows = [ev(1, 101, ts=1), ev(2, 200, ts=2)]
        ds = make_dataset([make_user(1), make_user(2)], [make_item(101), make_item(200)], rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "cf_item_int") == 0.0

    def test_user_side_max(self):
        # users(200) = {2,3}; Int-sim(1,2) = J({101,102},{101,200})... = 1/3
        # Int-sim(1,3) = J({101,102},{102,200}) = 1/3 -> max 1/3
        rows = [
            ev(1, 101, ts=1), ev(1, 102, ts=2),
            ev(2, 101, ts=3), ev(2, 200, ts=4),
            ev(3, 102, ts=5), ev(3, 200, ts=6),
        ]
        items = [make_item(i) for i in (101, 102, 200)]
        ds = make_dataset([make_user(u) for u in (1, 2, 3)], items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "cf_user_int") == pytest.approx(1 / 3)

    def test_user_side_brute_force_fixture(self):
        rng = np.random.default_rng(3)
        users = [make_user(u) for u in range(1, 6)]
        items = [make_item(100 + i) for i in range(1, 9)]
        rows = [
            ev(int(rng.integers(1, 6)), 100 + int(rng.integers(1, 9)), ts=int(t))
            for t in rng.integers(0, 1000, size=40)
        ]
        ds = make_dataset(users, items, rows)
        target = [i.id for i in items]
        block, schema = one_block(ds, 1, target)

        def jac(a, b):
            u = a | b
            return len(a & b) / len(u) if u else 0.0

        mine = ds.events.int_items(1)
        for r, i in enumerate(target):
            others = {e.user_id for e in ds.interactions
                      if e.item_id == i and e.kind in POSITIVE_KINDS and e.user_id != 1}
            want = max((jac(mine, ds.events.int_items(v)) for v in others), default=SENTINEL)
            assert val(block, schema, r, "cf_user_int") == pytest.approx(want)


class TestUserActivity:
    def test_with_repetitions_and_unique(self):
        rows = [ev(1, 101, ts=1), ev(1, 101, ts=2), ev(1, 102, ts=3), ev(99, 998, ts=4 * WEEK_SECONDS)]
        ds = make_dataset(
            [make_user(1), make_user(99)],
            [make_item(101), make_item(102), make_item(998), make_item(200)],
            rows,
        )
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "act_int_events") == 3.0
        assert val(block, schema, 0, "act_int_unique") == 2.0

    def test_no_events_zero(self):
        ds = make_dataset([make_user(1)], [make_item(200)])
        block, schema = one_block(ds, 1, [200])
        for name in ("act_int_events", "act_int_unique", "act_int_events_week", "act_int_unique_week"):
            assert val(block, schema, 0, name) == 0.0

    def test_old_events_not_in_week_window(self):
        rows = [ev(1, 101, ts=1), ev(99, 998, ts=4 * WEEK_SECONDS)]
        ds = make_dataset(
            [make_user(1), make_user(99)],
            [make_item(101), make_item(998), make_item(200)],
            rows,
        )
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "act_int_events") == 1.0
        assert val(block, schema, 0, "act_int_events_week") == 0.0

    def test_kind_counts(self):
        rows = [
            ev(1, 101, "click", ts=1),
            ev(1, 102, "bookmark", ts=2),
            ev(1, 103, "delete", ts=3),
            ev(1, 104, "reply", ts=4),
            ev(1, 104, "reply", ts=5),
        ]
        items = [make_item(i) for i in (101, 102, 103, 104, 200)]
        ds = make_dataset([make_user(1)], items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "act_click") == 1.0
        assert val(block, schema, 0, "act_bookmark") == 1.0
        assert val(block, schema, 0, "act_delete") == 1.0
        assert val(block, schema, 0, "act_reply") == 2.0

    def test_impression_counts(self):
        imps = [imp(1, 101, 2300), imp(1, 101, 2301), imp(1, 102, 2301)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102), make_item(200)], impressions=imps)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "act_imp_events") == 3.0
        assert val(block, schema, 0, "act_imp_unique") == 2.0
        # latest impression week is 2301: two events fall in it
        assert val(block, schema, 0, "act_imp_events_week") == 2.0
        assert val(block, schema, 0, "act_imp_unique_week") == 2.0


class TestRecency:
    def test_click_at_max_timestamp_zero_delta(self):
        rows = [ev(1, 101, ts=4 * WEEK_SECONDS), ev(1, 101, ts=100)]
        ds = make_dataset([make_user(1)], [make_item(101)], rows)
        block, schema = one_block(ds, 1, [101])
        assert val(block, schema, 0, "rec_item_seconds") == 0.0
        assert val(block, schema, 0, "rec_user_seconds") == 0.0

    def test_never_clicked_sentinel(self):
        rows = [ev(1, 101, ts=100), ev(1, 101, ts=4 * WEEK_SECONDS)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(200)], rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "rec_item_seconds") == SENTINEL
        assert val(block, schema, 0, "rec_item_vs_last_seconds") == SENTINEL

    def test_hand_deltas(self):
        # last click of the item at T-3600, last activity at T-60
        T = 4 * WEEK_SECONDS
        rows = [
            ev(1, 101, ts=T - 3600),
            ev(1, 102, ts=T - 60),
            ev(99, 998, ts=T),
            ev(99, 998, ts=100),
        ]
        items = [make_item(i) for i in (101, 102, 998)]
        ds = make_dataset([make_user(1), make_user(99)], items, rows)
        block, schema = one_block(ds, 1, [101])
        assert val(block, schema, 0, "rec_item_seconds") == 3600.0
        assert val(block, schema, 0, "rec_user_seconds") == 60.0
        assert val(block, schema, 0, "rec_item_vs_last_seconds") == 3540.0

    def test_impression_week_deltas(self):
        imps = [imp(1, 101, 2298), imp(1, 102, 2300), imp(2, 200, 2301)]
        ds = make_dataset(
            [make_user(1), make_user(2)],
            [make_item(101), make_item(102), make_item(200)],
            impressions=imps,
        )
        block, schema = one_block(ds, 1, [101])
        # dataset max impression week 2301
        assert val(block, schema, 0, "rec_item_weeks") == 3.0
        assert val(block, schema, 0, "rec_user_weeks") == 1.0
        assert val(block, schema, 0, "rec_item_vs_last_weeks") == 2.0


class TestCommonTokens:
    def test_self_pair_allowed(self):
        # candidate itself is in Int_u: the max includes the self pair
        items = [make_item(101, tags=frozenset({1, 2, 3})), make_item(102, tags=frozenset({1}))]
        rows = [ev(1, 101, ts=1), ev(1, 102, ts=2)]
        ds = make_dataset([make_user(1)], items, rows)
        block, schema = one_block(ds, 1, [101])
        assert val(block, schema, 0, "common_tags_int") == 3.0

    def test_no_shared_tokens_zero(self):
        items = [make_item(101, tags=frozenset({9})), make_item(200, tags=frozenset({1}))]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=1)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "common_tags_int") == 0.0

    def test_empty_basis_sentinel(self):
        ds = make_dataset([make_user(1)], [make_item(200, tags=frozenset({1}))])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "common_tags_int") == SENTINEL

    def test_max_matches_brute_force(self):
        rng = np.random.default_rng(8)
        items = [
            make_item(100 + i, tags=frozenset(rng.choice(15, size=4, replace=False).tolist()),
                      title=frozenset(rng.choice(15, size=4, replace=False).tolist()))
            for i in range(1, 10)
        ]
        rows = [ev(1, 100 + i, ts=i) for i in range(1, 6)]
        imps = [imp(1, 100 + i, 2300) for i in range(3, 8)]
        ds = make_dataset([make_user(1)], items, rows, imps)
        target = [it.id for it in items]
        block, schema = one_block(ds, 1, target)
        int_items = [ds.items[i] for i in ds.events.int_items(1)]
        imp_items = [ds.items[i] for i in ds.events.imp_items(1)]
        for r, iid in enumerate(target):
            it = ds.items[iid]
            assert val(block, schema, r, "common_tags_int") == max(
                len(it.tags & s.tags) for s in int_items
            )
            assert val(block, schema, r, "common_title_imp") == max(
                len(it.title & s.title) for s in imp_items
            )


class TestCandidatePosition:
    def test_rank_passthrough_and_sentinels(self):
        cands = candidate_table({1: {101: {"recent_interactions": 1, "global_popular": 7},
                                     102: {"global_popular": 1}}})
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], [ev(1, 101, ts=1)])
        ext = FeatureExtractor(ds, cands)
        block = ext.block([(1, 101), (1, 102)])
        schema = ext.schema
        assert val(block, schema, 0, "pos_recent_interactions") == 1.0
        assert val(block, schema, 0, "pos_global_popular") == 7.0
        assert val(block, schema, 0, "pos_jobroles_tags") == SENTINEL
        assert val(block, schema, 1, "pos_global_popular") == 1.0
        assert val(block, schema, 1, "pos_recent_interactions") == SENTINEL

    def test_pair_not_in_list_rejected(self):
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], [ev(1, 101, ts=1)])
        ext = FeatureExtractor(ds, candidate_table({1: ranked([101])}))
        with pytest.raises(ValueError):
            ext.block([(1, 102)])

    def test_unknown_user_rejected(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)])
        ext = FeatureExtractor(ds, candidate_table({}))
        with pytest.raises(ValueError):
            ext.block([(1, 101)])

    def test_user_missing_from_the_table_rejected(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)])
        ext = FeatureExtractor(ds, candidate_table({u: ranked([101]) for u in (1, 99)}))
        with pytest.raises(ValueError, match="^user 99 is not in the user table$"):
            ext.block([(1, 101), (99, 101)])

    def test_candidate_item_missing_from_the_table_rejected(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)])
        cands = candidate_table({1: ranked([101, 999])})
        with pytest.raises(ValueError, match="^item 999 is not in the item table$"):
            FeatureExtractor(ds, cands).block([(1, 999)])
        with pytest.raises(ValueError, match="^item 999 is not in the item table$"):
            build_matrix(ds, cands)

    def test_own_event_on_unknown_item_rejected_by_index(self):
        ds = make_dataset([make_user(1), make_user(5)], [make_item(101), make_item(102)],
                          [ev(1, 101, ts=1)], [imp(5, 999, 0)])
        message = "an event names item 999, which is not in the item table"
        with pytest.raises(ValueError, match=message):
            CandidateGenerator(ds)
        with pytest.raises(ValueError, match=message):
            build_matrix(ds, candidate_table({1: ranked([101])}))

    def test_ranks_match_saved_candidates(self, tmp_path):
        rng = np.random.default_rng(14)
        users = [make_user(u, jobroles=frozenset(rng.choice(10, size=2, replace=False).tolist()))
                 for u in range(1, 6)]
        items = [make_item(100 + i, tags=frozenset(rng.choice(10, size=2, replace=False).tolist()))
                 for i in range(1, 20)]
        rows = [ev(int(rng.integers(1, 6)), 100 + int(rng.integers(1, 20)), ts=int(t))
                for t in rng.integers(0, 10 * WEEK_SECONDS, size=60)]
        ds = make_dataset(users, items, rows)
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        path = tmp_path / "cands.tsv"
        save_candidates(cands, path)
        reloaded = load_candidates(path)
        ext = FeatureExtractor(ds, reloaded)
        for u in sorted(ds.users):
            items_u = reloaded[u].items()
            if not items_u:
                continue
            block = ext.block([(u, i) for i in items_u])
            for r, i in enumerate(items_u):
                for slot in SLOT_NAMES:
                    want = float(reloaded[u].ranks[i].get(slot, SENTINEL))
                    assert block[r, ext.schema.index(f"pos_{slot}")] == want


class TestUserItemRecent:
    def test_anchored_windows_hand_count(self):
        # user's last activity at T-10d: the user-anchored window catches
        # the burst at T-10d..T-16d, the data-anchored one catches nothing
        T = 8 * WEEK_SECONDS
        rows = [
            ev(1, 101, ts=T - 10 * DAY_SECONDS),
            ev(1, 101, ts=T - 11 * DAY_SECONDS),
            ev(1, 101, ts=T - 16 * DAY_SECONDS),
            ev(1, 102, ts=T - 12 * DAY_SECONDS),
            ev(1, 101, ts=T - 30 * DAY_SECONDS),
            ev(99, 998, ts=T),
            ev(99, 998, ts=100),
        ]
        items = [make_item(101), make_item(102), make_item(998)]
        ds = make_dataset([make_user(1), make_user(99)], items, rows)
        block, schema = one_block(ds, 1, [101, 102])
        # window (T-17d, T-10d]: item 101 events at -10d, -11d, -16d
        assert val(block, schema, 0, "uir_user_week") == 3.0
        assert val(block, schema, 0, "uir_data_week") == 0.0
        assert val(block, schema, 1, "uir_user_week") == 1.0

    def test_never_clicked_zero(self):
        rows = [ev(1, 101, ts=100), ev(1, 101, ts=4 * WEEK_SECONDS)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(200)], rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "uir_user_week") == 0.0
        assert val(block, schema, 0, "uir_data_week") == 0.0

    def test_coinciding_anchors_equal(self):
        rows = [ev(1, 101, ts=100), ev(1, 101, ts=4 * WEEK_SECONDS)]
        ds = make_dataset([make_user(1)], [make_item(101)], rows)
        block, schema = one_block(ds, 1, [101])
        assert val(block, schema, 0, "uir_user_week") == val(block, schema, 0, "uir_data_week") == 1.0


class TestItemProperty:
    def test_passthrough_and_sentinels(self):
        it = make_item(
            200,
            career_level=3,
            discipline_id=7,
            industry_id=2,
            country=4,
            region=9,
            employment=1,
            created_at=123456,
            latitude=50.5,
            longitude=8.25,
        )
        ds = make_dataset([make_user(1)], [it])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "prop_created_at") == 123456.0
        assert val(block, schema, 0, "prop_latitude") == 50.5
        assert val(block, schema, 0, "prop_longitude") == 8.25
        assert val(block, schema, 0, "prop_career_level") == 3.0
        assert val(block, schema, 0, "prop_employment") == 1.0

    def test_missing_geo_and_created(self):
        ds = make_dataset([make_user(1)], [make_item(200)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "prop_latitude") == GEO_SENTINEL
        assert val(block, schema, 0, "prop_longitude") == GEO_SENTINEL
        assert val(block, schema, 0, "prop_created_at") == SENTINEL


class TestContentSimilarity:
    def test_career_difference(self):
        ds = make_dataset([make_user(1, career_level=4)], [make_item(200, career_level=4), make_item(201, career_level=6)])
        block, schema = one_block(ds, 1, [200, 201])
        assert val(block, schema, 0, "cs_career_diff") == 0.0
        assert val(block, schema, 1, "cs_career_diff") == 2.0

    def test_jobroles_title_intersection(self):
        ds = make_dataset(
            [make_user(1, jobroles=frozenset({1, 2}))],
            [make_item(200, title=frozenset({2, 3}), tags=frozenset({1, 2}))],
        )
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "cs_jobroles_title") == 1.0
        assert val(block, schema, 0, "cs_jobroles_tags") == 2.0

    def test_equality_indicators(self):
        ds = make_dataset(
            [make_user(1, country=5, region=2, discipline_id=7, industry_id=3)],
            [make_item(200, country=5, region=9, discipline_id=7, industry_id=8)],
        )
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "cs_eq_country") == 1.0
        assert val(block, schema, 0, "cs_eq_region") == 0.0
        assert val(block, schema, 0, "cs_eq_discipline_id") == 1.0
        assert val(block, schema, 0, "cs_eq_industry_id") == 0.0


class TestGeoDistance:
    def test_same_coordinates_zero(self):
        items = [make_item(101, latitude=50.0, longitude=8.0), make_item(200, latitude=50.0, longitude=8.0)]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=1)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "geo_min_dist") == 0.0

    def test_three_four_five(self):
        items = [make_item(101, latitude=0.0, longitude=0.0), make_item(200, latitude=3.0, longitude=4.0)]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=1)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "geo_min_dist") == 5.0

    def test_min_over_clicked(self):
        items = [
            make_item(101, latitude=0.0, longitude=0.0),
            make_item(102, latitude=3.0, longitude=3.0),
            make_item(200, latitude=3.0, longitude=4.0),
        ]
        rows = [ev(1, 101, ts=1), ev(1, 102, ts=2)]
        ds = make_dataset([make_user(1)], items, rows)
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "geo_min_dist") == 1.0

    def test_no_geo_sentinel(self):
        ds = make_dataset([make_user(1)], [make_item(101), make_item(200, latitude=1.0, longitude=1.0)], [ev(1, 101, ts=1)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "geo_min_dist") == SENTINEL

    def test_candidate_without_geo_sentinel(self):
        items = [make_item(101, latitude=0.0, longitude=0.0), make_item(200)]
        ds = make_dataset([make_user(1)], items, [ev(1, 101, ts=1)])
        block, schema = one_block(ds, 1, [200])
        assert val(block, schema, 0, "geo_min_dist") == SENTINEL


class TestItemCluster:
    def test_within_window_clustered(self):
        rows = [ev(1, 101, ts=1000), ev(1, 102, ts=1599), ev(2, 101, ts=5000)]
        items = [make_item(101), make_item(102)]
        ds = make_dataset([make_user(1), make_user(2)], items, rows)
        idx = ItemClusterIndex(ds.events)
        assert 102 in idx.neighbors(101)
        assert 101 in idx.neighbors(102)
        # user 2 clicked only 101, so the cluster feature fires on 102
        block, schema = one_block(ds, 2, [102])
        assert val(block, schema, 0, "cluster_hit") == 1.0

    def test_outside_window_not_clustered(self):
        rows = [ev(1, 101, ts=1000), ev(1, 102, ts=1601)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], rows)
        idx = ItemClusterIndex(ds.events)
        assert idx.neighbors(101) == set()

    def test_different_users_not_clustered(self):
        rows = [ev(1, 101, ts=1000), ev(2, 102, ts=1001)]
        ds = make_dataset([make_user(1), make_user(2)], [make_item(101), make_item(102)], rows)
        idx = ItemClusterIndex(ds.events)
        assert idx.neighbors(101) == set()

    def test_symmetric_irreflexive_brute_force(self):
        rng = np.random.default_rng(17)
        rows = [
            ev(int(rng.integers(1, 4)), 100 + int(rng.integers(1, 6)), ts=int(t))
            for t in rng.integers(0, 3000, size=10)
        ]
        users = [make_user(u) for u in (1, 2, 3)]
        items = [make_item(100 + i) for i in range(1, 6)]
        ds = make_dataset(users, items, rows)
        idx = ItemClusterIndex(ds.events)
        pairs = set()
        for u in (1, 2, 3):
            evs = [e for e in rows if e.user_id == u]
            for a in evs:
                for b in evs:
                    if a.item_id != b.item_id and abs(a.timestamp - b.timestamp) <= 600:
                        pairs.add((a.item_id, b.item_id))
        for i in [it.id for it in items]:
            assert i not in idx.neighbors(i)
            for j in idx.neighbors(i):
                assert (i, j) in pairs
                assert i in idx.neighbors(j)
        for i, j in pairs:
            assert j in idx.neighbors(i)


class TestBuildMatrix:
    def small_ds(self, weeks=4):
        rng = np.random.default_rng(31)
        users = [make_user(u, jobroles=frozenset(rng.choice(8, size=2, replace=False).tolist()))
                 for u in range(1, 5)]
        items = [make_item(100 + i, tags=frozenset(rng.choice(8, size=2, replace=False).tolist()))
                 for i in range(1, 12)]
        rows = [ev(int(rng.integers(1, 5)), 100 + int(rng.integers(1, 12)), ts=int(t))
                for t in rng.integers(0, weeks * WEEK_SECONDS, size=50)]
        imps = [imp(int(rng.integers(1, 5)), 100 + int(rng.integers(1, 12)), 2300 + int(w))
                for w in rng.integers(0, weeks, size=30)]
        return make_dataset(users, items, rows, imps)

    def test_row_count_is_sum_of_lists(self):
        ds = self.small_ds()
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        matrix = build_matrix(ds, cands)
        assert len(matrix) == sum(len(c) for c in cands.values())
        assert matrix.labels is None

    def test_labels_attached(self):
        ds = self.small_ds()
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        some_item = cands[1].items()[0]
        matrix = build_matrix(ds, cands, ground_truth={1: {some_item}})
        assert matrix.labels is not None
        mask = (matrix.user_ids == 1) & (matrix.item_ids == some_item)
        assert matrix.labels[mask].tolist() == [1.0]
        assert matrix.labels.sum() == 1.0

    def test_save_load_bit_exact(self, tmp_path):
        ds = self.small_ds()
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        for truth in ({1: set(cands[1].items()[:2])}, None):
            matrix = build_matrix(ds, cands, ground_truth=truth)
            # a non-.npz name is kept as given, with no sidecar next to it
            directory = tmp_path / ("labeled" if truth else "unlabeled")
            directory.mkdir()
            path = directory / "matrix.tsv"
            matrix.save(path, {"stage": "features"})
            assert list(directory.iterdir()) == [path]
            back = FeatureMatrix.load(path)
            for name in ("user_ids", "item_ids", "values"):
                got, want = getattr(back, name), getattr(matrix, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if truth:
                assert back.labels.tobytes() == matrix.labels.tobytes()
            else:
                assert back.labels is None
            assert back.schema == matrix.schema
            assert back.schema.specs[back.schema.index("prop_latitude")].sentinel == GEO_SENTINEL

    @pytest.mark.parametrize("damage", ["legacy_tsv", "truncated", "missing_values"])
    def test_malformed_matrix_file_rejected(self, tmp_path, damage):
        ds = self.small_ds()
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        path = tmp_path / "matrix.npz"
        build_matrix(ds, cands).save(path)
        if damage == "legacy_tsv":
            path.write_text("# stage=features\nuser_id\titem_id\tpop_int_total\n1\t101\t3.0\n")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            with np.load(path) as archive:
                kept = {k: archive[k] for k in archive.files if k != "values"}
            with open(path, "wb") as fh:
                np.savez(fh, **kept)
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            FeatureMatrix.load(path)

    def test_train_vs_full_recency_shift(self):
        # same (user, item) featurized on the training split and the full
        # dataset: second-granularity deltas differ by the span between the
        # two max timestamps
        T = 8 * WEEK_SECONDS
        rows = [
            ev(1, 101, ts=T - 3 * WEEK_SECONDS),
            ev(2, 102, ts=T - 10),
            ev(2, 102, ts=T),
            ev(2, 102, ts=100),
        ]
        items = [make_item(101), make_item(102)]
        full = make_dataset([make_user(1), make_user(2)], items, rows)
        train, _ = temporal_split(full, holdout_weeks=1)
        span = full.events.max_timestamp - train.events.max_timestamp
        assert span > 0
        cands = candidate_table({1: ranked([101])})
        f_full, schema = one_block(full, 1, [101])
        ext_train = FeatureExtractor(train, cands)
        f_train = ext_train.block([(1, 101)])
        i = schema.index("rec_item_seconds")
        assert f_full[0, i] - f_train[0, i] == span
        i = schema.index("rec_user_seconds")
        assert f_full[0, i] - f_train[0, i] == span

    def test_fraction_features_in_range(self):
        ds = self.small_ds()
        cands = CandidateGenerator(ds).generate_all(sorted(ds.users))
        matrix = build_matrix(ds, cands)
        schema = matrix.schema
        frac_cols = [schema.index(n) for n in schema.names if n.startswith(("match_", "cf_"))]
        vals = matrix.values[:, frac_cols]
        ok = (vals == SENTINEL) | ((vals >= 0.0) & (vals <= 1.0))
        assert ok.all()


def bits(values):
    return values.view(np.uint64)


@st.composite
def tiny_variant(draw, lonely_item=False):
    """A small random dataset plus a candidate list for every user. Every
    list holds every item, so self-pairs and items without geo or
    created_at are scored. With lonely_item, one more item that no event
    names is in every list."""
    small = st.integers(0, 2)
    tokens = st.frozensets(st.integers(0, 7), max_size=4)

    def attrs():
        return {a: draw(small) for a in ("career_level", "discipline_id", "industry_id", "country", "region")}

    n_users, n_items = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    idle, viewer = n_users + 1, n_users + 2
    users = [make_user(u, jobroles=draw(tokens), **attrs()) for u in range(1, n_users + 3)]
    items = []
    for i in range(100, 100 + n_items):
        geo = draw(st.none() | st.tuples(*[st.floats(-90, 90, allow_nan=False)] * 2))
        items.append(make_item(
            i, tags=draw(tokens), title=draw(tokens), employment=draw(small),
            latitude=geo[0] if geo else None, longitude=geo[1] if geo else None,
            created_at=draw(st.none() | st.integers(0, 10**9)), **attrs(),
        ))
    if lonely_item:
        items.append(make_item(100 + n_items, tags=draw(tokens), **attrs()))
    actor, item = st.integers(1, n_users), st.integers(100, 99 + n_items)
    # whole days often put an event exactly on a week or day window's edge
    when = st.integers(0, 21).map(lambda d: d * DAY_SECONDS) | st.integers(0, 3 * WEEK_SECONDS)
    rows = draw(st.lists(st.builds(ev, actor, item, st.sampled_from(sorted(KIND)), when), max_size=25))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # exact repeats
    imps = draw(st.lists(st.builds(imp, actor, item, st.integers(2300, 2303)), max_size=12))
    if imps:
        imps += draw(st.lists(st.builds(imp, st.just(viewer), item, st.integers(2300, 2303)),
                              min_size=1, max_size=3))
    ds = make_dataset(users, items, rows, imps)
    cands = {}
    for u in [*range(1, n_users + 1), idle, viewer]:
        cands[u] = {i: {draw(st.sampled_from(SLOT_NAMES)): rank}
                    for rank, i in enumerate(draw(st.permutations(sorted(ds.items))), start=1)}
    return ds, candidate_table(cands)


class TestBlockMatchesOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tiny_variant())
    def test_random_variants_bit_equal(self, variant):
        ds, cands = variant
        ext = FeatureExtractor(ds, cands)
        for u, cl in cands.items():
            got = ext.block([(u, i) for i in cl.items()])
            assert np.array_equal(bits(got), bits(block_oracle(ext, u, cl.items())))

    def test_synth_matrices_bit_equal(self):
        ds = generate(SynthConfig(users=60, items=90, weeks=6, seed=5))
        train, holdout = temporal_split(ds, 1)
        inner, inner_holdout = temporal_split(train, 1)
        for variant, held in ((train, holdout), (inner, inner_holdout)):
            truth = build_ground_truth(held, ds.target_users)
            lists = CandidateGenerator(variant).generate_all(ds.target_users)
            tf = build_training_file(lists, truth, "paper", seed=1)
            for rows in (None, [(u, i) for u, i, _ in tf.train_rows + tf.valid_rows]):
                got = build_matrix(variant, lists, rows=rows, ground_truth=truth)
                want = build_matrix_oracle(variant, lists, rows=rows, ground_truth=truth)
                assert len(got) > 0
                assert np.array_equal(bits(got.values), bits(want.values))
                assert (got.user_ids == want.user_ids).all()
                assert (got.item_ids == want.item_ids).all()
                assert (got.labels == want.labels).all()


class TestBuildMatrixMatchesOracle:
    """build_matrix's batched calls against one block_oracle call per user."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(tiny_variant(lonely_item=True), st.data())
    def test_batched_matrix_bit_equal(self, variant, data):
        ds, cands = variant
        # every list holds every item: the idle user, the impressions-only
        # user and the item no event names are all in the pool; a
        # permutation interleaves the users
        pool = [(u, i) for u, cl in cands.items() for i in cl.items()]
        rows = data.draw(st.permutations(pool))
        rows += data.draw(st.lists(st.sampled_from(pool), max_size=8))  # repeated pairs
        if data.draw(st.booleans()):
            rows = None
        truth = data.draw(st.dictionaries(st.sampled_from(sorted(cands)),
                                          st.sets(st.sampled_from(sorted(ds.items)), min_size=1)))
        budget = data.draw(st.sampled_from([0, 60, features.PAIR_BUDGET]))
        calls = []
        block = FeatureExtractor.block

        def counted(self, pairs, out=None):
            calls.append(len(pairs))
            return block(self, pairs, out)

        with patch.object(features, "PAIR_BUDGET", budget), \
                patch.object(FeatureExtractor, "block", counted):
            got = build_matrix(ds, cands, rows=rows, ground_truth=truth)
        want = build_matrix_oracle(ds, cands, rows=rows, ground_truth=truth)
        assert np.array_equal(bits(got.values), bits(want.values))
        assert got.user_ids.tolist() == want.user_ids.tolist()
        assert got.item_ids.tolist() == want.item_ids.tolist()
        assert got.labels.tolist() == want.labels.tolist()
        assert sum(calls) == len(got)
        if budget == 0:  # one call per user
            assert len(calls) == len(set(got.user_ids.tolist()))
        elif budget == features.PAIR_BUDGET:
            assert len(calls) == 1
