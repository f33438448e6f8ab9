"""Training-file construction, ranking, blending, baselines, file IO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobrec.candidates import CandidateList
from jobrec.entities import WEEK_SECONDS
from jobrec.features import build_schema, FeatureMatrix
from jobrec.gbdt import TrainConfig, train
from jobrec.pipeline import (
    Prediction,
    baseline_popular,
    baseline_recency,
    blend,
    blend_probabilities,
    build_training_file,
    load_predictions,
    rank_and_select,
    save_predictions,
    score_and_select,
    stable_hash,
)

import oracles
from conftest import KIND, ev, imp, make_dataset, make_item, make_user


def cand_list(u, items):
    cl = CandidateList(u)
    for rank, i in enumerate(items, start=1):
        cl.add(i, "global_popular", rank)
    return cl


class StubSchema:
    def __init__(self, names):
        self.names = list(names)

    def __len__(self):
        return len(self.names)


def tiny_matrix(rows):
    """FeatureMatrix with one dummy feature per (user, item) row."""
    schema = build_schema()
    values = np.zeros((len(rows), len(schema)))
    return FeatureMatrix(
        schema=schema,
        user_ids=np.array([u for u, _ in rows], dtype=np.int64),
        item_ids=np.array([i for _, i in rows], dtype=np.int64),
        values=values,
        labels=None,
    )


class TestStableHash:
    def test_deterministic_across_runs(self):
        assert stable_hash(42, 7) == stable_hash(42, 7)
        assert stable_hash(42, 7) != stable_hash(42, 8)
        assert stable_hash(41, 7) != stable_hash(42, 7)

    def test_known_range(self):
        v = stable_hash(0, 0)
        assert 0 <= v < 2**64


class TestTrainingFile:
    def truth_and_cands(self, n_users=8, n_cands=14, n_pos=2):
        truth = {}
        cands = {}
        for u in range(1, n_users + 1):
            items = [u * 100 + j for j in range(n_cands)]
            cands[u] = cand_list(u, items)
            truth[u] = set(items[:n_pos])
        return truth, cands

    def test_paper_mode_two_pos_plus_five_negs(self):
        truth, cands = self.truth_and_cands(n_users=1, n_cands=14, n_pos=2)
        tf = build_training_file(cands, truth, mode="paper", seed=0)
        rows = tf.train_rows + tf.valid_rows
        assert len(rows) == 7
        assert sum(1 for _, _, y in rows if y == 1) == 2
        assert sum(1 for _, _, y in rows if y == 0) == 5

    def test_fewer_negatives_than_five(self):
        truth, cands = self.truth_and_cands(n_users=1, n_cands=5, n_pos=2)
        tf = build_training_file(cands, truth, mode="paper", seed=0)
        rows = tf.train_rows + tf.valid_rows
        assert sum(1 for _, _, y in rows if y == 0) == 3

    def test_user_without_covered_positives_still_included(self):
        # ground truth items that never made the candidate list
        cands = {1: cand_list(1, [11, 12, 13])}
        truth = {1: {999}}
        tf = build_training_file(cands, truth, mode="paper", seed=0)
        rows = tf.train_rows + tf.valid_rows
        assert len(rows) == 3
        assert all(y == 0 for _, _, y in rows)

    def test_extended_mode_quarter_negatives(self):
        truth, cands = self.truth_and_cands(n_users=2, n_cands=18, n_pos=2)
        tf = build_training_file(cands, truth, mode="extended", seed=0)
        # both users train in extended mode: 16 negatives -> floor(16/4) = 4
        per_user = {}
        for u, _, y in tf.train_rows:
            per_user.setdefault(u, [0, 0])[y] += 1
        for u, (negs, pos) in per_user.items():
            assert pos == 2
            assert negs == 4
        assert tf.train_users == [1, 2]

    def test_fifty_fifty_split_exact(self):
        for n, want_train in ((10, 5), (11, 6), (1, 1), (2, 1)):
            truth, cands = self.truth_and_cands(n_users=n)
            tf = build_training_file(cands, truth, mode="paper", seed=3)
            assert len(tf.train_users) == want_train
            assert len(tf.valid_users) == n - want_train
            assert set(tf.train_users) | set(tf.valid_users) == set(truth)
            assert not set(tf.train_users) & set(tf.valid_users)

    def test_split_is_seed_stable(self):
        truth, cands = self.truth_and_cands(n_users=12)
        a = build_training_file(cands, truth, mode="paper", seed=9)
        b = build_training_file(cands, truth, mode="paper", seed=9)
        c = build_training_file(cands, truth, mode="paper", seed=10)
        assert a.train_users == b.train_users
        assert a.train_rows == b.train_rows
        assert a.train_users != c.train_users

    def test_empty_candidate_list_user_excluded(self):
        cands = {1: cand_list(1, [11]), 2: cand_list(2, [])}
        truth = {1: {11}, 2: {22}}
        tf = build_training_file(cands, truth, mode="paper", seed=0)
        users = set(tf.train_users) | set(tf.valid_users)
        assert users == {1}

    def test_negatives_never_in_truth(self):
        truth, cands = self.truth_and_cands(n_users=6, n_cands=20, n_pos=3)
        tf = build_training_file(cands, truth, mode="paper", seed=1)
        for u, i, y in tf.train_rows + tf.valid_rows:
            assert (i in truth[u]) == (y == 1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            build_training_file({}, {}, mode="all")


class TestRankAndSelect:
    def test_probability_order(self):
        matrix = tiny_matrix([(1, 11), (1, 12), (1, 13)])
        preds = rank_and_select(matrix, np.array([0.3, 0.7, 0.4]))
        assert preds[0].items == [12, 13, 11]
        assert preds[0].scores == [0.7, 0.4, 0.3]

    def test_delete_filter_promotes_next(self):
        matrix = tiny_matrix([(1, 11), (1, 12), (1, 13)])
        preds = rank_and_select(matrix, np.array([0.3, 0.7, 0.4]), {1: frozenset({12})})
        assert preds[0].items == [13, 11]

    def test_truncates_to_thirty(self):
        rows = [(1, 100 + j) for j in range(40)]
        matrix = tiny_matrix(rows)
        rng = np.random.default_rng(0)
        preds = rank_and_select(matrix, rng.uniform(size=40))
        assert len(preds[0].items) == 30

    def test_ties_ascending_item_id(self):
        matrix = tiny_matrix([(1, 15), (1, 11), (1, 13)])
        preds = rank_and_select(matrix, np.array([0.5, 0.5, 0.5]))
        assert preds[0].items == [11, 13, 15]

    def test_multiple_users_kept_separate(self):
        matrix = tiny_matrix([(1, 11), (1, 12), (2, 11), (2, 13)])
        preds = rank_and_select(matrix, np.array([0.9, 0.1, 0.2, 0.8]))
        assert [p.user_id for p in preds] == [1, 2]
        assert preds[0].items == [11, 12]
        assert preds[1].items == [13, 11]

    def test_length_mismatch_rejected(self):
        matrix = tiny_matrix([(1, 11)])
        with pytest.raises(ValueError):
            rank_and_select(matrix, np.array([0.1, 0.2]))

    def test_non_contiguous_user_rejected(self):
        matrix = tiny_matrix([(1, 11), (2, 12), (1, 13)])
        with pytest.raises(ValueError, match="user 1"):
            rank_and_select(matrix, np.array([0.1, 0.2, 0.3]))

    def test_zero_row_matrix_selects_nothing(self):
        rng = np.random.default_rng(1)
        names = build_schema().names
        X = rng.normal(size=(20, len(names)))
        y = (X[:, 0] > 0).astype(float)
        model = train(X, y, TrainConfig(num_round=2, min_child_weight=0.1, gamma=0.0),
                      feature_names=names)
        assert model.trees[0].feature[0] >= 0
        empty = tiny_matrix([])
        assert score_and_select(model, empty) == []
        assert blend([model, model], empty) == []


class TestBlend:
    def fit_pair(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        base = dict(num_round=5, min_child_weight=1.0, gamma=0.0)
        m1 = train(X, y, TrainConfig(**base))
        m2 = train(X[::-1], y[::-1], TrainConfig(**base, eta=0.2))
        matrix = FeatureMatrix(
            schema=StubSchema(m1.feature_names),
            user_ids=np.array([1] * 10, dtype=np.int64),
            item_ids=np.arange(10, dtype=np.int64),
            values=rng.normal(size=(10, 3)),
            labels=None,
        )
        return m1, m2, matrix

    def test_mean_of_two(self):
        m1, m2, matrix = self.fit_pair()
        p1 = m1.predict_proba(matrix.values)
        p2 = m2.predict_proba(matrix.values)
        got = blend_probabilities([m1, m2], matrix)
        assert np.allclose(got, (p1 + p2) / 2)

    def test_single_model_identity(self):
        m1, _, matrix = self.fit_pair()
        got = blend_probabilities([m1], matrix)
        assert np.array_equal(got, m1.predict_proba(matrix.values))

    def test_two_identical_models_idempotent(self):
        m1, _, matrix = self.fit_pair()
        got = blend_probabilities([m1, m1], matrix)
        assert np.array_equal(got, m1.predict_proba(matrix.values))

    def test_order_invariance_bit_exact(self):
        m1, m2, matrix = self.fit_pair()
        a = blend_probabilities([m1, m2], matrix)
        b = blend_probabilities([m2, m1], matrix)
        assert np.array_equal(a, b)

    def test_schema_disagreement_rejected(self):
        m1, m2, matrix = self.fit_pair()
        m2.feature_names = ["x", "y", "z"]
        with pytest.raises(ValueError):
            blend_probabilities([m1, m2], matrix)

    def test_empty_model_list_rejected(self):
        _, _, matrix = self.fit_pair()
        with pytest.raises(ValueError):
            blend_probabilities([], matrix)

    def test_blend_selects_like_rank_and_select(self):
        m1, m2, matrix = self.fit_pair()
        probs = blend_probabilities([m1, m2], matrix)
        assert [p.items for p in blend([m1, m2], matrix)] == [
            p.items for p in rank_and_select(matrix, probs)
        ]


class TestBaselineRecency:
    def test_interactions_then_impression_padding(self):
        items = [make_item(i) for i in range(101, 160)]
        rows = [ev(1, 101, ts=50), ev(1, 102, ts=90)]
        imps = [imp(1, i, 2300 + (i % 3)) for i in range(103, 158)]
        ds = make_dataset([make_user(1)], items, rows, imps)
        preds = baseline_recency(ds, [1])
        got = preds[0].items
        assert got[:2] == [102, 101]
        assert len(got) == 30
        assert len(set(got)) == 30

    def test_all_interactions_deleted_impressions_only(self):
        items = [make_item(101), make_item(102)]
        rows = [ev(1, 101, "click", ts=10), ev(1, 101, "delete", ts=20)]
        ds = make_dataset([make_user(1)], items, rows, [imp(1, 102, 2300)])
        preds = baseline_recency(ds, [1])
        assert preds[0].items == [102]

    def test_duplicate_across_sources_once_at_interaction_rank(self):
        items = [make_item(101), make_item(102)]
        rows = [ev(1, 101, ts=10)]
        imps = [imp(1, 101, 2305), imp(1, 102, 2300)]
        ds = make_dataset([make_user(1)], items, rows, imps)
        preds = baseline_recency(ds, [1])
        assert preds[0].items == [101, 102]

    def test_inactive_filtered(self):
        items = [make_item(101, active=False), make_item(102)]
        rows = [ev(1, 101, ts=99), ev(1, 102, ts=10)]
        ds = make_dataset([make_user(1)], items, rows)
        preds = baseline_recency(ds, [1])
        assert preds[0].items == [102]

    def test_defaults_to_dataset_targets(self):
        ds = make_dataset([make_user(1), make_user(2)], [make_item(101)],
                          [ev(1, 101, ts=5)], targets=[2])
        preds = baseline_recency(ds)
        assert [p.user_id for p in preds] == [2]


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_datasets_match_oracle(self, data):
        """Few timestamps and weeks give ties; clicks and impressions share
        one item pool, so items are both clicked and shown; user 9 has no
        events and is not in the user table."""
        n_users, n_items = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
        items = [
            make_item(i, active=data.draw(st.sampled_from([True, True, False])))
            for i in range(100, 100 + n_items)
        ]
        pool = st.integers(100, 100 + n_items - 1)
        user = st.integers(1, n_users)
        rows = data.draw(st.lists(
            st.builds(ev, user, pool, st.sampled_from(sorted(KIND)),
                      st.sampled_from([0, 5, WEEK_SECONDS, 2 * WEEK_SECONDS + 1])),
            max_size=20,
        ))
        shown = data.draw(st.lists(st.builds(imp, user, pool, st.integers(0, 3)), max_size=20))
        ds = make_dataset([make_user(u) for u in range(1, n_users + 1)], items, rows, shown)
        limit = data.draw(st.sampled_from([30, 2, 1]))
        users = list(range(1, n_users + 1)) + [9]
        preds = baseline_recency(ds, users, limit)
        assert [p.user_id for p in preds] == users
        for p in preds:
            assert p.items == oracles.recency_baseline_oracle(ds, p.user_id, limit)


class TestBaselinePopular:
    def test_global_order_minus_deletes(self):
        items = [make_item(101), make_item(102), make_item(103)]
        rows = (
            [ev(u, 101, ts=u) for u in (1, 2, 3)]
            + [ev(u, 102, ts=u) for u in (1, 2)]
            + [ev(1, 103, ts=9), ev(2, 103, "delete", ts=9)]
        )
        ds = make_dataset([make_user(u) for u in (1, 2, 3)], items, rows)
        preds = {p.user_id: p.items for p in baseline_popular(ds, [1, 2])}
        assert preds[1] == [101, 102, 103]
        assert preds[2] == [101, 102]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_datasets_match_oracle(self, data):
        """Few events over few items give ties in counts; items past the
        event pool never occur; user 9 has no events and is not in the user
        table."""
        n_users, n_items = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
        items = [
            make_item(i, active=data.draw(st.sampled_from([True, True, False])))
            for i in range(100, 100 + n_items)
        ]
        pool = st.integers(100, 100 + min(n_items, 5) - 1)
        rows = data.draw(st.lists(
            st.builds(ev, st.integers(1, n_users), pool, st.sampled_from(sorted(KIND)),
                      st.integers(0, 10**6)),
            max_size=20,
        ))
        ds = make_dataset([make_user(u) for u in range(1, n_users + 1)], items, rows)
        limit = data.draw(st.sampled_from([30, 2, 1]))
        users = list(range(1, n_users + 1)) + [9]
        ranked = oracles.popular_oracle(ds, len(items))
        for p in baseline_popular(ds, users, limit):
            deleted = ds.events.del_items(p.user_id)
            assert p.items == [i for i in ranked if i not in deleted][:limit]


class TestPredictionIO:
    def test_round_trip(self, tmp_path):
        preds = [Prediction(5, [11, 12]), Prediction(2, [9])]
        path = tmp_path / "preds.tsv"
        save_predictions(preds, path, provenance={"stage": "predict"})
        back = load_predictions(path)
        assert back == {5: [11, 12], 2: [9]}

    def test_scores_sidecar(self, tmp_path):
        preds = [Prediction(5, [11], [0.25])]
        path = tmp_path / "preds.tsv"
        save_predictions(preds, path, scores_path=tmp_path / "scores.tsv")
        text = (tmp_path / "scores.tsv").read_text()
        assert "0.25" in text

    def test_duplicate_user_rejected(self, tmp_path):
        path = tmp_path / "preds.tsv"
        path.write_text("1\t5 6\n1\t7\n")
        with pytest.raises(ValueError, match=r":2: duplicate user 1"):
            load_predictions(path)

    def test_empty_prediction_line_allowed(self, tmp_path):
        preds = [Prediction(5, [])]
        path = tmp_path / "preds.tsv"
        save_predictions(preds, path)
        assert load_predictions(path) == {5: []}

    def test_over_thirty_items_rejected_on_save(self, tmp_path):
        preds = [Prediction(5, list(range(31)))]
        with pytest.raises(ValueError):
            save_predictions(preds, tmp_path / "preds.tsv")
