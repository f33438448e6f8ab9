"""The columnar `EventLog` against the per-event object log it replaced.

`oracles.ObjectEventLog` keeps one record per event and groups them in
Python; the sweep checks that both give the same per-user time order,
item sets, maxima, split sides and ground truth. A second test loads,
splits and indexes a dataset with the record constructors disabled.
"""

import pytest
from hypothesis import given, settings, strategies as st

from jobrec import candidates, dataio, features, pipeline, synth
from jobrec.entities import WEEK_SECONDS, EventLog, Impression, Interaction, InteractionKind
from jobrec.split import build_ground_truth, temporal_split

from conftest import make_dataset, make_item, make_user
from oracles import ObjectEventLog, ground_truth_oracle, recent_oracle, split_oracle

USERS = list(range(1, 7))
ITEMS = list(range(100, 109))
UNKNOWN_USER = 99


@st.composite
def event_logs(draw):
    """Interactions and impressions over six users and nine items: ties from
    a small timestamp pool, timestamps and weeks on both sides of zero, and
    user 6 with deletes only."""
    pool = draw(st.lists(st.integers(-3 * WEEK_SECONDS, 3 * WEEK_SECONDS), min_size=1,
                         max_size=4))
    stamps = st.sampled_from(pool) | st.integers(-3 * WEEK_SECONDS, 3 * WEEK_SECONDS)
    kinds = st.sampled_from(list(InteractionKind))
    interactions = draw(st.lists(st.builds(Interaction, st.sampled_from(USERS[:-1]),
                                           st.sampled_from(ITEMS), kinds, stamps), max_size=30))
    interactions += draw(st.lists(st.builds(Interaction, st.just(USERS[-1]), st.sampled_from(ITEMS),
                                            st.just(InteractionKind.DELETE), stamps), max_size=3))
    interactions = draw(st.permutations(interactions))
    impressions = draw(st.lists(st.builds(Impression, st.sampled_from(USERS), st.sampled_from(ITEMS),
                                          st.integers(-3, 3)), max_size=30))
    return interactions, impressions


def assert_same_log(log: EventLog, oracle: ObjectEventLog) -> None:
    assert list(log.interactions) == oracle.interactions
    assert list(log.impressions) == oracle.impressions
    assert log.max_timestamp == oracle.max_timestamp
    assert log.max_impression_week == oracle.max_impression_week
    for u in [*USERS, UNKNOWN_USER]:
        assert list(log.interactions_of(u)) == oracle.interactions_of(u), u
        assert list(log.impressions_of(u)) == oracle.impressions_of(u), u
        assert log.int_items(u) == oracle.int_items(u), u
        assert log.del_items(u) == oracle.del_items(u), u
        assert log.imp_items(u) == oracle.imp_items(u), u


class TestAgainstObjectLog:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(logs=event_logs())
    def test_log_split_and_truth_match(self, logs):
        interactions, impressions = logs
        oracle = ObjectEventLog(interactions, impressions)
        log = EventLog(interactions, impressions)
        assert_same_log(log, oracle)
        assert len(log.interactions) == len(interactions)
        assert len(log.impressions) == len(impressions)

        ds = make_dataset([make_user(u) for u in USERS],
                          [make_item(i, active=i % 3 > 0) for i in ITEMS],
                          interactions, impressions, targets=USERS[::2])
        for source in ("interactions", "impressions"):
            for u in [*USERS, UNKNOWN_USER]:
                assert ds.index.recent_items(u, source) == recent_oracle(ds, u, source), (u, source)
        for holdout_weeks in (0, 1, 2):
            want = split_oracle(oracle, holdout_weeks)
            if want is None:
                with pytest.raises(ValueError, match="spans a single week"):
                    temporal_split(ds, holdout_weeks)
                continue
            train, holdout = temporal_split(ds, holdout_weeks)
            want_train, want_int, want_imp = want
            assert_same_log(train.events, want_train)
            assert list(holdout.interactions) == want_int
            assert list(holdout.impressions) == want_imp
            truth = build_ground_truth(holdout, ds.target_users)
            assert truth == ground_truth_oracle(want_int, ds.target_users)
            assert list(truth) == list(ground_truth_oracle(want_int, ds.target_users))

    def test_empty_log(self):
        assert_same_log(EventLog([], []), ObjectEventLog([], []))


def test_no_per_event_records_on_the_hot_paths(tmp_path, monkeypatch):
    """Loading, splitting, indexing, candidates, features, baselines and
    saving run with the record constructors disabled."""
    dataio.save_dataset(synth.generate(synth.SynthConfig(users=40, items=60, weeks=4, seed=3)),
                        tmp_path / "raw")

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} record was built")

    monkeypatch.setattr(Interaction, "__init__", refuse)
    monkeypatch.setattr(Impression, "__init__", refuse)
    ds = dataio.load_dataset(tmp_path / "raw")
    train, holdout = temporal_split(ds, 1)
    truth = build_ground_truth(holdout, ds.target_users)
    inner, inner_holdout = temporal_split(train, 1)
    build_ground_truth(inner_holdout, ds.target_users)
    assert truth and len(train.interactions) and len(inner.impressions)
    for variant in (ds, train, inner):
        index = variant.index
        index.item_users, index.cluster, index.item_block
        for u in variant.users:
            index.recent_items(u, "interactions"), index.recent_items(u, "impressions")
    lists = candidates.CandidateGenerator(train).generate_all(ds.target_users)
    features.build_matrix(train, lists)
    pipeline.baseline_recency(train), pipeline.baseline_popular(train)
    dataio.save_dataset(train, tmp_path / "train")
    dataio.save_interactions(holdout.interactions, tmp_path / "holdout.tsv")
    dataio.save_impressions(holdout.impressions, tmp_path / "holdout_impressions.tsv")
    with pytest.raises(AssertionError, match="Interaction record was built"):
        list(ds.interactions)
