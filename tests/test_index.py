"""The per-variant DatasetIndex: shared by every stage, read-only, lazy."""

import numpy as np
import pytest

from jobrec.candidates import CandidateGenerator
from jobrec.features import FeatureExtractor, build_matrix
from jobrec.index import DatasetIndex
from jobrec.split import build_ground_truth, temporal_split
from jobrec.synth import SynthConfig, generate

from conftest import ev, imp, make_dataset, make_item, make_user

# built on first use; candidate generation must not need them
_FEATURE_PARTS = ("user_row", "user_attrs", "jobroles", "item_users", "cluster", "item_block",
                  "item_user_lists", "co_users", "shared_items", "shared_roles",
                  "user_item_lists", "attr_codes", "user_attr_counts")
# built on first use and read by candidates and features alike
_SHARED_PARTS = ("token_overlap",)


@pytest.fixture(scope="module")
def variant():
    ds = generate(SynthConfig(users=40, items=60, weeks=4, seed=3))
    train, holdout = temporal_split(ds, 1)
    truth = build_ground_truth(holdout, ds.target_users)
    lists = CandidateGenerator(train).generate_all(sorted(truth))
    return ds, train, lists


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)
    elif hasattr(value, "values") and hasattr(value, "keys"):
        for v in value.values():
            yield from _arrays(v)


class TestShared:
    def test_one_index_per_variant(self, variant):
        _, train, lists = variant
        assert isinstance(train.index, DatasetIndex)
        assert CandidateGenerator(train).index is train.index
        assert FeatureExtractor(train, lists).index is train.index

    def test_each_split_variant_has_its_own(self, variant):
        ds, train, _ = variant
        inner, _ = temporal_split(train, 1)
        assert len({id(ds.index), id(train.index), id(inner.index)}) == 3
        assert inner.index.now < train.index.now < ds.index.now
        assert inner.index.positive_counts.sum() < train.index.positive_counts.sum()


class TestReadOnly:
    def test_every_array_rejects_writes(self, variant):
        _, train, lists = variant
        ext = FeatureExtractor(train, lists)
        u = next(iter(lists))
        ext.block([(u, i) for i in lists[u].items()])
        index = train.index
        for name in _FEATURE_PARTS + _SHARED_PARTS:
            getattr(index, name)
        arrays = [a for v in vars(index).values() for a in _arrays(v)]
        assert len(arrays) >= 20
        for a in arrays:
            assert a.flags.writeable is False
            with pytest.raises(ValueError):
                a[...] = 0

    def test_maps_reject_writes(self, variant):
        index = variant[1].index
        for mapping in (index.row_of, index.vocab, index.user_row, index.item_users):
            with pytest.raises(TypeError):
                mapping[next(iter(mapping))] = 0


class TestLazy:
    def test_candidates_tolerate_unknown_items_and_skip_feature_parts(self):
        # item 999 is referenced by events but missing from the item table
        rows = [ev(1, 101, ts=1), ev(2, 999, ts=2), ev(2, 999, ts=3), ev(1, 102, ts=4)]
        ds = make_dataset([make_user(1), make_user(2)],
                          [make_item(101), make_item(102, active=False)], rows)
        gen = CandidateGenerator(ds)
        assert gen.gen_popular() == [101]
        assert gen.generate(2).items() == [101]
        assert ds.index.positive_counts.tolist() == [1, 1]
        assert not set(_FEATURE_PARTS) & set(vars(ds.index))
        assert set(_SHARED_PARTS) <= set(vars(ds.index))


class TestUnknownUsers:
    def test_features_name_a_user_missing_from_the_table(self):
        # user 77 clicked known items but is not in the user table
        rows = [ev(1, 101, ts=1), ev(77, 101, ts=2), ev(77, 102, ts=3)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], rows)
        lists = CandidateGenerator(ds).generate_all([1])
        assert set(lists[1].items()) == {101, 102}
        with pytest.raises(ValueError, match="user 77 "):
            build_matrix(ds, lists)

    def test_impressions_of_a_missing_user_fail_too(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)],
                          [imp(77, 101, 0)])
        with pytest.raises(ValueError, match="user 77 "):
            ds.index.item_users

    def test_deletes_and_unknown_items_of_a_missing_user_pass(self):
        rows = [ev(1, 101, ts=1), ev(77, 101, "delete", ts=2), ev(78, 999, ts=3)]
        ds = make_dataset([make_user(1)], [make_item(101)], rows, [imp(79, 999, 0)])
        matrix = build_matrix(ds, CandidateGenerator(ds).generate_all([1]))
        assert matrix.item_ids.tolist() == [101]
        assert ds.index.item_users["int"][0].tolist() == [[1]]
