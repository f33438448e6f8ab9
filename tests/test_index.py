"""The per-variant DatasetIndex: shared by every stage, read-only, lazy."""

import tracemalloc

import numpy as np
import pytest

from jobrec.candidates import CandidateGenerator
from jobrec.features import FeatureExtractor, build_matrix
from jobrec.index import COUNT_TABLE_ROWS, DatasetIndex, _count_product
from jobrec.split import build_ground_truth, temporal_split
from jobrec.synth import SynthConfig, generate

from conftest import ev, imp, make_dataset, make_item, make_user

# built on first use; candidate generation must not need them
_FEATURE_PARTS = ("user_attrs", "jobroles", "cluster", "item_block",
                  "item_user_lists", "co_users", "shared_items", "shared_roles",
                  "user_item_lists", "attr_codes", "user_attr_counts")
# built on first use and read by candidates and features alike
_SHARED_PARTS = ("user_row", "item_users", "role_tokens", "token_overlap")


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
    def test_candidates_skip_feature_parts(self):
        rows = [ev(1, 101, ts=1), ev(2, 102, ts=2), ev(2, 102, ts=3), ev(1, 101, ts=4)]
        ds = make_dataset([make_user(1), make_user(2)],
                          [make_item(101), make_item(102, active=False)], rows)
        gen = CandidateGenerator(ds)
        assert gen.gen_popular() == [101]
        assert gen.generate(2).items() == [101]
        assert ds.index.positive_counts.tolist() == [2, 2]
        assert not set(_FEATURE_PARTS) & set(vars(ds.index))
        assert set(_SHARED_PARTS) <= set(vars(ds.index))


class TestUnknownItems:
    @pytest.mark.parametrize("rows, shown, smallest", [
        ([ev(1, 101, ts=1), ev(2, 999, ts=2), ev(2, 998, "bookmark", ts=3)], [], 998),
        ([ev(1, 101, ts=1), ev(2, 998, "delete", ts=2)], [], 998),
        ([ev(1, 101, ts=1)], [imp(2, 999, 0), imp(2, 997, 1)], 997),
    ], ids=["positive", "delete", "impression"])
    def test_event_on_a_missing_item_rejected_at_index(self, rows, shown, smallest):
        ds = make_dataset([make_user(1), make_user(2)], [make_item(101)], rows, shown)
        with pytest.raises(ValueError, match=f"an event names item {smallest}, "
                                             "which is not in the item table"):
            ds.index
        with pytest.raises(ValueError, match=f"item {smallest}"):
            CandidateGenerator(ds)


class TestUnknownUsers:
    """Every event by user 77, who is not in the user table, fails at the
    variant's first `Dataset.index` access, whatever the stage."""

    def test_features_name_a_user_missing_from_the_table(self):
        rows = [ev(1, 101, ts=1), ev(77, 101, ts=2), ev(77, 102, ts=3)]
        ds = make_dataset([make_user(1)], [make_item(101), make_item(102)], rows)
        message = "an event names user 77, which is not in the user table"
        with pytest.raises(ValueError, match=message):
            ds.index
        with pytest.raises(ValueError, match=message):
            build_matrix(ds, {})

    def test_impressions_of_a_missing_user_fail_too(self):
        ds = make_dataset([make_user(1)], [make_item(101)], [ev(1, 101, ts=1)],
                          [imp(77, 101, 0)])
        with pytest.raises(ValueError, match="an event names user 77, "):
            ds.index

    def test_deletes_of_a_missing_user_fail_too(self):
        rows = [ev(1, 101, ts=1), ev(77, 101, "delete", ts=2)]
        ds = make_dataset([make_user(1)], [make_item(101)], rows)
        with pytest.raises(ValueError, match="an event names user 77, "):
            ds.index


class TestOneUserRelation:
    def test_top_k_jaccard_matches_shared_items(self, variant):
        """The similar-user generators' Jaccard and the one features derive
        from `shared_items` and the user degrees agree on every pair."""
        _, train, _ = variant
        gen, index = CandidateGenerator(train), train.index
        users = list(index.user_row)
        for src, source in (("int", "interactions"), ("imp", "impressions")):
            shared, (_, _, deg) = index.shared_items[src], index.item_users[src]
            pairs = 0
            for r, u in enumerate(users):
                ids, scores = gen._neighbors[source].top_k_jaccard(u, len(users))
                got = dict(zip(ids.tolist(), scores.tolist()))
                want = {v: int(shared[r, c]) / int(deg[r] + deg[c] - shared[r, c])
                        for c, v in enumerate(users) if v != u and shared[r, c]}
                assert got == want, (src, u)
                pairs += len(want)
            assert pairs > 0


class TestCountProductLimits:
    def test_too_many_rows_rejected_before_allocating(self):
        rows = np.zeros((COUNT_TABLE_ROWS + 1, 1), dtype=np.uint8)
        assert len(rows) == 46_341
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^shared_items: 46341 rows exceed the limit "
                                                 r"of 46340 rows"):
                _count_product(rows, 1, "shared_items")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the table would take 2 GB

    def test_bound_at_float32_limit_rejected(self):
        for table in ("co_users", "token_overlap", "shared_roles"):
            with pytest.raises(ValueError, match=rf"^{table}: counts up to 16777216 reach "
                                                 r"the limit of 2\*\*24"):
                _count_product(np.ones((3, 2), dtype=np.uint8), 2**24, table)

    def test_largest_shapes_within_limits_accepted(self):
        table = _count_product(np.ones((3, 2), dtype=np.uint8), 2**24 - 1, "co_users")
        assert table.dtype == np.uint32 and (table == 2).all()
