"""Set-similarity queries against an O(n^2) brute-force oracle."""

import numpy as np
import pytest

from jobrec.similarity import (
    Neighbor,
    SparseSetIndex,
    indicator_matrix,
)


# ---------------------------------------------------------------------------
# oracles


def brute_jaccard_topk(forward, query_id, k):
    return brute_jaccard_set_topk(forward, forward[query_id], k, exclude=query_id)


def brute_jaccard_set_topk(forward, query, k, exclude=None):
    q = set(query)
    scored = []
    for eid, toks in forward.items():
        if eid == exclude or not q:
            continue
        inter = len(q & toks)
        if inter == 0:
            continue
        scored.append((inter / len(q | toks), eid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [Neighbor(eid, s) for s, eid in scored[:k]]


def brute_overlap_topk(forward, query, k):
    q = set(query)
    scored = []
    for eid, toks in forward.items():
        inter = len(q & toks)
        if inter:
            scored.append((float(inter), eid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [Neighbor(eid, s) for s, eid in scored[:k]]


# ---------------------------------------------------------------------------


class TestEntityQueries:
    def test_identical_sets_are_mutual_top1(self):
        idx = SparseSetIndex({1: {10, 11}, 2: {10, 11}, 3: {99}})
        assert idx.top_k_jaccard(1, 5) == [Neighbor(2, 1.0)]
        assert idx.top_k_jaccard(2, 5) == [Neighbor(1, 1.0)]

    def test_hand_fixture(self):
        # u={i1,i2}, u'={i2,i3}, u''={i9} -> neighbors(u) = [(u', 1/3)]
        idx = SparseSetIndex({1: {11, 12}, 2: {12, 13}, 3: {19}})
        got = idx.top_k_jaccard(1, 10)
        assert got == [Neighbor(2, pytest.approx(1 / 3))]

    def test_k_larger_than_pool_returns_positive_only(self):
        idx = SparseSetIndex({1: {5}, 2: {5}, 3: {7}})
        got = idx.top_k_jaccard(1, 100)
        assert [n.id for n in got] == [2]

    def test_item_side_fixture(self):
        # i users {u1,u2}, i' users {u2,u3} -> J = 1/3
        idx = SparseSetIndex({101: {1, 2}, 102: {2, 3}})
        got = idx.top_k_jaccard(101, 1)
        assert got == [Neighbor(102, pytest.approx(1 / 3))]

    def test_disjoint_entity_absent(self):
        idx = SparseSetIndex({101: {1}, 102: {9}})
        assert idx.top_k_jaccard(101, 10) == []

    def test_unknown_entity_empty(self):
        idx = SparseSetIndex({1: {5}})
        assert idx.top_k_jaccard(999, 3) == []

    def test_explicit_set_query_keeps_self(self):
        # querying by token set is not an entity query: no self-exclusion
        idx = SparseSetIndex({1: {5, 6}})
        got = idx.top_k_jaccard({5, 6}, 3)
        assert got == [Neighbor(1, 1.0)]

    def test_negative_k_rejected(self):
        idx = SparseSetIndex({1: {5}})
        with pytest.raises(ValueError):
            idx.top_k_jaccard(1, -1)


class TestTokenOverlap:
    def test_self_match_scores_set_size(self):
        idx = SparseSetIndex({101: {5, 7, 9}})
        got = idx.top_k_overlap({5, 7, 9}, 3)
        assert got == [Neighbor(101, 3.0)]

    def test_hand_fixture(self):
        # query {5,7} against tags {5}, {7,9}, {1} -> scores 1, 1, absent
        idx = SparseSetIndex({1: {5}, 2: {7, 9}, 3: {1}})
        got = idx.top_k_overlap({5, 7}, 10)
        assert got == [Neighbor(1, 1.0), Neighbor(2, 1.0)]

    def test_k_zero_empty(self):
        idx = SparseSetIndex({1: {5}})
        assert idx.top_k_overlap({5}, 0) == []
        assert idx.top_k_jaccard(1, 0) == []

    def test_tie_broken_by_ascending_id(self):
        idx = SparseSetIndex({9: {1}, 4: {1}, 7: {1}})
        got = idx.top_k_overlap({1}, 3)
        assert [n.id for n in got] == [4, 7, 9]


class TestBruteForceEquivalence:
    """Randomized agreement on scores AND order, all query kinds."""

    def random_forward(self, rng):
        n = int(rng.integers(2, 50))
        uni = int(rng.integers(4, 60))
        return {
            int(eid): set(rng.choice(uni, size=int(rng.integers(0, min(12, uni))), replace=False).tolist())
            for eid in rng.choice(1000, size=n, replace=False)
        }

    def test_jaccard_queries(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            fwd = self.random_forward(rng)
            idx = SparseSetIndex(fwd)
            for qid in fwd:
                for k in (1, 3, 100):
                    got = idx.top_k_jaccard(qid, k)
                    want = brute_jaccard_topk(fwd, qid, k)
                    assert got == want

    def test_explicit_set_queries(self):
        # query sets mix known tokens with ones no entity holds (>= 60); the
        # excluded id is an indexed entity, an id the index lacks, or none
        rng = np.random.default_rng(45)
        for _ in range(60):
            fwd = self.random_forward(rng)
            idx = SparseSetIndex(fwd)
            query = set(rng.choice(70, size=int(rng.integers(1, 10)), replace=False).tolist())
            query.add(60 + int(rng.integers(0, 10)))
            for exclude in (None, int(rng.choice(list(fwd))), 5000):
                for k in (1, 5, 100):
                    got = idx.top_k_jaccard(query, k, exclude=exclude)
                    assert got == brute_jaccard_set_topk(fwd, query, k, exclude), exclude

    def test_overlap_queries(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            fwd = self.random_forward(rng)
            idx = SparseSetIndex(fwd)
            query = set(rng.choice(60, size=int(rng.integers(1, 8)), replace=False).tolist())
            for k in (1, 5, 100):
                assert idx.top_k_overlap(query, k) == brute_overlap_topk(fwd, query, k)

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            fwd = self.random_forward(rng)
            idx = SparseSetIndex(fwd)
            for qid in list(fwd)[:5]:
                longer = idx.top_k_jaccard(qid, 20)
                for k in range(len(longer)):
                    assert idx.top_k_jaccard(qid, k) == longer[:k]


class TestSparseHelpers:
    def test_indicator_matrix_matches_brute_force(self):
        rng = np.random.default_rng(9)
        sets = [set(rng.choice(30, size=int(rng.integers(0, 10)), replace=False).tolist()) for _ in range(20)]
        uni = {t: j for j, t in enumerate(sorted(set().union(*sets)))}
        m = indicator_matrix(sets, uni)
        assert m.dtype == np.uint8 and m.shape == (20, len(uni))
        m = m.astype(np.int64)
        inter = m @ m.T
        for a in range(20):
            for b in range(20):
                assert inter[a, b] == len(sets[a] & sets[b])
