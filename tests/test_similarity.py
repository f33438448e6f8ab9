"""Jaccard top-k queries against an O(n^2) brute-force oracle."""

import numpy as np
import pytest

from jobrec.index import indicator_matrix
from jobrec.similarity import SparseSetIndex


# ---------------------------------------------------------------------------
# oracles and fixtures


def set_index(forward):
    """A SparseSetIndex over entity -> token set, columns in ascending id order."""
    ids = sorted(forward)
    vocab = {t: r for r, t in enumerate(sorted(set().union(*forward.values())))}
    return SparseSetIndex(indicator_matrix([forward[e] for e in ids], vocab).T.copy(), ids)


def brute_jaccard_topk(forward, query_id, k):
    """(ids, scores) of the query entity's top-k others, (score desc, id asc)."""
    q = forward[query_id]
    scored = []
    for eid, toks in forward.items():
        inter = len(q & toks)
        if eid != query_id and inter:
            scored.append((inter / len(q | toks), eid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [eid for _, eid in scored[:k]], [s for s, _ in scored[:k]]


def random_forward(rng, trial):
    """Entity -> token set; odd trials invert it to token -> entities, the
    item-side flavour of the same query."""
    n = int(rng.integers(2, 51))
    uni = int(rng.integers(4, 80))
    fwd = {
        int(e): set(rng.choice(uni, size=int(rng.integers(0, min(14, uni))), replace=False).tolist())
        for e in rng.choice(2000, size=n, replace=False)
    }
    if trial % 2:
        inv = {}
        for e, toks in fwd.items():
            for t in toks:
                inv.setdefault(t, set()).add(e)
        fwd = inv or fwd
    return fwd


def top_k(idx, query_id, k):
    ids, scores = idx.top_k_jaccard(query_id, k)
    return ids.tolist(), scores.tolist()


# ---------------------------------------------------------------------------


class TestEntityQueries:
    def test_identical_sets_are_mutual_top1(self):
        idx = set_index({1: {10, 11}, 2: {10, 11}, 3: {99}})
        assert top_k(idx, 1, 5) == ([2], [1.0])
        assert top_k(idx, 2, 5) == ([1], [1.0])

    def test_hand_fixture(self):
        # u={i1,i2}, u'={i2,i3}, u''={i9} -> neighbors(u) = [(u', 1/3)]
        idx = set_index({1: {11, 12}, 2: {12, 13}, 3: {19}})
        assert top_k(idx, 1, 10) == ([2], [1 / 3])

    def test_k_larger_than_pool_returns_positive_only(self):
        idx = set_index({1: {5}, 2: {5}, 3: {7}})
        assert top_k(idx, 1, 100)[0] == [2]

    def test_item_side_fixture(self):
        # i users {u1,u2}, i' users {u2,u3} -> J = 1/3
        idx = set_index({101: {1, 2}, 102: {2, 3}})
        assert top_k(idx, 101, 1) == ([102], [1 / 3])

    def test_disjoint_entity_absent(self):
        # an entity with no tokens is disjoint from all; its query divides
        # nothing (the suite turns a 0/0 warning into an error)
        idx = set_index({101: {1}, 102: {9}, 103: set(), 104: set()})
        assert top_k(idx, 101, 10) == ([], [])
        assert top_k(idx, 103, 10) == ([], [])

    def test_unknown_entity_empty(self):
        idx = set_index({1: {5}, 3: {5}})
        for unknown in (0, 2, 999):
            assert top_k(idx, unknown, 3) == ([], [])

    def test_k_zero_empty(self):
        idx = set_index({1: {5}, 2: {5}})
        assert top_k(idx, 1, 0) == ([], [])

    def test_tie_broken_by_ascending_id(self):
        idx = set_index({9: {1}, 4: {1}, 7: {1}, 1: {1}})
        assert top_k(idx, 1, 3) == ([4, 7, 9], [1.0] * 3)

    def test_negative_k_rejected(self):
        idx = set_index({1: {5}})
        with pytest.raises(ValueError):
            idx.top_k_jaccard(1, -1)


class TestBruteForceEquivalence:
    """Randomized agreement on ids, exact scores and order."""

    def test_jaccard_queries(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            fwd = random_forward(rng, trial)
            idx = set_index(fwd)
            for qid in fwd:
                for k in (1, 5, 60):
                    assert top_k(idx, qid, k) == brute_jaccard_topk(fwd, qid, k)

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(44)
        for trial in range(30):
            fwd = random_forward(rng, trial)
            idx = set_index(fwd)
            for qid in list(fwd)[:5]:
                ids, scores = top_k(idx, qid, 20)
                for k in range(len(ids)):
                    assert top_k(idx, qid, k) == (ids[:k], scores[:k])


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
