"""Boosted-tree trainer: derivative checks, hand traces, and round trips.

The gradient/hessian oracle uses high-precision central differences via
mpmath so the 1e-6 relative tolerance is limited by the formula under
test, not by the difference scheme. The split search is compared bit
for bit with the per-feature search in tests/oracles.py.
"""

import json

import mpmath
import numpy as np
import pytest

from jobrec.gbdt import (
    GbdtModel,
    ModelFormatError,
    TrainConfig,
    Tree,
    _best_split,
    _presort,
    grad_hess,
    logloss,
    save_importance,
    sigmoid,
    train,
)

from oracles import best_split_oracle, boost_oracle


def fd_grad_hess(margin, y, dps=50, h_step="1e-12"):
    """Central finite differences of the per-example logloss, 50 digits."""
    with mpmath.workdps(dps):
        m = mpmath.mpf(repr(float(margin)))
        yy = mpmath.mpf(repr(float(y)))
        step = mpmath.mpf(h_step)

        def loss(t):
            p = 1 / (1 + mpmath.exp(-t))
            return -(yy * mpmath.log(p) + (1 - yy) * mpmath.log(1 - p))

        g = (loss(m + step) - loss(m - step)) / (2 * step)
        h = (loss(m + step) - 2 * loss(m) + loss(m - step)) / (step * step)
        return float(g), float(h)


class TestDerivatives:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        margins = rng.uniform(-8, 8, size=200)
        labels = rng.integers(0, 2, size=200).astype(float)
        g, h = grad_hess(margins, labels)
        for j in range(200):
            g_fd, h_fd = fd_grad_hess(margins[j], labels[j])
            assert abs(g[j] - g_fd) <= 1e-6 * max(1.0, abs(g_fd))
            assert abs(h[j] - h_fd) <= 1e-6 * max(1.0, abs(h_fd))

    def test_known_point(self):
        g, h = grad_hess(np.array([0.0]), np.array([1.0]))
        assert g[0] == -0.5
        assert h[0] == 0.25


class TestHandCases:
    def test_zero_rounds_prior_only(self):
        X = np.zeros((8, 2))
        y = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
        model = train(X, y, TrainConfig(num_round=0))
        p = model.predict_proba(X)
        assert np.allclose(p, 0.25)

    def test_single_class_clamped(self):
        X = np.zeros((4, 1))
        y = np.ones(4)
        model = train(X, y, TrainConfig(num_round=0))
        assert model.base_margin == 10.0
        assert np.allclose(model.predict_proba(X), sigmoid(10.0))

    def test_single_forced_leaf(self):
        # 4 rows, all y=1, base margin forced to 0: g = -0.5, h = 0.25,
        # leaf = -G/(H+1) = 2/2 = 1.0, margin = 0.1 -> p = sigmoid(0.1)
        X = np.arange(8, dtype=float).reshape(4, 2)
        y = np.ones(4)
        cfg = TrainConfig(num_round=1, min_child_weight=10.0, base_margin=0.0, reg_lambda=1.0)
        model = train(X, y, cfg)
        assert len(model.trees) == 1
        tree = model.trees[0]
        assert tree.feature == [-1]
        assert tree.value == [1.0]
        p = model.predict_proba(X)
        assert np.allclose(p, sigmoid(0.1), atol=1e-6)

    def test_xor_fit(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(400, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        cfg = TrainConfig(num_round=50, max_depth=2, min_child_weight=1.0, gamma=0.0)
        model = train(X, y, cfg)
        final = model.eval_history["train"][-1]
        assert final < 0.1
        assert len(model.trees) <= 50


class TestTrainingBehavior:
    def test_loss_never_increases(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            X = rng.normal(size=(200, 8))
            w = rng.normal(size=8)
            y = (X @ w + rng.normal(scale=0.5, size=200) > 0).astype(float)
            model = train(X, y, TrainConfig(num_round=30, gamma=0.0, min_child_weight=1.0))
            losses = model.eval_history["train"]
            prior = logloss(np.full(200, model.base_margin), y)
            seq = [prior] + losses
            for a, b in zip(seq[:-1], seq[1:]):
                assert b <= a + 1e-12, f"trial {trial}"

    def test_early_stopping_trims_to_best(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 5))
        y = (X[:, 0] > 0).astype(float)
        Xv = rng.normal(size=(100, 5))
        yv = rng.integers(0, 2, size=100).astype(float)  # noise: must overfit
        cfg = TrainConfig(num_round=200, early_stopping_rounds=5, min_child_weight=1.0, gamma=0.0)
        model = train(X, y, cfg, valid=(Xv, yv))
        assert model.best_round is not None
        assert len(model.trees) == model.best_round
        assert len(model.eval_history["valid"]) == model.best_round
        assert min(model.eval_history["valid"]) == model.eval_history["valid"][-1]

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 6))
        y = (X[:, 1] > 0.2).astype(float)
        cfg = TrainConfig(num_round=15)
        a = train(X, y, cfg)
        b = train(X, y, cfg)
        assert json.dumps([t.to_dict() for t in a.trees]) == json.dumps(
            [t.to_dict() for t in b.trees]
        )

    def test_split_improves_on_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0.0, 0, 0, 1, 1, 1])
        cfg = TrainConfig(num_round=1, min_child_weight=0.1, gamma=0.0)
        model = train(X, y, cfg)
        tree = model.trees[0]
        assert tree.feature[0] == 0
        # threshold is the largest value routed left
        assert tree.threshold[0] == 2.0


def split_fixture(rng, n):
    """Columns with many repeats, a constant, a continuous one and a pair
    with the same partition (x2 = 2*x0 - 1), in a random column order."""
    x0 = rng.integers(0, 4, n).astype(float)
    cols = [x0, np.full(n, 3.0), rng.normal(size=n), rng.integers(-2, 3, n).astype(float), 2 * x0 - 1]
    return np.column_stack(cols)[:, rng.permutation(len(cols))]


def node_split(X, g, h, idx, cfg):
    """_best_split on the node arrays growth would hand the node idx: its
    members of each column's presorted order, with their sorted values."""
    S, XS = _presort(X)
    keep = np.isin(S, idx)
    F, m = S.shape[0], idx.shape[0]
    gh = np.column_stack((g, h)).view(np.complex128).ravel()
    return _best_split(S[keep].reshape(F, m), XS[keep].reshape(F, m), gh, idx, cfg)


class TestSplitSearchMatchesOracle:
    @pytest.mark.parametrize("min_child_weight", [0.0, 0.5, 2.0])
    def test_node_by_node_bit_equal(self, min_child_weight):
        found = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 60))
            X = split_fixture(rng, n)
            if seed % 2:
                # integer gradients and one hessian: many exactly equal gains
                g = rng.integers(-1, 2, n).astype(float)
                h = np.full(n, 0.25)
            else:
                g, h = grad_hess(rng.normal(size=n), rng.integers(0, 2, n).astype(float))
            m = 2 if seed % 5 == 0 else int(rng.integers(2, n + 1))
            idx = np.sort(rng.choice(n, m, replace=False))
            cfg = TrainConfig(min_child_weight=min_child_weight, gamma=(0.0, 0.5)[seed % 3 == 0],
                              reg_lambda=(1.0, 0.0)[seed % 4 == 0])
            got = node_split(X, g, h, idx, cfg)
            want = best_split_oracle(X, g, h, idx, cfg)
            assert got == want, f"seed {seed}"
            found += got is not None
        assert found >= 50

    @staticmethod
    def edge_node(case):
        """(X, g, h, idx, cfg, whether a split exists) for one edge case."""
        rng = np.random.default_rng(7)
        g, h = rng.normal(size=8), np.full(8, 0.25)  # H = 2.0 over all 8 rows
        cfg = TrainConfig(min_child_weight=0.5, gamma=0.0)
        X = np.column_stack([np.full(8, 4.0), np.arange(8.0)])
        idx, found = np.arange(8), True
        if case == "constant column":
            pass
        elif case == "all tied":
            X[:, 1] = 1.0
            found = False
        elif case == "signed zeros":
            # the best cut leaves row 2 alone; the stable order ends the
            # zeros on row 7's -0.0, which becomes the threshold
            X[:, 1] = [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0]
            g[2], cfg.min_child_weight = 4.0, 0.25
        elif case == "two rows":
            idx = np.array([2, 5])
            g[2], g[5], cfg.min_child_weight = 1.0, -1.0, 0.25
        elif case == "zero child weight":
            cfg.min_child_weight = 0.0
        else:
            # H = 2 * min_child_weight exactly at 1.0; the only admissible
            # split there puts four rows on each side
            cfg.min_child_weight = {"H below": np.nextafter(1.0, 2.0), "H at": 1.0,
                                    "H above": np.nextafter(1.0, 0.0)}[case]
            g = np.array([1.0, 1, 1, 1, -1, -1, -1, -1])
            found = case != "H below"
        return X, g, h, idx, cfg, found

    @pytest.mark.parametrize("case", ["constant column", "all tied", "signed zeros", "two rows",
                                      "zero child weight", "H below", "H at", "H above"])
    def test_edge_nodes_bit_equal(self, case):
        X, g, h, idx, cfg, found = self.edge_node(case)
        got = node_split(X, g, h, idx, cfg)
        want = best_split_oracle(X, g, h, idx, cfg)
        # repr tells -0.0 from 0.0 in the threshold
        assert repr(got) == repr(want)
        assert (got is not None) == found

    def test_same_partition_tie_goes_to_lowest_feature(self):
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0])
        X = np.column_stack([2 * x - 1, x])
        g = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        h = np.full(6, 0.25)
        cfg = TrainConfig(min_child_weight=0.0, gamma=0.0)
        gain, f, thr = node_split(X, g, h, np.arange(6), cfg)
        assert (gain, f, thr) == best_split_oracle(X, g, h, np.arange(6), cfg)
        assert f == 0 and thr == -1.0  # x <= 0, written in column 0's values

    def test_train_bit_equal_to_oracle_grower(self):
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 80))
            X = split_fixture(rng, n)
            y = (X[:, 2] + rng.normal(size=n) > 0).astype(float)
            cfg = TrainConfig(num_round=4, max_depth=int(rng.integers(1, 6)),
                              min_child_weight=(0.0, 0.5, 2.0)[seed % 3],
                              gamma=(0.0, 0.5)[seed % 2])
            model = train(X, y, cfg)
            got = [t.to_dict() for t in model.trees], model.eval_history, model.best_round
            assert got == boost_oracle(X, y, cfg), f"seed {seed}"

    def test_train_with_validation_bit_equal_to_oracle(self):
        stopped = 0
        for seed in range(40):
            rng = np.random.default_rng(2000 + seed)
            n, nv = int(rng.integers(2, 60)), int(rng.integers(1, 40))
            X = split_fixture(rng, n + nv)
            y = (X[:, 2] + rng.normal(scale=2.0, size=n + nv) > 0).astype(float)
            cfg = TrainConfig(num_round=25, max_depth=int(rng.integers(1, 5)),
                              min_child_weight=(0.0, 0.5, 2.0)[seed % 3],
                              gamma=(0.0, 0.5)[seed % 2],
                              early_stopping_rounds=(None, 1, 3)[seed % 3 - 1])
            valid = X[n:], y[n:]
            model = train(X[:n], y[:n], cfg, valid=valid)
            got = [t.to_dict() for t in model.trees], model.eval_history, model.best_round
            assert got == boost_oracle(X[:n], y[:n], cfg, valid=valid), f"seed {seed}"
            stopped += len(model.trees) < cfg.num_round
        assert stopped >= 10


class TestValidation:
    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((3, 1)), np.array([0.0, 0.5, 1.0]), TrainConfig(num_round=1))

    def test_nan_features_rejected(self):
        X = np.zeros((3, 1))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            train(X, np.array([0.0, 1, 1]), TrainConfig(num_round=1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((3, 1)), np.zeros(4), TrainConfig(num_round=1))

    @pytest.mark.parametrize("case", ["nan", "label", "empty", "count"])
    def test_bad_validation_pair_rejected(self, case):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0, 1, 1])
        Xv, yv = X.copy(), y.copy()
        if case == "nan":
            Xv[1, 0] = np.nan
            match = "validation matrix contains NaN or infinite values"
        elif case == "label":
            yv[2] = 2.0
            match = "validation labels must be 0 or 1"
        elif case == "empty":
            Xv, yv = np.zeros((0, 1)), np.zeros(0)
            match = "validation matrix must be 2-d and non-empty"
        else:
            yv = yv[:3]
            match = "validation label count does not match row count"
        cfg = TrainConfig(num_round=5, early_stopping_rounds=3, min_child_weight=0.0)
        with pytest.raises(ValueError, match=match):
            train(X, y, cfg, valid=(Xv, yv))

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(max_depth=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(eta=1.5).validate()
        with pytest.raises(ValueError):
            TrainConfig(gamma=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(reg_lambda=-0.5).validate()
        with pytest.raises(ValueError):
            TrainConfig(num_round=-1).validate()
        TrainConfig().validate()

    @pytest.mark.parametrize("name", ["gamma", "reg_lambda", "min_child_weight", "base_margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_hyperparameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value}).validate()

    def test_predict_width_checked(self):
        model = train(np.zeros((4, 2)), np.array([0.0, 1, 0, 1]), TrainConfig(num_round=0))
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 3)))

    def test_predict_feature_names_checked(self):
        model = train(
            np.zeros((4, 2)), np.array([0.0, 1, 0, 1]), TrainConfig(num_round=0),
            feature_names=["a", "b"],
        )
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 2)), feature_names=["b", "a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_non_finite_rejected(self, bad):
        model = train(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 0, 1, 1]),
                      TrainConfig(num_round=1, min_child_weight=0.0))
        X = np.zeros((2, 1))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            model.predict_proba(X)


class TestPredict:
    def test_hand_traced_two_node_tree(self):
        tree = Tree()
        root = tree._new_node()
        left = tree._new_node()
        right = tree._new_node()
        tree.feature[root] = 0
        tree.threshold[root] = 1.5
        tree.children_left[root] = left
        tree.children_right[root] = right
        tree.value[left] = -2.0
        tree.value[right] = 3.0
        X = np.array([[1.5], [1.6], [0.0]])
        assert tree.predict(X).tolist() == [-2.0, 3.0, -2.0]

    def test_margin_monotone_in_probability(self):
        model = train(np.zeros((4, 1)), np.array([0.0, 1, 0, 1]), TrainConfig(num_round=0))
        tree = Tree()
        tree._new_node()
        tree.value[0] = 2.0
        model.trees.append(tree)
        p0 = sigmoid(model.base_margin)
        p1 = model.predict_proba(np.zeros((1, 1)))[0]
        assert p1 > p0


class TestImportance:
    def test_prior_only_all_zero(self):
        model = train(np.zeros((4, 2)), np.array([0.0, 1, 0, 1]), TrainConfig(num_round=0))
        assert all(v == 0 for v in model.feature_importance().values())

    def test_single_split_counted(self):
        X = np.array([[0.0, 0], [0, 0], [1, 0], [1, 0]])
        y = np.array([0.0, 0, 1, 1])
        cfg = TrainConfig(num_round=1, min_child_weight=0.1, gamma=0.0)
        model = train(X, y, cfg, feature_names=["f0", "f1"])
        imp = model.feature_importance()
        assert imp["f0"] == 1
        assert imp["f1"] == 0

    def test_counts_sum_to_split_total(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + X[:, 2] > 0).astype(float)
        model = train(X, y, TrainConfig(num_round=10, min_child_weight=1.0))
        total = sum(len(t.split_features()) for t in model.trees)
        assert sum(model.feature_importance().values()) == total

    def test_importance_file(self, tmp_path):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 1, 0, 1])
        model = train(X, y, TrainConfig(num_round=2, min_child_weight=0.1, gamma=0.0),
                      feature_names=["alpha"])
        path = tmp_path / "imp.tsv"
        save_importance(model, path, groups={"alpha": "g1"})
        text = path.read_text()
        assert "alpha" in text and "g1" in text


class TestSerialization:
    def make_model(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 5))
        y = (X[:, 0] - X[:, 3] > 0).astype(float)
        return train(X, y, TrainConfig(num_round=8, min_child_weight=1.0)), X

    def test_round_trip_predictions_bit_exact(self, tmp_path):
        model, X = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        back = GbdtModel.load(path)
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))
        assert back.feature_names == model.feature_names
        assert back.base_margin == model.base_margin
        back.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    # case -> (config field, new value or DROP to delete it, error message)
    DROP = object()
    BAD_CONFIG = {
        "missing field": ("eta", DROP, r"config field 'eta' is missing"),
        "unknown field": ("seed", 0, r"config field 'seed' is not a TrainConfig field"),
        "float for int": ("max_depth", 5.0, r"config field 'max_depth' holds 5\.0, not int"),
        "bool for int": ("num_round", True, r"config field 'num_round' holds True, not int"),
        "string for int": ("max_depth", "x", r"config field 'max_depth' holds 'x', not int"),
        "bool for float": ("gamma", False, r"config field 'gamma' holds False, not float"),
        "null for float": ("eta", None, r"config field 'eta' holds None, not float"),
        "float for optional int": ("early_stopping_rounds", 2.5,
                                   r"config field 'early_stopping_rounds' holds 2\.5, not int \| None"),
        "out of range": ("eta", 7.5, r"config: eta must be in \(0, 1\], got 7\.5"),
        "not finite": ("gamma", float("nan"), r"config: gamma must be finite, got nan"),
    }

    @pytest.mark.parametrize("case", list(BAD_CONFIG))
    def test_malformed_config_rejected(self, tmp_path, case):
        name, value, match = self.BAD_CONFIG[case]
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        if value is self.DROP:
            del doc["config"][name]
        else:
            doc["config"][name] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=rf"model\.json: {match}"):
            GbdtModel.load(path)

    @pytest.mark.parametrize("name, value", [
        ("eta", 1), ("gamma", 0), ("early_stopping_rounds", None), ("early_stopping_rounds", 4),
        ("base_margin", None), ("base_margin", -2),
    ])
    def test_config_of_the_annotated_type_loads(self, tmp_path, name, value):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["config"][name] = value
        path.write_text(json.dumps(doc))
        back = GbdtModel.load(path)
        assert getattr(back.config, name) == value
        back.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            GbdtModel.load(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ModelFormatError):
            GbdtModel.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            GbdtModel.load(path)

    def test_version_1_model_rejected(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        doc["config"]["seed"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="unsupported model version 1"):
            GbdtModel.load(path)

    # case -> (tree array, node, new value or None to drop it, error message)
    MALFORMED = {
        "self child": ("left", 0, 0, r"node 0 has children 0, 2 outside \(0, 3\)"),
        "child past end": ("right", 0, 3, r"node 0 has children 1, 3 outside \(0, 3\)"),
        "feature out of range": ("feature", 0, 7, r"node 0 splits on feature 7, model has 3"),
        "negative feature": ("feature", 0, -2, r"node 0 splits on feature -2, model has 3"),
        "leaf with child": ("left", 2, 0, r"leaf 2 has children 0, -1"),
        "short value": ("value", 2, None, r"node arrays .* equal length, got \[3, 3, 3, 3, 2\]"),
        "empty tree": (None, None, None, r"node arrays must be non-empty"),
        "nan threshold": ("threshold", 0, float("nan"), r"non-finite threshold or value"),
        "infinite value": ("value", 1, float("inf"), r"non-finite threshold or value"),
        "fractional child": ("left", 0, 1.7, r"field 'left' holds 1\.7, not an integer"),
        "negative fractional leaf child": ("right", 1, -1.7,
                                           r"field 'right' holds -1\.7, not an integer"),
        "integral float feature": ("feature", 0, 0.0, r"field 'feature' holds 0\.0, not an integer"),
        "boolean child": ("right", 0, True, r"field 'right' holds True, not an integer"),
        "string feature": ("feature", 1, "-1", r"field 'feature' holds '-1', not an integer"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_tree_rejected(self, tmp_path, case):
        key, node, value, match = self.MALFORMED[case]
        X = np.array([[0.0, 1, 2], [1, 0, 2], [2, 1, 0], [3, 0, 0]])
        y = np.array([0.0, 0, 1, 1])
        model = train(X, y, TrainConfig(num_round=2, min_child_weight=0.0, gamma=0.0))
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        tree = doc["trees"][1] = {"feature": [0, -1, -1], "threshold": [1.0, 0.0, 0.0],
                                  "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -0.5, 0.5]}
        if key is None:
            for k in tree:
                tree[k] = []
        elif value is None:
            del tree[key][node]
        else:
            tree[key][node] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=rf"model\.json: tree 1: {match}"):
            GbdtModel.load(path)

    def test_non_numeric_tree_cell_rejected(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["trees"][0]["value"][0] = "abc"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="malformed model document: could not convert"):
            GbdtModel.load(path)

    @pytest.mark.parametrize("best_round", ["x", 2.0, True, [2]])
    def test_malformed_best_round_rejected(self, tmp_path, best_round):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["best_round"] = best_round
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError,
                           match=r"model\.json: field 'best_round' holds .*, not an integer or null"):
            GbdtModel.load(path)

    @pytest.mark.parametrize("best_round", [None, 0, 3])
    def test_integer_or_null_best_round_loads(self, tmp_path, best_round):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        doc["best_round"] = best_round
        path.write_text(json.dumps(doc))
        assert GbdtModel.load(path).best_round == best_round

    def test_missing_field_rejected(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        doc = json.loads(path.read_text())
        del doc["trees"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            GbdtModel.load(path)
