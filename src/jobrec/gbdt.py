"""Gradient boosted decision trees for binary logloss, built from scratch.

Second-order boosting: per round, gradients g = p - y and hessians
h = p (1 - p) are computed from the current margins, one regression tree
is grown by exact greedy split search (every feature, every distinct
threshold), and margins advance by eta times the leaf weights
-G / (H + lambda). Split gain is

    1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)) - gamma

and a split is accepted only when the gain is strictly positive and both
children keep a hessian sum of at least min_child_weight. Ties between
equal-gain splits go to the lowest feature index, then the lowest
threshold. Training is fully deterministic.

Each column is argsorted once per train call (the presorted column order
of exact greedy in XGBoost, Chen & Guestrin, KDD 2016). Every node owns
partitioned node arrays: its rows in each column's sorted order (F, m),
their values, and the same rows ascending. A split hands each child its
members of every column with one stable partition, already sorted, so a
node costs work in its own size, not the training set's. At a node:

- the gain is evaluated only at cut positions, where a column's sorted
  value changes, taken in feature-major order;
- one complex prefix sum of g + i*h per column gives the gradient sums in
  its real part and the hessian sums in its imaginary part; complex
  addition is two independent float additions, so both equal the two
  separate prefix sums bit for bit;
- a node with H < 2 * min_child_weight becomes a leaf without a search.
  That is exact: if hl >= mcw and hl <= H < 2*mcw <= 2*hl, Sterbenz's
  lemma makes H - hl exact, so hr = H - hl < mcw; if hl > H, hr < 0.

Growth records each training row's leaf weight, and the training margins
advance by those: a row at or below the threshold sits at a sorted
position up to the cut, so the rows routed are the ones Tree.predict
routes. No float is summed in a different order than a per-node,
per-feature sort would sum it, and node sums stay pairwise sums over the
ascending rows, so the trees are the same bit for bit; a histogram search
would not keep that, since summing per bin reorders the additions and
flips near-exact ties between features.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence, get_args, get_type_hints

import numpy as np

MODEL_FORMAT = "jobrec-gbdt"
MODEL_VERSION = 2
MARGIN_CLAMP = 10.0
PROB_EPS = 1e-15


class ModelFormatError(ValueError):
    """Model file is corrupt, has a wrong format marker or version."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class TrainConfig:
    max_depth: int = 5
    min_child_weight: float = 5.0
    eta: float = 0.1
    gamma: float = 1.0
    num_round: int = 1000
    reg_lambda: float = 1.0
    early_stopping_rounds: int | None = None
    # None: logit of the positive rate, clamped to +-MARGIN_CLAMP
    base_margin: float | None = None

    def validate(self) -> None:
        for name in ("min_child_weight", "gamma", "reg_lambda", "base_margin"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.num_round < 0:
            raise ValueError(f"num_round must be >= 0, got {self.num_round}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.reg_lambda < 0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.min_child_weight < 0:
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise ValueError("early_stopping_rounds must be >= 1 when set")


# JSON value type -> the annotations it fits: an int field takes no float
# or bool, a float field takes an int
_FITS = {int: {int, float}, float: {float}, type(None): {type(None)}}


def _load_config(path, raw) -> TrainConfig:
    """A model file's "config" object as a valid `TrainConfig`: exactly its
    fields, each of its annotated type; `ModelFormatError` names the field."""
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: field 'config' holds {raw!r}, not an object")
    hints = get_type_hints(TrainConfig)
    if odd := sorted(raw.keys() ^ hints.keys()):
        fault = "is missing" if odd[0] in hints else "is not a TrainConfig field"
        raise ModelFormatError(f"{path}: config field {odd[0]!r} {fault}")
    for f in fields(TrainConfig):
        value, kinds = raw[f.name], {hints[f.name], *get_args(hints[f.name])}
        if not _FITS.get(type(value), set()) & kinds:
            raise ModelFormatError(f"{path}: config field {f.name!r} holds {value!r}, not {f.type}")
    config = TrainConfig(**raw)
    try:
        config.validate()
    except ValueError as exc:
        raise ModelFormatError(f"{path}: config: {exc}") from None
    return config


def sigmoid(margin: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-margin))


def logloss_terms(margin: np.ndarray, y: np.ndarray) -> np.ndarray:
    p = np.clip(sigmoid(margin), PROB_EPS, 1.0 - PROB_EPS)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def logloss(margin: np.ndarray, y: np.ndarray) -> float:
    return float(logloss_terms(margin, y).mean())


def grad_hess(margin: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of per-example logloss wrt the margin."""
    p = sigmoid(margin)
    return p - y, p * (1.0 - p)


class Tree:
    """One regression tree stored as parallel arrays.

    feature[n] == -1 marks node n as a leaf with weight value[n];
    internal nodes route x[feature] <= threshold to children_left.
    """

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.children_left.append(-1)
        self.children_right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            left = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.children_left[node], idx[left]))
            stack.append((self.children_right[node], idx[~left]))
        return out

    def split_features(self) -> list[int]:
        return [f for f in self.feature if f >= 0]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.children_left,
            "right": self.children_right,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        tree = cls()
        tree.feature = list(d["feature"])  # index types are checked by `fault`
        tree.threshold = [float(v) for v in d["threshold"]]
        tree.children_left = list(d["left"])
        tree.children_right = list(d["right"])
        tree.value = [float(v) for v in d["value"]]
        return tree

    def fault(self, n_features: int) -> str | None:
        """Why this tree cannot be evaluated safely, or None. Nodes are
        numbered in pre-order, so every child follows its parent; that
        also rules out cycles."""
        for name, values in (("feature", self.feature), ("left", self.children_left),
                             ("right", self.children_right)):
            bad = [v for v in values if not _is_int(v)]
            if bad:
                return f"field {name!r} holds {bad[0]!r}, not an integer"
        sizes = [len(a) for a in (self.feature, self.threshold, self.children_left,
                                  self.children_right, self.value)]
        n = sizes[0]
        if n == 0 or sizes.count(n) != 5:
            return f"node arrays must be non-empty and of equal length, got {sizes}"
        if not (np.isfinite(self.threshold).all() and np.isfinite(self.value).all()):
            return "non-finite threshold or value"
        nodes = zip(self.feature, self.children_left, self.children_right)
        for node, (f, left, right) in enumerate(nodes):
            if f == -1:
                if (left, right) != (-1, -1):
                    return f"leaf {node} has children {left}, {right}"
            elif not 0 <= f < n_features:
                return f"node {node} splits on feature {f}, model has {n_features}"
            elif not (node < left < n and node < right < n):
                return f"node {node} has children {left}, {right} outside ({node}, {n})"
        return None


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's stable row order (F, n) and its sorted values (F, n)."""
    S = np.argsort(X.T, axis=1, kind="stable")
    return S, np.take_along_axis(X.T, S, axis=1)


def _best_split(rows: np.ndarray, xs: np.ndarray, gh: np.ndarray, idx: np.ndarray,
                cfg: TrainConfig) -> tuple[float, int, float] | None:
    """Exact greedy search over all features and distinct thresholds at once.

    rows (F, m) holds the node's rows in each column's stable sorted order,
    xs their values and idx the same rows ascending; gh = g + i*h per row.
    Gains at cut positions in feature-major order: the flat argmax returns
    the first maximum, lowest feature, then lowest threshold. The early
    exit on H is exact (module docstring).
    """
    lam, mcw = cfg.reg_lambda, cfg.min_child_weight
    H = gh.imag[idx].sum()
    if H < 2 * mcw:
        return None
    G = gh.real[idx].sum()
    cut = np.flatnonzero(xs[:, 1:] != xs[:, :-1])
    f, j = divmod(cut, xs.shape[1] - 1)
    c = gh[rows]
    c = np.cumsum(c, axis=1, out=c).ravel()[cut + f]
    gl, hl, gr, hr = c.real, c.imag, G - c.real, H - c.imag
    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)) - cfg.gamma
    ok = (hl >= mcw) & (hr >= mcw) & (gain > 0.0)
    if not ok.any():
        return None
    k = np.argmax(np.where(ok, gain, -np.inf))
    return float(gain[k]), int(f[k]), float(xs[f[k], j[k]])


def _grow(S: np.ndarray, XS: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: TrainConfig):
    """One tree, and the leaf weight of every training row."""
    tree, n = Tree(), g.shape[0]
    gh = np.column_stack((g, h)).view(np.complex128).ravel()
    leaf, side = np.empty(n), np.zeros(n, dtype=bool)

    def build(rows: np.ndarray, xs: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node = tree._new_node()
        split = _best_split(rows, xs, gh, idx, cfg) if depth < cfg.max_depth else None
        if split is None:
            leaf[idx] = tree.value[node] = -g[idx].sum() / (h[idx].sum() + cfg.reg_lambda)
            return node
        _, f, thr = split
        tree.feature[node], tree.threshold[node] = f, thr
        side[rows[f][xs[f] <= thr]] = True
        keep, left = side[rows].ravel(), side[idx]
        side[idx] = False
        F, rows, xs = rows.shape[0], rows.ravel(), xs.ravel()
        # integer takes keep each column's order and beat a 2-d boolean mask
        (lr, lx), (rr, rx) = [(rows[at].reshape(F, -1), xs[at].reshape(F, -1))
                              for at in (np.flatnonzero(keep), np.flatnonzero(~keep))]
        tree.children_left[node] = build(lr, lx, idx[left], depth + 1)
        tree.children_right[node] = build(rr, rx, idx[~left], depth + 1)
        return node

    build(S, XS, np.arange(n), 0)
    return tree, leaf


@dataclass
class GbdtModel:
    config: TrainConfig
    base_margin: float
    trees: list[Tree]
    feature_names: list[str]
    eval_history: dict[str, list[float]] = field(default_factory=dict)
    best_round: int | None = None

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        margin = np.full(X.shape[0], self.base_margin, dtype=np.float64)
        for tree in self.trees:
            margin += self.config.eta * tree.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        if feature_names is not None and list(feature_names) != self.feature_names:
            raise ValueError("feature schema does not match the model's training schema")
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.feature_names):
            raise ValueError(f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        if not np.isfinite(X).all():
            raise ValueError("prediction matrix contains NaN or infinite values")
        return np.clip(sigmoid(self.predict_margin(X)), PROB_EPS, 1.0 - PROB_EPS)

    def feature_importance(self) -> dict[str, int]:
        """Split counts per feature over all trees (all features listed)."""
        counts = {name: 0 for name in self.feature_names}
        for tree in self.trees:
            for f in tree.split_features():
                counts[self.feature_names[f]] += 1
        return counts

    def save(self, path: str | Path) -> None:
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "config": asdict(self.config),
            "base_margin": self.base_margin,
            "feature_names": self.feature_names,
            "eval_history": self.eval_history,
            "best_round": self.best_round,
            "trees": [t.to_dict() for t in self.trees],
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "GbdtModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not a valid model file: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: missing {MODEL_FORMAT!r} format marker")
        if doc.get("version") != MODEL_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported model version {doc.get('version')!r}, expected {MODEL_VERSION}"
            )
        best_round = doc.get("best_round")
        if best_round is not None and not _is_int(best_round):
            raise ModelFormatError(
                f"{path}: field 'best_round' holds {best_round!r}, not an integer or null")
        config = _load_config(path, doc.get("config"))
        try:
            model = cls(
                config=config,
                base_margin=float(doc["base_margin"]),
                trees=[Tree.from_dict(t) for t in doc["trees"]],
                feature_names=[str(n) for n in doc["feature_names"]],
                eval_history={k: [float(v) for v in vs] for k, vs in doc["eval_history"].items()},
                best_round=best_round,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: malformed model document: {exc}") from None
        for k, tree in enumerate(model.trees):
            fault = tree.fault(len(model.feature_names))
            if fault:
                raise ModelFormatError(f"{path}: tree {k}: {fault}")
        return model


def _check_data(X: np.ndarray, y: np.ndarray, what: str) -> None:
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"{what} matrix must be 2-d and non-empty")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{what} label count does not match row count")
    if not np.isfinite(X).all():
        raise ValueError(f"{what} matrix contains NaN or infinite values")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError(f"{what} labels must be 0 or 1")


def train(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    feature_names: Sequence[str] | None = None,
    valid: tuple[np.ndarray, np.ndarray] | None = None,
) -> GbdtModel:
    """Fit a boosted ensemble; validation data drives early stopping."""
    config.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_data(X, y, "training")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length does not match matrix width")

    if config.base_margin is not None:
        base = float(config.base_margin)
    else:
        rate = float(y.mean())
        if rate <= 0.0:
            base = -MARGIN_CLAMP
        elif rate >= 1.0:
            base = MARGIN_CLAMP
        else:
            base = float(np.clip(np.log(rate / (1.0 - rate)), -MARGIN_CLAMP, MARGIN_CLAMP))

    margin = np.full(X.shape[0], base, dtype=np.float64)
    history: dict[str, list[float]] = {"train": []}
    if valid is not None:
        Xv = np.asarray(valid[0], dtype=np.float64)
        yv = np.asarray(valid[1], dtype=np.float64)
        _check_data(Xv, yv, "validation")
        if Xv.shape[1] != X.shape[1]:
            raise ValueError("validation matrix width does not match training matrix")
        vmargin = np.full(Xv.shape[0], base, dtype=np.float64)
        history["valid"] = []

    S, XS = _presort(X)
    trees: list[Tree] = []
    best_round: int | None = None
    best_loss = np.inf
    for _ in range(config.num_round):
        g, h = grad_hess(margin, y)
        tree, leaf = _grow(S, XS, g, h, config)
        trees.append(tree)
        margin += config.eta * leaf
        history["train"].append(logloss(margin, y))
        if valid is not None:
            vmargin += config.eta * tree.predict(Xv)
            vloss = logloss(vmargin, yv)
            history["valid"].append(vloss)
            if vloss < best_loss:
                best_loss = vloss
                best_round = len(trees)
            elif (
                config.early_stopping_rounds is not None
                and len(trees) - (best_round or 0) >= config.early_stopping_rounds
            ):
                break

    if valid is not None and config.early_stopping_rounds is not None and best_round is not None:
        trees = trees[:best_round]
        history = {k: v[:best_round] for k, v in history.items()}

    return GbdtModel(
        config=config,
        base_margin=base,
        trees=trees,
        feature_names=list(feature_names),
        eval_history=history,
        best_round=best_round,
    )


def save_importance(model: GbdtModel, path: str | Path, groups: dict[str, str] | None = None, provenance=None) -> None:
    """Importance report: feature, group, split count, sorted by count desc."""
    from .dataio import _write_tsv

    counts = model.feature_importance()
    rows = (
        [name, (groups or {}).get(name, ""), str(counts[name])]
        for name in sorted(counts, key=lambda n: (-counts[n], n))
    )
    _write_tsv(Path(path), ["feature", "group", "splits"], rows, provenance)
