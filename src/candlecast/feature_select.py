"""Gradient-boosted tree feature ranking and top-k column selection.

Small second-order boosting machine for binary targets, built for exact
reproducibility rather than speed:

  - logistic loss; per-sample gradient g = p - y, hessian h = p (1 - p)
  - leaf weight -G / (H + lambda) with L2 strength lambda = 1, no
    complexity penalty (gamma = 0)
  - exact greedy splits over presorted feature columns; split gain
    0.5 * (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l))
  - ties broken deterministically: lowest feature index first, then
    lowest threshold
  - importance of a feature is the total split gain it collected

The five raw candle columns are always kept by :func:`select_top_k`;
ranking only decides which generated indicator columns survive.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .indicators import OHLCV_NAMES, FeatureTable
from .nn.tensor import stable_sigmoid

_LAMBDA = 1.0


@dataclass(frozen=True)
class GbdtConfig:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 20
    top_k: int = 25

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None, feature=None, threshold=None, left=None, right=None):
        self.value = value          # leaf weight, None for internal nodes
        self.feature = feature
        self.threshold = threshold  # smallest value routed right; left takes x < threshold
        self.left = left
        self.right = right


def _apply_tree(node: _Node, X: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    if node.value is not None:
        out[idx] = node.value
        return
    go_left = X[idx, node.feature] < node.threshold
    _apply_tree(node.left, X, out, idx[go_left])
    _apply_tree(node.right, X, out, idx[~go_left])


@dataclass
class GbdtModel:
    config: GbdtConfig
    feature_names: list
    trees: list = field(default_factory=list)
    importance: np.ndarray = None
    degenerate: bool = False
    loss_history: list = field(default_factory=list)

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise DataError(f"expected (n, {len(self.feature_names)}) matrix, got {X.shape}")
        score = np.zeros(len(X))
        buf = np.empty(len(X))
        idx = np.arange(len(X))
        for tree in self.trees:
            _apply_tree(tree, X, buf, idx)
            score += self.config.learning_rate * buf
        return score

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return stable_sigmoid(self.predict_raw(X))

    def importance_by_name(self) -> dict:
        return {n: float(v) for n, v in zip(self.feature_names, self.importance)}


def _best_split(X, order, g, h, idx, member, min_leaf, G, H, parent_score):
    """Scan every feature for the best gain split of the node ``idx``.

    Returns (gain, feature, threshold, left_idx, right_idx) or None.
    """
    best = None
    m = len(idx)
    for f in range(X.shape[1]):
        of = order[:, f]
        sub = of[member[of]]          # node rows, sorted by feature f
        vs = X[sub, f]
        distinct = vs[:-1] < vs[1:]
        if not distinct.any():
            continue
        left_n = np.arange(1, m)
        valid = distinct & (left_n >= min_leaf) & (m - left_n >= min_leaf)
        if not valid.any():
            continue
        GL = np.cumsum(g[sub])[:-1]
        HL = np.cumsum(h[sub])[:-1]
        GR = G - GL
        HR = H - HL
        gain = 0.5 * (GL ** 2 / (HL + _LAMBDA) + GR ** 2 / (HR + _LAMBDA) - parent_score)
        gain[~valid] = -np.inf
        j = int(np.argmax(gain))      # first max = lowest threshold
        if gain[j] <= 0.0:
            continue
        if best is None or gain[j] > best[0]:
            best = (float(gain[j]), f, float(vs[j + 1]), sub[:j + 1].copy(), sub[j + 1:].copy())
    return best


def fit_gbdt(X: np.ndarray, y: np.ndarray, config: GbdtConfig, feature_names=None) -> GbdtModel:
    """Boost ``config.rounds`` depth-limited trees on (X, y) with y in {0, 1}.

    A single-class target cannot rank anything; the model then carries zero
    trees, a ``degenerate`` flag, and all-zero importances (with a warning).
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"X must be 2-d, got shape {X.shape}")
    n, n_features = X.shape
    if y.shape != (n,):
        raise DataError(f"y shape {y.shape} does not match {n} rows")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite values in feature matrix")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("labels must be 0 or 1")
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(n_features)]
    if len(feature_names) != n_features:
        raise DataError("one name per feature column required")

    model = GbdtModel(config, list(feature_names), importance=np.zeros(n_features))
    if n == 0 or y.min() == y.max():
        warnings.warn("single-class target: feature ranking is degenerate, no trees fit")
        model.degenerate = True
        return model

    order = np.argsort(X, axis=0, kind="stable")
    member = np.zeros(n, dtype=bool)
    score = np.zeros(n)
    min_leaf = config.min_samples_leaf
    eps = 1e-12

    def build(idx, depth, g, h, leaf_buf):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        if depth < config.max_depth and len(idx) >= 2 * min_leaf:
            member[:] = False
            member[idx] = True
            found = _best_split(X, order, g, h, idx, member, min_leaf,
                                G, H, G ** 2 / (H + _LAMBDA))
            if found is not None:
                gain, f, thr, left_idx, right_idx = found
                model.importance[f] += gain
                node = _Node(feature=f, threshold=thr)
                node.left = build(left_idx, depth + 1, g, h, leaf_buf)
                node.right = build(right_idx, depth + 1, g, h, leaf_buf)
                return node
        w = -G / (H + _LAMBDA)
        leaf_buf[idx] = w
        return _Node(value=w)

    all_idx = np.arange(n)
    for _ in range(config.rounds):
        p = stable_sigmoid(score)
        g = p - y
        h = p * (1.0 - p)
        leaf_buf = np.empty(n)
        root = build(all_idx, 0, g, h, leaf_buf)
        model.trees.append(root)
        score += config.learning_rate * leaf_buf
        p = np.clip(stable_sigmoid(score), eps, 1.0 - eps)
        model.loss_history.append(float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    return model


def rank_features(model: GbdtModel):
    """Feature names sorted by importance, descending; ties alphabetical."""
    pairs = sorted(zip(model.feature_names, model.importance), key=lambda p: (-p[1], p[0]))
    return [name for name, _ in pairs]


def select_top_k(table: FeatureTable, model: GbdtModel, k: int | None = None) -> FeatureTable:
    """Keep the five raw candle columns plus the ``k`` best generated columns.

    Ranking order is by importance (ties alphabetical); raw columns never
    compete and are never dropped.
    """
    if k is None:
        k = model.config.top_k
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    for name in OHLCV_NAMES:
        if name not in table.names:
            raise DataError(f"table is missing raw column {name!r}")
    generated = [n for n in table.names if n not in OHLCV_NAMES]
    missing = [n for n in generated if n not in model.feature_names]
    if missing:
        raise DataError(f"model has no importance for columns {missing!r}")
    ranked = [n for n in rank_features(model) if n in generated]
    return table.select(list(OHLCV_NAMES) + ranked[:k])


def save_importance_csv(path, model: GbdtModel) -> None:
    """Write ``feature,importance`` rows, best first (ties alphabetical)."""
    by_name = model.importance_by_name()
    with open(path, "w") as fh:
        fh.write("feature,importance\n")
        for name in rank_features(model):
            fh.write(f"{name},{repr(by_name[name])}\n")


def load_importance_csv(path) -> dict:
    out = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "feature,importance":
            raise DataError(f"bad importance CSV header in {path}")
        for line in fh:
            line = line.strip()
            if line:
                name, _, imp = line.partition(",")
                out[name] = float(imp)
    return out
