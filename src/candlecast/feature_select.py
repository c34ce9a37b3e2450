"""Gradient-boosted tree feature ranking and top-k column selection.

Small second-order boosting machine for binary targets, built for exact
reproducibility rather than speed:

  - logistic loss; per-sample gradient g = p - y, hessian h = p (1 - p)
  - leaf weight -G / (H + lambda) with L2 strength lambda = 1, no
    complexity penalty (gamma = 0)
  - exact greedy splits over each node's rows presorted by every feature,
    a stable partition of its parent's (XGBoost's column blocks); split gain
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
from .framing import read_rows, write_rows
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


def _best_split(cols, block, g, h, min_leaf, G, H):
    """Scan every feature of the node's sorted row ``block`` for the best gain.

    ``cols`` is the feature-major (F, n) matrix and row f of the (F, m)
    ``block`` lists the node's rows sorted by feature f.  Returns
    (gain, feature, j) or None: rows ``block[feature, :j + 1]`` go left and
    the threshold is the value of row ``block[feature, j + 1]``.
    """
    best = None
    m = block.shape[1]
    left_n = np.arange(1, m)
    sizes_ok = (left_n >= min_leaf) & (m - left_n >= min_leaf)
    parent_score = G ** 2 / (H + _LAMBDA)
    for f, sub in enumerate(block):
        vs = cols[f][sub]
        valid = sizes_ok & (vs[:-1] < vs[1:])
        if not valid.any():
            continue
        GL = np.cumsum(g[sub])[:-1]
        HL = np.cumsum(h[sub])[:-1]
        GR = G - GL
        HR = H - HL
        gain = 0.5 * (GL ** 2 / (HL + _LAMBDA) + GR ** 2 / (HR + _LAMBDA) - parent_score)
        gain[~valid] = -np.inf
        j = int(np.argmax(gain))      # first max = lowest threshold
        if gain[j] > 0.0 and (best is None or gain[j] > best[0]):
            best = (float(gain[j]), f, j)
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

    score = np.zeros(n)
    min_leaf = config.min_samples_leaf

    def build(block, rows, depth):
        # ``rows`` lists the node's rows in the order its G and H are summed
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        if depth < config.max_depth and len(rows) >= 2 * min_leaf:
            found = _best_split(cols, block, g, h, min_leaf, G, H)
            if found is not None:
                gain, f, j = found
                model.importance[f] += gain
                node = _Node(feature=f, threshold=float(cols[f][block[f, j + 1]]))
                # one mask over the block: a stable partition of every row list
                go_left = cols[f][block] < node.threshold
                left = block[go_left].reshape(n_features, -1)
                right = block[~go_left].reshape(n_features, -1)
                node.left = build(left, left[f], depth + 1)
                node.right = build(right, right[f], depth + 1)
                return node
        return _Node(value=-G / (H + _LAMBDA))

    cols = np.ascontiguousarray(X.T)
    root_block = np.argsort(cols, axis=1, kind="stable")
    all_idx = np.arange(n)
    out = np.empty(n)
    for _ in range(config.rounds):
        p = stable_sigmoid(score)
        g = p - y
        h = p * (1.0 - p)
        model.trees.append(build(root_block, all_idx, 0))
        _apply_tree(model.trees[-1], X, out, all_idx)
        score += config.learning_rate * out
        p = np.clip(stable_sigmoid(score), 1e-12, 1.0 - 1e-12)
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
    write_rows(path, "feature,importance",
               ((name, by_name[name]) for name in rank_features(model)))


def load_importance_csv(path) -> dict:
    return dict(read_rows(path, "feature,importance", "feature importance table",
                          lambda f: (f[0], float(f[1]))))
