"""Gradient-boosted tree feature ranking and top-k column selection.

Small second-order boosting machine for binary targets, exactly
reproducible and vectorised over features:

  - logistic loss; per-sample gradient g = p - y, hessian h = p (1 - p)
  - leaf weight -G / (H + lambda) with L2 strength lambda = 1, no
    complexity penalty (gamma = 0)
  - exact greedy splits over each node's rows presorted by every feature,
    with their sorted values alongside, both a stable partition of the
    parent's (XGBoost's column blocks); split gain
    0.5 * (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l))
  - each node scans its features together, in chunks of about
    ``_SCAN_CELLS`` (feature, row) cells: one gather, one prefix sum, the
    gain arithmetic in place and one argmax per chunk, in reused buffers
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
# (feature, row) cells per split-scan chunk: large enough to amortise the
# per-call cost of numpy, small enough that a chunk's arrays stay in cache
_SCAN_CELLS = 32768


def _check_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite values in feature matrix")


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
        _check_finite(X)
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


def _best_split(block, vals, tied, g, h, min_leaf, G, H, work):
    """Scan every feature of the node's sorted row ``block`` for the best gain.

    Row f of the (F, m) ``block`` lists the node's rows sorted by feature f,
    row f of ``vals`` their values of feature f, and row f of the (F, m - 1)
    ``tied`` marks equal neighbours in ``vals``.  Features are scanned
    together, about ``_SCAN_CELLS`` (feature, row) cells at a time, at the
    cuts that leave at least ``min_leaf`` rows on each side.  Returns (gain,
    feature, j) or None: rows ``block[feature, :j + 1]`` go left and the
    threshold is ``vals[feature, j + 1]``.  ``work`` holds four flat buffers
    of at least one chunk's cells, reused from chunk to chunk.
    """
    n_features, m = block.shape
    lo, hi = min_leaf - 1, m - min_leaf    # cut j leaves j + 1 rows on the left
    parent_score = G ** 2 / (H + _LAMBDA)
    step = max(1, _SCAN_CELLS // m)
    best = None
    for f0 in range(0, n_features, step):
        sub = block[f0:f0 + step]
        k = len(sub)
        # indices are in range; with ``out`` the default mode="raise" would
        # write to a temporary first
        GL, HL = (a.take(sub, out=buf[:k * m].reshape(k, m), mode="clip")
                  for a, buf in zip((g, h), work))
        GL = np.cumsum(GL, axis=1, out=GL)[:, lo:hi]
        HL = np.cumsum(HL, axis=1, out=HL)[:, lo:hi]
        gain, HR = (buf[:k * (hi - lo)].reshape(k, hi - lo) for buf in work[2:])
        # 0.5 * (GL^2 / (HL + l) + GR^2 / (HR + l) - G^2 / (H + l)), in place
        np.subtract(G, GL, out=gain)        # GR
        np.square(gain, out=gain)
        np.subtract(H, HL, out=HR)
        HR += _LAMBDA
        gain /= HR
        np.square(GL, out=GL)
        HL += _LAMBDA
        GL /= HL
        np.add(GL, gain, out=gain)
        gain -= parent_score
        gain *= 0.5
        np.copyto(gain, -np.inf, where=tied[f0:f0 + step, lo:hi])
        # first max in (feature, cut) order: lowest feature, then lowest threshold
        i, j = divmod(int(gain.argmax()), hi - lo)
        if gain[i, j] > 0.0 and (best is None or gain[i, j] > best[0]):
            best = (float(gain[i, j]), f0 + i, lo + j)
    return best


def _partition(block, vals, left, right, goes_left, arena):
    """Split every row of the (F, m) ``block`` and ``vals`` into the rows
    listed in ``left`` and those in ``right``, each kept in its order (a
    stable partition).  The halves are written one after the other into the
    flat buffers ``arena``; returns ((block, vals) left, (block, vals) right).
    """
    goes_left[left] = True
    goes_left[right] = False
    go_left = goes_left.take(block)
    halves, start = [], 0
    for side in (go_left, ~go_left):
        at = np.flatnonzero(side)           # flat positions, row after row
        stop = start + len(at)
        halves.append(tuple(a.take(at, out=buf[start:stop], mode="clip").reshape(len(block), -1)
                            for a, buf in zip((block, vals), arena)))
        start = stop
    return halves


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
    _check_finite(X)
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
    goes_left = np.empty(n, dtype=bool)
    # a scan chunk holds at most max(_SCAN_CELLS, n) cells, and never more
    # than the whole block
    work = np.empty((4, min(max(_SCAN_CELLS, n), max(n_features, 1) * n)))
    # the children's blocks and values, one level apart: depth first, a
    # level's arena holds the two children of one parent at a time
    arenas = [(np.empty(n_features * n, dtype=np.intp), np.empty(n_features * n))
              for _ in range(config.max_depth - 1)]

    def build(rows, depth, block, vals, tied=None):
        # ``rows`` lists the node's rows in the order its G and H are summed;
        # ``block`` and ``vals`` are None below the deepest level that splits
        G = float(g.take(rows).sum())
        H = float(h.take(rows).sum())
        if block is not None and len(rows) >= 2 * min_leaf:
            if tied is None:
                tied = vals[:, :-1] == vals[:, 1:]
            found = _best_split(block, vals, tied, g, h, min_leaf, G, H, work)
            if found is not None:
                gain, f, j = found
                model.importance[f] += gain
                node = _Node(feature=f, threshold=float(vals[f, j + 1]))
                # row f of the block is sorted by feature f: its head goes left
                left, right = block[f, :j + 1], block[f, j + 1:]
                kids = ((None, None), (None, None))
                if depth + 1 < config.max_depth:
                    kids = _partition(block, vals, left, right, goes_left, arenas[depth])
                node.left = build(left, depth + 1, *kids[0])
                node.right = build(right, depth + 1, *kids[1])
                return node
        return _Node(value=-G / (H + _LAMBDA))

    cols = np.ascontiguousarray(X.T)
    root_block = np.argsort(cols, axis=1, kind="stable")
    root_vals = np.take_along_axis(cols, root_block, axis=1)
    root_tied = root_vals[:, :-1] == root_vals[:, 1:]
    all_idx = np.arange(n)
    out = np.empty(n)
    p = stable_sigmoid(score)
    for _ in range(config.rounds):
        g = p - y
        h = p * (1.0 - p)
        model.trees.append(build(all_idx, 0, root_block, root_vals, root_tied))
        _apply_tree(model.trees[-1], X, out, all_idx)
        score += config.learning_rate * out
        p = stable_sigmoid(score)
        q = np.clip(p, 1e-12, 1.0 - 1e-12)
        model.loss_history.append(float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))))
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
