"""Boosted-tree ranking: split quality, determinism, top-k selection."""
from __future__ import annotations

import numpy as np
import pytest

from candlecast import feature_select
from candlecast.dataset import direction_labels
from candlecast.errors import ConfigError, DataError
from candlecast.feature_select import (GbdtConfig, fit_gbdt, load_importance_csv,
                                       rank_features, save_importance_csv,
                                       select_top_k)
from candlecast.indicators import (FeatureClass, FeatureTable, default_grid,
                                   generate_features)
from candlecast.nn.tensor import stable_sigmoid
from candlecast.synthetic import sine_market


def _make_data(n=400, noise=0.25, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(float)
    X = rng.normal(size=(n, 6))
    X[:, 2] = y + rng.normal(0, noise, n)       # informative column
    X[:, 4] = 0.5 * y + rng.normal(0, 1.0, n)   # weakly informative
    return X, y


def test_config_validation():
    GbdtConfig()
    with pytest.raises(ConfigError):
        GbdtConfig(rounds=0)
    with pytest.raises(ConfigError):
        GbdtConfig(max_depth=0)
    with pytest.raises(ConfigError):
        GbdtConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        GbdtConfig(learning_rate=1.5)
    with pytest.raises(ConfigError):
        GbdtConfig(min_samples_leaf=0)
    with pytest.raises(ConfigError):
        GbdtConfig(top_k=0)


def test_perfect_feature_ranks_first():
    rng = np.random.default_rng(1)
    n = 300
    y = rng.integers(0, 2, n).astype(float)
    X = rng.normal(size=(n, 8))
    X[:, 5] = y + rng.normal(0, 0.01, n)
    model = fit_gbdt(X, y, GbdtConfig(rounds=30), [f"c{i}" for i in range(8)])
    assert rank_features(model)[0] == "c5"
    assert model.importance[5] == max(model.importance)
    # and the fit actually learned the mapping
    assert np.mean((model.predict_proba(X) > 0.5) == y) > 0.99


def test_loss_history_non_increasing():
    X, y = _make_data(seed=2)
    model = fit_gbdt(X, y, GbdtConfig(rounds=60))
    h = np.array(model.loss_history)
    assert len(h) == 60
    assert np.all(np.diff(h) <= 1e-12)
    assert h[-1] < h[0]


def test_single_class_is_degenerate():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 4))
    y = np.ones(100)
    with pytest.warns(UserWarning, match="single-class"):
        model = fit_gbdt(X, y, GbdtConfig(rounds=10))
    assert model.degenerate
    assert model.trees == []
    assert np.all(model.importance == 0.0)
    assert np.all(model.predict_proba(X) == 0.5)


def test_fit_is_deterministic():
    X, y = _make_data(seed=4)
    a = fit_gbdt(X, y, GbdtConfig(rounds=25))
    b = fit_gbdt(X, y, GbdtConfig(rounds=25))
    np.testing.assert_array_equal(a.importance, b.importance)
    np.testing.assert_array_equal(a.predict_raw(X), b.predict_raw(X))
    assert a.loss_history == b.loss_history


def test_duplicate_column_tie_breaks_to_lower_index():
    rng = np.random.default_rng(5)
    n = 200
    y = rng.integers(0, 2, n).astype(float)
    X = rng.normal(size=(n, 4))
    X[:, 0] = y + rng.normal(0, 0.05, n)
    X[:, 2] = X[:, 0]                     # exact duplicate, higher index
    model = fit_gbdt(X, y, GbdtConfig(rounds=20))
    assert model.importance[0] > 0.0
    assert model.importance[2] == 0.0


def test_min_samples_leaf_respected():
    X, y = _make_data(n=200, seed=6)
    min_leaf = 40
    model = fit_gbdt(X, y, GbdtConfig(rounds=10, min_samples_leaf=min_leaf))

    def leaf_counts(node, idx):
        if node.value is not None:
            return [len(idx)]
        go_left = X[idx, node.feature] < node.threshold
        return leaf_counts(node.left, idx[go_left]) + leaf_counts(node.right, idx[~go_left])

    for tree in model.trees:
        for count in leaf_counts(tree, np.arange(len(X))):
            assert count >= min_leaf


def test_input_validation():
    X, y = _make_data(n=50, seed=7)
    with pytest.raises(DataError):
        fit_gbdt(X, y[:-1], GbdtConfig())
    with pytest.raises(DataError):
        fit_gbdt(X, y + 0.5, GbdtConfig())
    bad = X.copy()
    bad[3, 2] = np.nan
    with pytest.raises(DataError):
        fit_gbdt(bad, y, GbdtConfig())
    with pytest.raises(DataError):
        fit_gbdt(X[:, 0], y, GbdtConfig())
    model = fit_gbdt(X, y, GbdtConfig(rounds=2))
    with pytest.raises(DataError):
        model.predict_raw(X[:, :3])


def _table_with(names_classes, n=60, seed=8):
    rng = np.random.default_rng(seed)
    names = [n_ for n_, _ in names_classes]
    classes = [c for _, c in names_classes]
    values = rng.normal(size=(n, len(names))) + 10.0
    return FeatureTable(np.arange(n) * 60, names, values, classes)


def test_select_top_k_keeps_raw_columns():
    raw = [(n, FeatureClass.OHLCV) for n in ("open", "high", "low", "close", "volume")]
    gen = [(f"g{i}", FeatureClass.NON_PRICE_LIKE) for i in range(6)]
    table = _table_with(raw + gen)
    model_names = [n for n, _ in gen]
    model = fit_gbdt(np.random.default_rng(9).normal(size=(80, 6)),
                     np.random.default_rng(9).integers(0, 2, 80).astype(float),
                     GbdtConfig(rounds=2), model_names)
    model.importance = np.array([5.0, 1.0, 3.0, 3.0, 0.0, 2.0])
    out = select_top_k(table, model, k=3)
    # ties at 3.0 resolve alphabetically: g2 before g3
    assert out.names == ["open", "high", "low", "close", "volume", "g0", "g2", "g3"]
    out_all = select_top_k(table, model, k=99)
    assert len(out_all.names) == 11
    with pytest.raises(ConfigError):
        select_top_k(table, model, k=0)


def test_select_top_k_requires_coverage():
    raw = [(n, FeatureClass.OHLCV) for n in ("open", "high", "low", "close", "volume")]
    table = _table_with(raw + [("gx", FeatureClass.NON_PRICE_LIKE)])
    model = fit_gbdt(np.random.default_rng(10).normal(size=(80, 2)),
                     np.random.default_rng(10).integers(0, 2, 80).astype(float),
                     GbdtConfig(rounds=2), ["a", "b"])
    with pytest.raises(DataError, match="no importance"):
        select_top_k(table, model, k=1)
    no_close = table.select(["open", "high", "low", "volume", "gx"])
    with pytest.raises(DataError, match="missing raw column"):
        select_top_k(no_close, model, k=1)


def test_importance_csv_round_trip(tmp_path):
    X, y = _make_data(seed=11)
    model = fit_gbdt(X, y, GbdtConfig(rounds=15), [f"c{i}" for i in range(6)])
    path = tmp_path / "importance.csv"
    save_importance_csv(path, model)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "feature,importance"
    assert len(lines) == 7
    # best-first ordering
    assert lines[1].startswith("c2,")
    back = load_importance_csv(path)
    assert back == model.importance_by_name()
    with pytest.raises(DataError):
        (tmp_path / "bad.csv").write_text("nope\n")
        load_importance_csv(tmp_path / "bad.csv")


def _reference_fit(X, y, config):
    """The former tree builder, kept as the oracle: every node filters the
    full presorted order through a shared membership mask, and each leaf
    writes its value into a per-round buffer that updates the score.

    Returns (importance, loss history, pre-order (feature, threshold, value)
    of every node of every tree, final raw score)."""
    n, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    member = np.zeros(n, dtype=bool)
    importance = np.zeros(n_features)
    nodes, losses = [], []
    min_leaf = config.min_samples_leaf

    def best_split(g, h, idx, G, H, parent_score):
        best = None
        m = len(idx)
        for f in range(n_features):
            of = order[:, f]
            sub = of[member[of]]
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
            gain = 0.5 * (GL ** 2 / (HL + 1.0) + GR ** 2 / (HR + 1.0) - parent_score)
            gain[~valid] = -np.inf
            j = int(np.argmax(gain))
            if gain[j] <= 0.0:
                continue
            if best is None or gain[j] > best[0]:
                best = (float(gain[j]), f, float(vs[j + 1]), sub[:j + 1].copy(),
                        sub[j + 1:].copy())
        return best

    def build(idx, depth, g, h, leaf_buf):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        if depth < config.max_depth and len(idx) >= 2 * min_leaf:
            member[:] = False
            member[idx] = True
            found = best_split(g, h, idx, G, H, G ** 2 / (H + 1.0))
            if found is not None:
                gain, f, thr, left_idx, right_idx = found
                importance[f] += gain
                nodes.append((f, thr, None))
                build(left_idx, depth + 1, g, h, leaf_buf)
                build(right_idx, depth + 1, g, h, leaf_buf)
                return
        w = -G / (H + 1.0)
        leaf_buf[idx] = w
        nodes.append((None, None, w))

    score = np.zeros(n)
    for _ in range(config.rounds):
        p = stable_sigmoid(score)
        leaf_buf = np.empty(n)
        build(np.arange(n), 0, p - y, p * (1.0 - p), leaf_buf)
        score += config.learning_rate * leaf_buf
        p = np.clip(stable_sigmoid(score), 1e-12, 1.0 - 1e-12)
        losses.append(float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    return importance, losses, nodes, score


def _pre_order(node, out):
    out.append((node.feature, node.threshold, node.value))
    if node.value is None:
        _pre_order(node.left, out)
        _pre_order(node.right, out)
    return out


def _assert_matches_reference(X, y, config):
    model = fit_gbdt(X, y, config)
    importance, losses, nodes, score = _reference_fit(X, y, config)
    assert model.importance.tobytes() == importance.tobytes()
    assert model.loss_history == losses
    assert [t for tree in model.trees for t in _pre_order(tree, [])] == nodes
    assert model.predict_raw(X).tobytes() == score.tobytes()
    return model


@pytest.mark.parametrize("seed", [1, 7, 201])
def test_tree_builder_matches_reference_on_default_grid(seed):
    series = sine_market(seed=seed)
    table = generate_features(series, default_grid())
    closes = series.close[len(series) - len(table):]
    train_rows = int(len(table) * 0.8)
    # a 3158 x 64 training matrix shaped like the pipeline's; 40 of its 100 rounds
    _assert_matches_reference(table.values[:train_rows - 1],
                              direction_labels(closes[:train_rows]), GbdtConfig(rounds=40))


def _tied_data(n=300, seed=12):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(float)
    X = np.empty((n, 6))
    X[:, 0] = np.round(rng.normal(0.0, 2.0, n))         # integer-rounded
    X[:, 1] = np.round(y + rng.normal(0.0, 0.6, n), 1)  # informative, tied
    X[:, 2] = X[:, 1]                                   # duplicated column
    X[:, 3] = 5.0                                       # constant column
    X[:, 4] = rng.normal(size=n)                        # all distinct
    X[:, 5] = rng.integers(0, 3, n)                     # three values only
    return X, y


@pytest.mark.parametrize("config, tree_sizes", [
    (GbdtConfig(rounds=15), None),
    (GbdtConfig(rounds=15, max_depth=1), {1, 3}),
    (GbdtConfig(rounds=15, max_depth=4, min_samples_leaf=5), None),
    (GbdtConfig(rounds=5, min_samples_leaf=151), {1}),   # 300 rows: the root stays a leaf
    (GbdtConfig(rounds=5, min_samples_leaf=150), {3}),   # 300 rows = 2 * min_samples_leaf
], ids=["default", "depth1", "depth4", "root_leaf", "two_min_leaves"])
def test_tree_builder_matches_reference_on_edge_cases(config, tree_sizes):
    X, y = _tied_data()
    model = _assert_matches_reference(X, y, config)
    if tree_sizes is not None:
        assert {len(_pre_order(tree, [])) for tree in model.trees} <= tree_sizes


def test_predict_raw_rejects_non_finite_input():
    X, y = _make_data(n=80, seed=13)
    model = fit_gbdt(X, y, GbdtConfig(rounds=3))
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = X.copy()
        bad[0, 0] = bad_value
        with pytest.raises(DataError, match="non-finite values in feature matrix"):
            model.predict_raw(bad)
        with pytest.raises(DataError, match="non-finite"):
            model.predict_proba(bad)


_WIDE_ROWS, _WIDE_FEATURES = 400, 200


def _wide_data(informative, seed=14):
    # the tests below place columns around the root's chunk boundaries
    assert feature_select._SCAN_CELLS // _WIDE_ROWS == 81
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, _WIDE_ROWS).astype(float)
    X = rng.normal(size=(_WIDE_ROWS, _WIDE_FEATURES))
    X[:, informative] = y + rng.normal(0.0, 0.3, _WIDE_ROWS)
    return X, y


def test_chunked_scan_matches_reference_with_best_split_in_a_later_chunk():
    X, y = _wide_data(informative=170)
    model = _assert_matches_reference(X, y, GbdtConfig(rounds=4))
    assert model.trees[0].feature == 170


def test_chunked_scan_duplicate_across_chunk_boundary_keeps_lower_index():
    X, y = _wide_data(informative=80)
    X[:, 81] = X[:, 80]                  # first column of the root's second chunk
    model = _assert_matches_reference(X, y, GbdtConfig(rounds=4))
    assert model.trees[0].feature == 80
    assert model.importance[80] > 0.0
    assert model.importance[81] == 0.0


def test_chunked_scan_first_chunk_all_constant():
    X, y = _wide_data(informative=120)
    X[:, :81] = 3.0
    model = _assert_matches_reference(X, y, GbdtConfig(rounds=4))
    assert np.all(model.importance[:81] == 0.0)


def test_chunked_scan_single_feature():
    X, y = _make_data(seed=15)
    _assert_matches_reference(X[:, 2:3], y, GbdtConfig(rounds=10))


def test_chunked_scan_no_features_fits_leaf_only_trees():
    X, y = _make_data(n=100, seed=16)
    model = _assert_matches_reference(X[:, :0], y, GbdtConfig(rounds=5))
    assert all(tree.value is not None for tree in model.trees)
    assert np.all(model.importance == 0.0)


def _perfbench_matrix(candles, windows=None):
    series = sine_market(n=candles, seed=201)
    table = generate_features(series, default_grid(windows) if windows else default_grid())
    closes = series.close[len(series) - len(table):]
    train_rows = int(len(table) * 0.8)
    return table.values[:train_rows - 1], direction_labels(closes[:train_rows])


@pytest.mark.parametrize("candles, windows, shape", [
    (1000, (7, 14), (772, 31)),       # sine_reference
    (2000, None, (1558, 64)),         # staged_retrain
], ids=["sine_reference", "staged_retrain"])
def test_chunked_scan_matches_reference_at_perfbench_shapes(candles, windows, shape):
    X, y = _perfbench_matrix(candles, windows)
    assert X.shape == shape
    _assert_matches_reference(X, y, GbdtConfig())


@pytest.mark.parametrize("cells", [1, 10 ** 9], ids=["one_feature", "all_features"])
def test_chunk_size_does_not_change_the_model(monkeypatch, cells):
    X, y = _tied_data()
    X = np.hstack([X, _make_data(n=len(X), seed=17)[0]])
    monkeypatch.setattr(feature_select, "_SCAN_CELLS", cells)
    _assert_matches_reference(X, y, GbdtConfig(rounds=10, min_samples_leaf=5))
