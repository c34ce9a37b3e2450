"""Acceptance gate: one test per release criterion, each enforcing its stated
tolerance and runtime budget.  Run with ``pytest -v tests/test_acceptance.py``
for the per-criterion pass/fail listing."""
from __future__ import annotations

import functools
import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from candlecast.classifier import build_classifier, forward, predict_batch
from candlecast.denoise import WaveletConfig, denoise_column, dwt_forward, dwt_inverse
from candlecast.errors import DataError
from candlecast.feature_select import GbdtConfig, fit_gbdt, rank_features, select_top_k
from candlecast.indicators import default_grid, generate_features
from candlecast.dataset import direction_labels
from candlecast.nn import (ConvSpec, LstmCell, Tensor, bce_loss, conv1d_forward,
                           conv1d_out_len, dense, dropout, lstm_many_to_one, lstm_step,
                           maxpool1d, mse_loss, relu, same_padding, sigmoid, softmax,
                           tanh, upsample_nearest)
from candlecast.pipeline import build_config, run_all
from candlecast.strategy import (LONG, NO_ACTION, SHORT, StrategyConfig, bet_size,
                                 run_backtest, signal, thresholds)
from candlecast.trainer import TrainConfig, quality_gate, sigma_star, train_classifier

from conftest import gradcheck, make_series


# one line per criterion; a conftest hook echoes these in the terminal
# summary so they survive pytest's output capture
CRITERION_LINES: list[str] = []


def _record(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


def criterion(num: int, label: str, budget: float | None = None):
    """Time the body, emit one pass/fail line, enforce the runtime budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _record(f"criterion {num:02d} {label}: FAIL "
                        f"after {time.perf_counter() - start:.2f}s")
                raise
            elapsed = time.perf_counter() - start
            tail = f" (budget {budget:g}s)" if budget else ""
            _record(f"criterion {num:02d} {label}: PASS in {elapsed:.2f}s{tail}")
            if budget is not None:
                assert elapsed < budget, (f"criterion {num} overran its "
                                          f"{budget:g}s budget: {elapsed:.2f}s")
        return wrapper
    return deco


@criterion(1, "quality proxy numerics", budget=1.0)
def test_criterion_01_quality_proxy_numerics():
    # published reference points, rounded to four places
    assert abs(sigma_star(0.5) - 0.3162) < 5e-3
    assert abs(sigma_star(0.07) - 0.8511) < 5e-3
    # gate direction at zeta = 0.8: the 0.85-confidence model passes, the
    # 0.31 one does not, and the boundary counts as trained
    assert quality_gate(sigma_star(0.07), zeta=0.8)
    assert not quality_gate(sigma_star(0.5), zeta=0.8)
    assert quality_gate(0.8, zeta=0.8)


@criterion(2, "strategy thresholds and bet sizing", budget=1.0)
def test_criterion_02_strategy_math():
    upper, lower = thresholds(1.0 / 3.0)
    assert abs(upper - 0.75) <= 1e-15 and abs(lower - 0.25) <= 1e-15
    assert thresholds(0.25) == (0.8, 0.2)
    assert thresholds(1.0) == (0.5, 0.5)
    # sigma = 0.1 worked example: shorts with 0.4 of the margin, exactly
    assert signal(0.1, upper, lower) == SHORT
    assert bet_size(0.1) == 0.4
    assert signal(0.8, upper, lower) == LONG
    assert signal(0.5, upper, lower) == NO_ACTION
    assert signal(0.75, upper, lower) == LONG      # inclusive bands
    assert signal(0.25, upper, lower) == SHORT


def _slide_count(l_in: int, kernel: int, stride: int, padding: int,
                 dilation: int = 1) -> int:
    """Count kernel placements by actually sliding it over the padded axis."""
    count, start = 0, 0
    while start + (kernel - 1) * dilation <= l_in + 2 * padding - 1:
        count += 1
        start += stride
    return count


@criterion(3, "shape laws", budget=10.0)
def test_criterion_03_shape_laws():
    rng = np.random.default_rng(3)
    cases = 0
    while cases < 1000:
        l_in = int(rng.integers(1, 40))
        kernel = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 5))
        padding = int(rng.integers(0, 4))
        dilation = int(rng.integers(1, 3))
        spec = ConvSpec(2, 3, kernel, stride, padding, dilation)
        expected = _slide_count(l_in, kernel, stride, padding, dilation)
        if expected < 1:
            with pytest.raises(DataError):
                conv1d_out_len(spec, l_in)
            continue
        assert conv1d_out_len(spec, l_in) == expected
        x = Tensor(rng.normal(size=(2, 2, l_in)))
        w = Tensor(rng.normal(size=(3, 2, kernel)))
        b = Tensor(np.zeros(3))
        assert conv1d_forward(x, spec, w, b).shape == (2, 3, expected)
        if dilation == 1 and kernel <= l_in:
            pooled = maxpool1d(Tensor(rng.normal(size=(1, 2, l_in))), kernel, stride)
            assert pooled.shape == (1, 2, _slide_count(l_in, kernel, stride, 0))
        cases += 1
    # odd kernels at stride 1 with (k-1)/2 padding preserve the width
    for kernel in (1, 3, 5, 7):
        for l_in in (5, 12, 24, 33):
            spec = ConvSpec(1, 1, kernel, 1, same_padding(kernel))
            assert conv1d_out_len(spec, l_in) == l_in
    # a 24-candle window pools 3:1 down to 8 sequence positions
    assert maxpool1d(Tensor(np.zeros((1, 5, 24))), 3, 3).shape == (1, 5, 8)
    model = build_classifier(5, 2, 2, 24, seed=0)
    assert model.seq_len == 8


@criterion(4, "gradient correctness", budget=60.0)
def test_criterion_04_gradients():
    seeds = 0
    worst = 0.0

    def check(build, tensors):
        nonlocal worst
        worst = max(worst, gradcheck(build, tensors))

    def leaf(a):
        return Tensor(a, requires_grad=True)

    for seed in range(14):
        rng = np.random.default_rng(1000 + seed)
        x = leaf(rng.normal(size=(2, 2, 7)))
        w = leaf(rng.normal(size=(3, 2, 3)))
        b = leaf(rng.normal(size=3))
        spec = ConvSpec(2, 3, 3, 2, 1)
        check(lambda: (conv1d_forward(x, spec, w, b) ** 2).sum(), [x, w, b])

        p = leaf(rng.normal(size=(2, 3, 9)))
        check(lambda: (maxpool1d(p, 3, 2) * 1.5).sum(), [p])

        u = leaf(rng.normal(size=(2, 2, 4)))
        check(lambda: (upsample_nearest(u, 2) ** 2).sum(), [u])

        xd = leaf(rng.normal(size=(3, 4)))
        wd = leaf(rng.normal(size=(2, 4)))
        bd = leaf(rng.normal(size=2))
        check(lambda: sigmoid(dense(xd, wd, bd)).sum(), [xd, wd, bd])

        cell = LstmCell(2, 3, rng)
        seq = leaf(rng.normal(size=(2, 3, 2)))
        tensors = list(cell.parameters().values()) + [seq]
        check(lambda: (lstm_many_to_one(cell, seq) ** 2).sum(), tensors)

        dx = leaf(rng.normal(size=(3, 5)))
        check(lambda: (dropout(dx, 0.4, rng=int(seed), training=True) ** 2).sum(), [dx])

        act = leaf(rng.normal(size=(2, 6)))
        mixer = Tensor(rng.normal(size=(2, 6)))
        target = (rng.random(4) > 0.5).astype(float)
        logits = leaf(rng.normal(size=4))
        check(lambda: (relu(act) * tanh(act)).sum()
              + (softmax(act) * mixer).sum()
              + bce_loss(sigmoid(logits), target)
              + mse_loss(act, Tensor(np.zeros((2, 6)))), [act, logits])
        seeds += 7

    def branch_kink_distance(model, groups):
        # a branch whose first conv goes everywhere-negative feeds exact
        # zeros to the second conv, parking its zero-init bias exactly on
        # the relu kink; finite differences are undefined there, so such
        # draws are screened out before checking, never after
        dist = np.inf
        for branch, x in zip(model.branches, groups):
            pre1 = branch.conv1(maxpool1d(x, 3, 3))
            pre2 = branch.conv2(relu(pre1))
            dist = min(dist, float(np.min(np.abs(pre1.data))),
                       float(np.min(np.abs(pre2.data))))
        return dist

    checked, candidate = 0, 2000
    while checked < 4:
        rng = np.random.default_rng(candidate)
        candidate += 1
        model = build_classifier(2, 1, 1, 6, seed=rng, hidden_size=3,
                                 branch_channels=2, dropout_rate=0.3)
        groups = (leaf(rng.normal(size=(3, 2, 6))), leaf(rng.normal(size=(3, 1, 6))),
                  leaf(rng.normal(size=(3, 1, 6))))
        y = (rng.random(3) > 0.5).astype(float)
        if branch_kink_distance(model, groups) < 1e-3:
            continue
        tensors = list(model.parameters().values()) + list(groups)
        for training in (False, True):
            check(lambda: bce_loss(forward(model, *groups,
                                           training=training, rng=17), y), tensors)
        checked += 1
        seeds += 1
    assert seeds >= 100
    assert worst < 1e-4, f"worst gradient mismatch {worst:.2e}"


@criterion(5, "recurrent cell oracle")
def test_criterion_05_lstm_oracle():
    rng = np.random.default_rng(55)
    cell = LstmCell(2, 3, rng)
    xs = rng.normal(size=(3, 2))
    p = {k: t.data for k, t in cell.params.items()}

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    a, c = np.zeros(3), np.zeros(3)
    for t in range(3):
        z = np.concatenate([a, xs[t]])
        c_tilde = np.tanh(p["W_c"] @ z + p["b_c"])
        g_u = sig(p["W_u"] @ z + p["b_u"])
        g_f = sig(p["W_f"] @ z + p["b_f"])
        g_o = sig(p["W_o"] @ z + p["b_o"])
        c = g_u * c_tilde + g_f * c
        a = g_o * np.tanh(c)
    out = lstm_many_to_one(cell, xs)
    assert_allclose(out.data, a, rtol=0.0, atol=1e-12)

    # all-zero weights: every gate sits at 1/2 and the candidate at 0, so the
    # cell state exactly halves each step
    zero_cell = LstmCell(2, 2, np.random.default_rng(0))
    for t in zero_cell.params.values():
        t.data[:] = 0.0
    c_prev = np.array([0.8, -0.4])
    a_out, c_out = lstm_step(zero_cell, np.zeros(2), c_prev, np.array([3.0, -1.0]))
    assert np.array_equal(c_out.data, 0.5 * c_prev)
    assert np.array_equal(a_out.data, 0.5 * np.tanh(0.5 * c_prev))
    a_out, c_out = lstm_step(zero_cell, a_out, c_out, np.array([-2.0, 5.0]))
    assert np.array_equal(c_out.data, 0.25 * c_prev)


@criterion(6, "wavelet reconstruction and denoising", budget=10.0)
def test_criterion_06_wavelet():
    rng = np.random.default_rng(6)
    for family in ("haar", "db4"):
        for levels in (1, 2, 3):
            config = WaveletConfig(family, levels, "global")
            x = rng.normal(size=64)
            approx, details, lengths = dwt_forward(x, config)
            back = dwt_inverse(approx, details, lengths, config)
            assert np.max(np.abs(back - x)) < 1e-9

    t = np.arange(256)
    clean = np.sin(2.0 * np.pi * t / 32.0)
    noisy = clean.copy()
    noisy[[40, 100, 170, 220]] += np.array([0.9, -0.7, 0.8, -0.6])
    denoised = denoise_column(noisy, WaveletConfig("db4", 2, "global"))
    assert np.mean((denoised - clean) ** 2) < np.mean((noisy - clean) ** 2)

    # causal mode: row t never reads past t, so rewriting the future leaves
    # every earlier output bit-identical
    causal = WaveletConfig("db4", 2, "causal")
    x = np.sin(np.arange(96) / 7.0) + rng.normal(0.0, 0.1, 96)
    base = denoise_column(x, causal)
    for cut in (5, 31, 64, 90):
        tampered = x.copy()
        tampered[cut:] += rng.normal(2.0, 1.0, 96 - cut)
        assert np.array_equal(denoise_column(tampered, causal)[:cut], base[:cut])
        assert denoise_column(x[:cut], causal)[-1] == base[cut - 1]


@criterion(7, "boosted-tree ranking", budget=30.0)
def test_criterion_07_gbdt():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 6))
    y = (X[:, 3] > 0.0).astype(float)
    model = fit_gbdt(X, y, GbdtConfig(rounds=20, max_depth=2, learning_rate=0.3,
                                      min_samples_leaf=10))
    assert rank_features(model)[0] == "f3"
    assert int(np.argmax(model.importance)) == 3
    assert np.all(np.diff(model.loss_history) <= 1e-12)

    series = make_series(400, seed=71)
    table = generate_features(series, default_grid((7, 14, 21, 35, 50)))
    closes = series.close[len(series) - len(table):]
    labels = direction_labels(closes)
    ranking = fit_gbdt(table.values[:-1], labels, GbdtConfig(rounds=40),
                       feature_names=table.names)
    assert np.all(np.diff(ranking.loss_history) <= 1e-12)
    picked = select_top_k(table, ranking, 25)
    raw = {"open", "high", "low", "close", "volume"}
    assert raw <= set(picked.names)
    assert len(picked.names) == 30
    generated = [n for n in rank_features(ranking) if n not in raw]
    assert set(picked.names) - raw == set(generated[:25])


@criterion(8, "training loop termination", budget=600.0)
def test_criterion_08_trainer_behavior():
    rng = np.random.default_rng(41)
    n = 2000
    ohlcv = rng.normal(size=(n, 2, 6))
    shift = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    ohlcv[:, 0, :] = rng.normal(scale=0.3, size=(n, 6)) + shift[:, None]
    price = rng.normal(size=(n, 1, 6))
    non_price = rng.normal(size=(n, 1, 6))
    y = (ohlcv[:, 0, :].mean(axis=1) > 0.0).astype(float)

    model = build_classifier(2, 1, 1, 6, seed=42, hidden_size=6,
                             branch_channels=4, dropout_rate=0.0)
    config = TrainConfig(max_epochs=2000, learning_rate=2e-2, batch_size=64)
    report = train_classifier(model, ohlcv, price, non_price, y, config, seed=43)
    assert report.status == "well_trained"
    assert report.sigma_star >= 0.8
    assert report.epochs_run <= 2000
    sigma = predict_batch(model, ohlcv, price, non_price)
    assert np.mean((sigma >= 0.5) == (y == 1.0)) > 0.95

    # the same inputs with shuffled labels carry no signal; training
    # terminates under-fitted with the quality proxy at the coin-flip level
    noise_y = np.random.default_rng(44).integers(0, 2, n).astype(float)
    model = build_classifier(2, 1, 1, 6, seed=42, hidden_size=6,
                             branch_channels=4, dropout_rate=0.0)
    config = TrainConfig(max_epochs=30, learning_rate=2e-2, batch_size=64)
    report = train_classifier(model, ohlcv, price, non_price, noise_y, config, seed=43)
    assert report.status == "under_fitted"
    assert not report.well_trained
    assert abs(report.sigma_star - 0.5) <= 0.05


@criterion(9, "backtest ledger oracle")
def test_criterion_09_backtest_oracle():
    closes = [100.0, 110.0, 99.0, 89.1, 93.555, 98.0, 102.9,
              100.0, 95.0, 99.75, 94.7625]
    sigmas = [0.80, 0.90, 0.10, 0.50, 0.75, 0.25, 0.60, 0.20, 0.74, 0.85]
    labels = [1.0 if closes[t + 1] > closes[t] else 0.0 for t in range(10)]

    # hand accounting at theta = 1/3 (bands 0.75 / 0.25), fee 0.001 per side:
    # t=0 long wins, t=1 long loses, t=2 short wins, t=4 boundary long wins,
    # t=5 boundary short loses, t=7 short wins, t=9 long loses; t=3, 6, 8 sit out
    acted = [(0, 0.80, LONG), (1, 0.90, LONG), (2, 0.10, SHORT),
             (4, 0.75, LONG), (5, 0.25, SHORT), (7, 0.20, SHORT),
             (9, 0.85, LONG)]
    account, saved = 1000.0, 0.0
    expected = []
    for t, sig, direction in acted:
        bet = abs(sig - 0.5)
        r = (closes[t + 1] - closes[t]) / closes[t]
        rho = r if direction == LONG else -r
        margin_c = bet * account
        margin_s = bet * 1000.0
        pnl_c = margin_c * rho - 2.0 * 0.001 * margin_c
        pnl_s = margin_s * rho - 2.0 * 0.001 * margin_s
        account = account + pnl_c
        saved = saved + pnl_s
        expected.append((t, sig, direction, margin_c, pnl_c, account,
                         margin_s, pnl_s, 1000.0 + saved))

    for profit_saving in (False, True):
        config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.001,
                                profit_saving=profit_saving, initial_margin=1000.0)
        report = run_backtest(sigmas, closes, labels, config)
        assert len(report.ledger) == 7
        for row, exp in zip(report.ledger, expected):
            t, sig, direction, margin_c, pnl_c, acct_c, margin_s, pnl_s, acct_s = exp
            assert (row.t, row.sigma, row.direction) == (t, sig, direction)
            assert (row.entry, row.exit) == (closes[t], closes[t + 1])
            if profit_saving:
                assert (row.margin, row.pnl, row.account) == (margin_s, pnl_s, acct_s)
            else:
                assert (row.margin, row.pnl, row.account) == (margin_c, pnl_c, acct_c)
        # wins: t=0, t=2, t=4, t=7; confusion over acted instances only
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 2, 2, 1)
        assert report.trades == 7
        assert report.final_compounding == account
        assert report.final_profit_saving == 1000.0 + saved
        assert report.pnl_compounding == 100.0 * (account - 1000.0) / 1000.0
        assert report.pnl_profit_saving == 100.0 * saved / 1000.0

    # lowering theta can only remove acted candles, never add them
    rng = np.random.default_rng(9)
    rand_sigmas = rng.random(300)
    rand_closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 301)))
    rand_labels = (rand_closes[1:] > rand_closes[:-1]).astype(float)
    previous = None
    for theta in (1.0, 0.5, 1.0 / 3.0, 0.25, 0.1):
        config = StrategyConfig(theta=theta, fee_rate=0.001,
                                profit_saving=True, initial_margin=1000.0)
        report = run_backtest(rand_sigmas, rand_closes, rand_labels, config)
        current = {row.t for row in report.ledger}
        if previous is not None:
            assert current <= previous
            assert len(current) <= len(previous)
        previous = current
    upper, lower = thresholds(1.0)
    assert upper == lower == 0.5          # theta = 1 acts on every candle
    full = run_backtest(rand_sigmas, rand_closes, rand_labels,
                        StrategyConfig(theta=1.0, fee_rate=0.001,
                                       profit_saving=True, initial_margin=1000.0))
    assert full.trades == 300


@pytest.mark.slow
@criterion(10, "end-to-end determinism and sanity", budget=1200.0)
def test_criterion_10_end_to_end(tmp_path):
    # stock configuration, twice, into different directories
    config_a = build_config(None, [f"out_dir={tmp_path / 'a'}"])
    config_b = build_config(None, [f"out_dir={tmp_path / 'b'}"])
    assert config_a.synthetic_n == 4000 and config_a.data == "synthetic"
    assert config_a.run_id == config_b.run_id

    paths_a, train_report, reports = run_all(config_a)
    paths_b, _, _ = run_all(config_b)
    assert train_report.well_trained

    names = sorted(p.name for p in paths_a.root.iterdir())
    assert names == sorted(p.name for p in paths_b.root.iterdir())
    for name in names:
        assert (paths_a.root / name).read_bytes() == \
            (paths_b.root / name).read_bytes(), f"{name} differs between runs"

    by_theta = {round(r.theta, 6): r for r in reports}
    at_one = by_theta[round(1.0, 6)]
    assert at_one.accuracy > 0.60, f"held-out accuracy {at_one.accuracy:.3f}"
    at_third = by_theta[round(1.0 / 3.0, 6)]
    assert at_third.fee_rate == 0.001
    assert at_third.pnl_profit_saving > 0.0, \
        f"profit-saving PnL {at_third.pnl_profit_saving:.2f}%"

    summary = json.loads(paths_a.backtest_json.read_text())
    assert len(summary["runs"]) == len(config_a.theta_list)
