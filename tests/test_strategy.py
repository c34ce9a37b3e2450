"""Threshold rules, bet sizing, and the dual-accounting backtest fold."""
from __future__ import annotations

import json

import numpy as np
import pytest

from candlecast.errors import ConfigError, DataError
from candlecast.strategy import (LONG, NO_ACTION, SHORT, BacktestReport,
                                 StrategyConfig, Trade, bet_size,
                                 read_ledger_csv, report_to_dict, risk_reward,
                                 run_backtest, signal, thresholds,
                                 write_ledger_csv, write_report_csv,
                                 write_report_json)


def test_threshold_pairs():
    assert thresholds(1.0) == (0.5, 0.5)
    assert thresholds(0.25) == (0.8, 0.2)
    upper, lower = thresholds(1.0 / 3.0)
    assert upper == pytest.approx(0.75, abs=1e-15)
    assert lower == pytest.approx(0.25, abs=1e-15)
    for theta in (0.1, 0.5, 0.9, 1.0, 2.0):
        upper, lower = thresholds(theta)
        assert upper + lower == pytest.approx(1.0, abs=1e-15)
    for theta in (0.1, 0.5, 0.9, 1.0):
        upper, lower = thresholds(theta)
        assert upper >= lower                          # bands only overlap past 1
    with pytest.raises(ConfigError):
        thresholds(0.0)
    with pytest.raises(ConfigError):
        thresholds(-0.5)


def test_signal_regions():
    upper, lower = thresholds(1.0 / 3.0)
    assert signal(0.9, upper, lower) == LONG
    assert signal(0.1, upper, lower) == SHORT
    assert signal(0.6, upper, lower) == NO_ACTION
    assert signal(0.75, upper, lower) == LONG      # boundaries are inclusive
    assert signal(0.25, upper, lower) == SHORT
    # coinciding bounds: dead center goes long
    assert signal(0.5, 0.5, 0.5) == LONG


def test_bet_size():
    assert bet_size(0.1) == 0.4
    assert bet_size(0.5) == 0.0
    assert bet_size(0.95) == pytest.approx(0.45, abs=1e-15)
    assert bet_size(0.75) == 0.25


def test_risk_reward():
    assert risk_reward(100.0, 95.0, 115.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert risk_reward(100.0, 100.0, 115.0) == 0.0
    assert risk_reward(100.0, 90.0, 105.0) == 2.0
    with pytest.raises(DataError):
        risk_reward(100.0, 95.0, 100.0)


def test_single_long_trade_worked_example():
    config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.001,
                            profit_saving=True, initial_margin=1000.0)
    report = run_backtest([0.8], [100.0, 110.0], [1.0], config)
    assert report.trades == 1 and report.tp == 1
    trade = report.ledger[0]
    assert trade.direction == LONG
    assert trade.margin == bet_size(0.8) * 1000.0
    assert trade.margin == pytest.approx(300.0, abs=1e-9)
    # pnl = margin * return - 2 * fee * margin, written exactly that way
    assert trade.pnl == trade.margin * 0.1 - 2.0 * 0.001 * trade.margin
    assert trade.pnl == pytest.approx(29.4, abs=1e-9)
    assert trade.account == pytest.approx(1029.4, abs=1e-9)
    assert report.pnl_profit_saving == pytest.approx(2.94, abs=1e-9)
    assert report.pnl_compounding == pytest.approx(2.94, abs=1e-9)


def test_short_trade_sign_and_fee():
    config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.0, initial_margin=100.0)
    report = run_backtest([0.25], [100.0, 90.0], [0.0], config)
    trade = report.ledger[0]
    assert trade.direction == SHORT
    assert trade.margin == 25.0
    assert trade.pnl == pytest.approx(2.5, abs=1e-12)   # short gains on a drop
    assert report.tn == 1 and report.trades == 1
    losing = run_backtest([0.25], [100.0, 110.0], [1.0], config)
    assert losing.ledger[0].pnl == pytest.approx(-2.5, abs=1e-12)
    assert losing.fn == 1


def test_zero_size_trade_still_counts():
    config = StrategyConfig(theta=1.0, fee_rate=0.001, initial_margin=1000.0)
    report = run_backtest([0.5], [100.0, 105.0], [1.0], config)
    assert report.trades == 1
    assert report.ledger[0].direction == LONG          # long precedence
    assert report.ledger[0].margin == 0.0
    assert report.ledger[0].pnl == 0.0
    assert report.final_profit_saving == 1000.0


def test_confusion_matrix_and_metrics():
    config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.0, initial_margin=100.0)
    sigmas = [0.9, 0.9, 0.1, 0.1, 0.6]
    closes = [100.0] + [100.0 * 1.01 ** i for i in range(1, 6)]
    labels = [1.0, 0.0, 0.0, 1.0, 1.0]
    report = run_backtest(sigmas, closes, labels, config)
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 1, 1)
    assert report.trades == 4                          # the 0.6 candle sat out
    assert report.accuracy == (report.tp + report.tn) / report.trades
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5
    acted = {row.t for row in report.ledger}
    assert acted == {0, 1, 2, 3}


def test_no_trades_report_is_sane():
    config = StrategyConfig(theta=1.0 / 3.0)
    report = run_backtest([0.6, 0.4], [100.0, 101.0, 102.0], [1.0, 1.0], config)
    assert report.trades == 0
    assert report.accuracy == 0.0 and report.f1 == 0.0
    assert report.pnl_compounding == 0.0
    assert report.final_profit_saving == report.initial_margin
    assert report.ledger == []


def test_dual_accounting_diverges_over_wins():
    # every trade wins, so letting profits compound must beat banking them
    config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.0, initial_margin=1000.0)
    sigmas = [0.9] * 5
    closes = [100.0 * 1.05 ** i for i in range(6)]
    labels = [1.0] * 5
    report = run_backtest(sigmas, closes, labels, config)
    assert report.pnl_compounding > report.pnl_profit_saving > 0.0
    # profit-saving margins never move off the initial base
    saving_rows = report.ledger
    assert all(row.margin == pytest.approx(400.0, abs=1e-12) for row in saving_rows)
    compounding = run_backtest(sigmas, closes, labels,
                               StrategyConfig(theta=1.0 / 3.0, fee_rate=0.0,
                                              profit_saving=False,
                                              initial_margin=1000.0))
    margins = [row.margin for row in compounding.ledger]
    assert all(b > a for a, b in zip(margins, margins[1:]))
    # the summary numbers do not depend on which ledger was requested
    assert compounding.pnl_compounding == report.pnl_compounding
    assert compounding.pnl_profit_saving == report.pnl_profit_saving


def test_unit_margin_oracle_equivalence():
    # sigma = 0.9 / 0.1 gives bet 0.4; an initial margin of 2.5 makes every
    # profit-saving margin exactly 1.0, so with zero fees the banked total
    # is the plain sum of signed simple returns
    rng = np.random.default_rng(5)
    closes = list(100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.01, 21)))
    sigmas = [0.9 if i % 2 == 0 else 0.1 for i in range(20)]
    labels = [1.0 if closes[i + 1] > closes[i] else 0.0 for i in range(20)]
    config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.0, initial_margin=2.5)
    report = run_backtest(sigmas, closes, labels, config)
    expected = 0.0
    for t, sigma in enumerate(sigmas):
        r = (closes[t + 1] - closes[t]) / closes[t]
        expected = expected + (r if sigma > 0.5 else -r)
    assert report.final_profit_saving - 2.5 == pytest.approx(expected, abs=1e-12)


def test_theta_nesting_on_random_sigmas():
    rng = np.random.default_rng(11)
    sigmas = rng.random(300)
    thetas = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.1]
    acted_sets = []
    for theta in thetas:
        upper, lower = thresholds(theta)
        acted_sets.append({i for i, s in enumerate(sigmas)
                           if signal(s, upper, lower) != NO_ACTION})
    for wider, narrower in zip(acted_sets, acted_sets[1:]):
        assert narrower <= wider
    counts = [len(s) for s in acted_sets]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[0] == 300                            # theta=1 acts on everything


def test_backtest_validation():
    config = StrategyConfig()
    with pytest.raises(DataError, match="closes"):
        run_backtest([0.5], [100.0], [1.0], config)
    with pytest.raises(DataError, match="labels"):
        run_backtest([0.5], [100.0, 101.0], [1.0, 0.0], config)
    with pytest.raises(DataError, match="0 or 1"):
        run_backtest([0.5], [100.0, 101.0], [0.5], config)
    with pytest.raises(DataError, match="positive"):
        run_backtest([0.5], [100.0, -1.0], [1.0], config)
    with pytest.raises(DataError, match="finite"):
        run_backtest([np.nan], [100.0, 101.0], [1.0], config)
    with pytest.raises(ConfigError):
        StrategyConfig(theta=-1.0)
    with pytest.raises(ConfigError):
        StrategyConfig(fee_rate=-0.001)
    with pytest.raises(ConfigError):
        StrategyConfig(initial_margin=0.0)


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_thresholds_refuse_non_finite_theta(theta):
    with pytest.raises(ConfigError, match="theta must be positive"):
        thresholds(theta)


@pytest.mark.parametrize("field,value,text", [
    ("theta", np.nan, "theta must be positive"),
    ("fee_rate", np.nan, "fee rate cannot be negative"),
    ("fee_rate", np.inf, "fee rate cannot be negative"),
    ("initial_margin", np.nan, "initial margin must be positive"),
    ("initial_margin", np.inf, "initial margin must be positive"),
])
def test_strategy_config_refuses_non_finite(field, value, text):
    with pytest.raises(ConfigError, match=text):
        StrategyConfig(**{field: value})


def test_backtest_refuses_probabilities_outside_unit_interval():
    config = StrategyConfig()
    closes, labels = [100.0, 101.0, 100.0, 102.0], [1.0, 0.0, 1.0]
    for sigmas in ([1.7, -0.4, 0.7], [0.5, -0.4, 0.7], [0.5, 0.5, 1.0000001]):
        with pytest.raises(DataError, match=r"probabilities must be in \[0, 1\]"):
            run_backtest(sigmas, closes, labels, config)
    # the bounds themselves are probabilities and trade at full conviction
    report = run_backtest([1.0, 0.0, 0.5], closes, labels, config)
    assert report.trades == 2
    assert [row.margin for row in report.ledger] == [500.0, 500.0]


def test_ledger_csv_round_trip(tmp_path):
    config = StrategyConfig(theta=1.0 / 3.0, fee_rate=0.001, initial_margin=1000.0)
    rng = np.random.default_rng(23)
    closes = list(100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.02, 31)))
    sigmas = rng.random(30)
    labels = [1.0 if closes[i + 1] > closes[i] else 0.0 for i in range(30)]
    report = run_backtest(sigmas, closes, labels, config)
    assert report.trades > 3
    path = tmp_path / "ledger.csv"
    write_ledger_csv(report.ledger, path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,sigma,direction,margin,entry,exit,pnl,account"
    assert read_ledger_csv(path) == report.ledger
    bad = tmp_path / "bad.csv"
    bad.write_text("t,sigma\n0,0.5\n")
    with pytest.raises(DataError, match="ledger"):
        read_ledger_csv(bad)


def test_report_serialization_deterministic(tmp_path):
    config = StrategyConfig(theta=0.25, fee_rate=0.001, initial_margin=500.0)
    report = run_backtest([0.9, 0.1, 0.55], [100.0, 103.0, 99.0, 100.5],
                          [1.0, 0.0, 1.0], config)
    summary = report_to_dict(report, extra={"sigma_star": 0.85})
    assert "ledger" not in summary
    assert summary["sigma_star"] == 0.85
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(report, a, extra={"sigma_star": 0.85})
    write_report_json(report, b, extra={"sigma_star": 0.85})
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    assert parsed["trades"] == report.trades
    assert list(parsed) == sorted(parsed)
    csv_path = tmp_path / "report.csv"
    write_report_csv(report, csv_path, extra={"sigma_star": 0.85})
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("theta,")
    assert any(ln.startswith("sigma_star,") for ln in lines)
