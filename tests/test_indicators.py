"""Indicator oracles, warm-up accounting, no-lookahead, and the feature table.

Frozen hand-computed values:
  - EMA(3) on [1,2,3,4,5]: seed mean(1,2,3)=2, k=0.5 -> [nan,nan,2,3,4]
  - WMA(3) on [1,2,3,4,5]: weights [1,2,3]/6 -> [nan,nan,14/6,20/6,26/6]
  - strictly rising closes -> RSI=100; constant closes -> RSI=50
"""
from __future__ import annotations

import numpy as np
import pytest

from candlecast.errors import DataError
from candlecast.indicators import (FeatureClass, FeatureTable, IndicatorSpec,
                                   compute_indicator, default_grid,
                                   generate_features)
from candlecast.market_data import CandleSeries

from conftest import make_series, series_from_closes


def col(spec, series):
    return compute_indicator(spec, series)[1]


def test_sma_matches_brute_force():
    s = make_series(120, seed=1)
    for w in (2, 7, 20):
        v = col(IndicatorSpec("SMA", {"window": w}), s)
        for i in range(w - 1, len(s)):
            assert v[i] == pytest.approx(s.close[i - w + 1:i + 1].mean(), rel=1e-12)
        assert np.all(np.isnan(v[:w - 1]))


def test_ema_small_oracle():
    s = series_from_closes([1, 2, 3, 4, 5])
    v = col(IndicatorSpec("EMA", {"window": 3}), s)
    assert np.all(np.isnan(v[:2]))
    assert v[2:] == pytest.approx([2.0, 3.0, 4.0], abs=1e-12)


def test_ema_constant_fixed_point():
    s = series_from_closes(np.full(50, 42.0))
    v = col(IndicatorSpec("EMA", {"window": 14}), s)
    assert np.allclose(v[13:], 42.0, atol=1e-12)


def test_wma_small_oracle():
    s = series_from_closes([1, 2, 3, 4, 5])
    v = col(IndicatorSpec("WMA", {"window": 3}), s)
    assert v[2:] == pytest.approx([14 / 6, 20 / 6, 26 / 6], rel=1e-12)


def test_rsi_extremes():
    up = series_from_closes(np.linspace(10, 30, 40))
    assert np.allclose(col(IndicatorSpec("RSI", {"window": 14}), up)[14:], 100.0)
    down = series_from_closes(np.linspace(30, 10, 40))
    assert np.allclose(col(IndicatorSpec("RSI", {"window": 14}), down)[14:], 0.0)
    flat = series_from_closes(np.full(40, 5.0))
    assert np.allclose(col(IndicatorSpec("RSI", {"window": 14}), flat)[14:], 50.0)


def test_rsi_range_bounded():
    s = make_series(300, seed=9)
    v = col(IndicatorSpec("RSI", {"window": 14}), s)
    ok = ~np.isnan(v)
    assert np.all((v[ok] >= 0.0) & (v[ok] <= 100.0))


def test_stochastic_k_positions():
    # close pinned to the rolling high -> 100, to the rolling low -> 0
    n = 30
    ts = np.arange(n, dtype=np.int64) * 60
    high = np.linspace(10, 20, n)
    low = high - 2.0
    close_hi = high.copy()
    open_ = np.clip(np.roll(close_hi, 1), low, high)
    open_[0] = close_hi[0]
    s = CandleSeries("X", 60, ts, open_, high, low, close_hi, np.ones(n))
    v = col(IndicatorSpec("StochasticK", {"window": 14}), s)
    assert np.allclose(v[13:], 100.0)
    flat = series_from_closes(np.full(n, 7.0))
    v = col(IndicatorSpec("StochasticK", {"window": 14}), flat)
    assert np.allclose(v[13:], 50.0)


def test_stochastic_d_is_sma3_of_k():
    s = make_series(100, seed=4)
    k = col(IndicatorSpec("StochasticK", {"window": 14}), s)
    d = col(IndicatorSpec("StochasticD", {"window": 14}), s)
    assert np.all(np.isnan(d[:15]))
    for i in range(15, len(s)):
        assert d[i] == pytest.approx(k[i - 2:i + 1].mean(), rel=1e-12)


def test_williams_r_extremes_and_flat():
    s = make_series(100, seed=12)
    v = col(IndicatorSpec("WilliamsR", {"window": 14}), s)
    ok = ~np.isnan(v)
    assert np.all((v[ok] >= -100.0) & (v[ok] <= 0.0))
    flat = series_from_closes(np.full(30, 3.0))
    v = col(IndicatorSpec("WilliamsR", {"window": 14}), flat)
    assert np.allclose(v[13:], -50.0)


def test_cci_flat_is_zero():
    flat = series_from_closes(np.full(30, 3.0))
    v = col(IndicatorSpec("CCI", {"window": 14}), flat)
    assert np.allclose(v[13:], 0.0)


def test_cci_brute_force():
    s = make_series(60, seed=2)
    w = 14
    v = col(IndicatorSpec("CCI", {"window": w}), s)
    tp = (s.high + s.low + s.close) / 3.0
    for i in range(w - 1, 60):
        win = tp[i - w + 1:i + 1]
        md = np.abs(win - win.mean()).mean()
        assert v[i] == pytest.approx((tp[i] - win.mean()) / (0.015 * md), rel=1e-10)


def test_atr_seed_is_mean_true_range():
    s = make_series(60, seed=6)
    w = 14
    v = col(IndicatorSpec("ATR", {"window": w}), s)
    tr = np.empty(60)
    tr[0] = s.high[0] - s.low[0]
    for i in range(1, 60):
        tr[i] = max(s.high[i] - s.low[i], abs(s.high[i] - s.close[i - 1]),
                    abs(s.low[i] - s.close[i - 1]))
    assert v[w - 1] == pytest.approx(tr[:w].mean(), rel=1e-12)
    # Wilder recursion afterwards
    for i in range(w, 60):
        assert v[i] == pytest.approx((v[i - 1] * (w - 1) + tr[i]) / w, rel=1e-12)


def test_bollinger_bands_bracket_sma():
    s = make_series(120, seed=8)
    up = col(IndicatorSpec("BollingerUpper", {"window": 20, "num_std": 2.0}), s)
    lo = col(IndicatorSpec("BollingerLower", {"window": 20, "num_std": 2.0}), s)
    sma = col(IndicatorSpec("SMA", {"window": 20}), s)
    ok = ~np.isnan(up)
    assert np.all(up[ok] >= lo[ok])
    assert np.allclose((up[ok] + lo[ok]) / 2.0, sma[ok], rtol=1e-12)
    # band half-width is num_std rolling (population) standard deviations
    i = 50
    std = s.close[i - 19:i + 1].std()
    assert up[i] - lo[i] == pytest.approx(4.0 * std, rel=1e-12)


def test_roc_momentum_brute_force():
    s = make_series(80, seed=3)
    w = 7
    roc = col(IndicatorSpec("ROC", {"window": w}), s)
    mom = col(IndicatorSpec("Momentum", {"window": w}), s)
    assert np.all(np.isnan(roc[:w])) and np.all(np.isnan(mom[:w]))
    for i in range(w, 80):
        assert roc[i] == pytest.approx(100.0 * (s.close[i] - s.close[i - w]) / s.close[i - w])
        assert mom[i] == pytest.approx(s.close[i] - s.close[i - w])


def test_obv_brute_force():
    s = series_from_closes([5, 6, 6, 4, 7], volume=2.0)
    v = col(IndicatorSpec("OBV"), s)
    # +2 (up), +0 (flat), -2 (down), +2 (up), cumulatively
    assert list(v) == [0.0, 2.0, 2.0, 0.0, 2.0]


def test_macd_matches_component_emas():
    s = make_series(150, seed=10)
    v = col(IndicatorSpec("MACD", {"fast": 12, "slow": 26, "signal": 9}), s)
    assert np.all(np.isnan(v[:33])) and not np.any(np.isnan(v[33:]))
    fast = col(IndicatorSpec("EMA", {"window": 12}), s)
    slow = col(IndicatorSpec("EMA", {"window": 26}), s)
    line = fast - slow
    # signal EMA seeded from the first 9 defined line values
    k = 2.0 / 10.0
    sig = line[25:34].mean()
    for i in range(34, 150):
        sig = k * line[i] + (1 - k) * sig
        assert v[i] == pytest.approx(line[i] - sig, rel=1e-10, abs=1e-12)


def test_warmup_exactness_all_kinds():
    s = make_series(200, seed=20)
    for spec in default_grid():
        v = col(spec, s)
        assert np.all(np.isnan(v[:spec.warmup])), spec.name
        assert not np.any(np.isnan(v[spec.warmup:])), spec.name


def test_prefix_consistency_no_lookahead():
    # values computed on a prefix equal the prefix of the full computation
    s = make_series(180, seed=21)
    for spec in default_grid():
        full = col(spec, s)
        for cut in (spec.warmup + 2, 120):
            part = col(spec, s.slice(0, cut))
            np.testing.assert_array_equal(part, full[:cut], err_msg=spec.name)


def test_suffix_behavior():
    # finite-window kinds recompute exactly on a suffix; recursive kinds
    # converge to the full-history values once the seed washes out; OBV
    # differs by a constant offset only
    s = make_series(600, seed=22)
    start = 200
    tail = s.slice(start, 600)
    finite = ("SMA", "WMA", "StochasticK", "StochasticD", "CCI",
              "BollingerUpper", "BollingerLower", "ROC", "WilliamsR", "Momentum")
    for spec in default_grid():
        full = col(spec, s)[start:]
        part = col(spec, tail)
        w = spec.warmup
        if spec.kind in finite:
            np.testing.assert_allclose(part[w:], full[w:], rtol=1e-10, err_msg=spec.name)
        elif spec.kind == "OBV":
            d = full[1:] - part[1:]
            assert np.allclose(d, d[0], atol=1e-9)
        else:  # EMA, RSI, ATR, MACD: exponential forgetting of the seed
            np.testing.assert_allclose(part[-50:], full[-50:], rtol=1e-3, atol=1e-6,
                                       err_msg=spec.name)


def test_price_shift_equivariance_of_price_like():
    # adding a constant to all prices shifts price-like outputs by the same
    # constant (ATR excluded: it measures ranges and is shift-invariant)
    s = make_series(150, seed=23)
    shift = 37.0
    shifted = CandleSeries(s.symbol, s.timeframe, s.timestamps, s.open + shift,
                           s.high + shift, s.low + shift, s.close + shift, s.volume)
    for kind in ("SMA", "EMA", "WMA", "BollingerUpper", "BollingerLower"):
        spec = IndicatorSpec(kind, {"window": 14 if kind not in ("BollingerUpper", "BollingerLower") else 20})
        a = col(spec, s)
        b = col(spec, shifted)
        ok = ~np.isnan(a)
        np.testing.assert_allclose(b[ok], a[ok] + shift, rtol=1e-12, err_msg=kind)
    spec = IndicatorSpec("ATR", {"window": 14})
    a, b = col(spec, s), col(spec, shifted)
    ok = ~np.isnan(a)
    np.testing.assert_allclose(b[ok], a[ok], rtol=1e-9)


def test_scale_invariance_of_oscillators():
    # RSI / stochastics / %R / ROC are unchanged under price rescaling
    s = make_series(150, seed=24)
    k = 3.5
    scaled = CandleSeries(s.symbol, s.timeframe, s.timestamps, s.open * k,
                          s.high * k, s.low * k, s.close * k, s.volume)
    for kind in ("RSI", "StochasticK", "StochasticD", "WilliamsR", "ROC", "CCI"):
        spec = IndicatorSpec(kind, {"window": 14})
        a, b = col(spec, s), col(spec, scaled)
        ok = ~np.isnan(a)
        np.testing.assert_allclose(b[ok], a[ok], rtol=1e-9, err_msg=kind)


def test_spec_names_and_classes():
    assert IndicatorSpec("EMA", {"window": 21}).name == "ema_21"
    assert IndicatorSpec("MACD").name == "macd_12_26_9"
    assert IndicatorSpec("StochasticK", {"window": 14}).name == "stoch_k_14"
    assert IndicatorSpec("BollingerUpper", {"window": 20}).name == "bb_upper_20"
    assert IndicatorSpec("OBV").name == "obv"
    assert IndicatorSpec("EMA", {"window": 21}).feature_class is FeatureClass.PRICE_LIKE
    assert IndicatorSpec("ATR", {"window": 14}).feature_class is FeatureClass.PRICE_LIKE
    assert IndicatorSpec("RSI", {"window": 14}).feature_class is FeatureClass.NON_PRICE_LIKE
    assert IndicatorSpec("OBV").feature_class is FeatureClass.NON_PRICE_LIKE
    with pytest.raises(DataError):
        IndicatorSpec("VWAP", {"window": 14})
    with pytest.raises(DataError):
        IndicatorSpec("SMA", {"window": 1})


P, N = FeatureClass.PRICE_LIKE, FeatureClass.NON_PRICE_LIKE

# every kind at non-default parameters: (kind, params, name, class, warm-up)
_KIND_CONTRACT = [
    ("SMA", {"window": 5}, "sma_5", P, 4),
    ("EMA", {"window": 6}, "ema_6", P, 5),
    ("WMA", {"window": 4}, "wma_4", P, 3),
    ("MACD", {"fast": 5, "slow": 8, "signal": 3}, "macd_5_8_3", N, 9),
    ("RSI", {"window": 9}, "rsi_9", N, 9),
    ("StochasticK", {"window": 9}, "stoch_k_9", N, 8),
    ("StochasticD", {"window": 9}, "stoch_d_9", N, 10),
    ("CCI", {"window": 11}, "cci_11", N, 10),
    ("ATR", {"window": 10}, "atr_10", P, 9),
    ("BollingerUpper", {"window": 7, "num_std": 1.5}, "bb_upper_7", P, 6),
    ("BollingerLower", {"window": 7, "num_std": 1.5}, "bb_lower_7", P, 6),
    ("ROC", {"window": 3}, "roc_3", N, 3),
    ("WilliamsR", {"window": 12}, "willr_12", N, 11),
    ("OBV", {}, "obv", N, 0),
    ("Momentum", {"window": 8}, "mom_8", N, 8),
]


@pytest.mark.parametrize("kind, params, name, cls, warmup", _KIND_CONTRACT)
def test_kind_contract(kind, params, name, cls, warmup):
    spec = IndicatorSpec(kind, params)
    assert (spec.name, spec.feature_class, spec.warmup) == (name, cls, warmup)
    got_name, values, got_cls = compute_indicator(spec, make_series(60, seed=40))
    assert (got_name, got_cls) == (name, cls)
    assert np.all(np.isnan(values[:warmup])) and not np.any(np.isnan(values[warmup:]))


def test_spec_refuses_undeclared_or_mistyped_parameters():
    for kind, params in [
        ("SMA", {"window": 7, "widnow": 9}),   # unknown key
        ("OBV", {"window": 3}),                # OBV takes no parameter
        ("MACD", {"window": 14}),
        ("SMA", {"window": 7.5}),              # non-integers, bools
        ("SMA", {"window": 7.0}),
        ("SMA", {"window": "7"}),
        ("SMA", {"window": True}),
        ("MACD", {"fast": 12.9}),
        ("MACD", {"slow": 26.0}),
        ("MACD", {"signal": np.float64(9)}),
        ("BollingerUpper", {"window": 20, "num_std": "2"}),  # non-numeric num_std
        ("BollingerLower", {"window": 20, "num_std": None}),
        ("BollingerLower", {"window": 20, "num_std": float("nan")}),
        ("BollingerLower", {"window": 20, "num_std": 0.0}),
        ("MACD", {"fast": 26, "slow": 12}),
        ("StochasticD", {}),
    ]:
        with pytest.raises(DataError):
            IndicatorSpec(kind, params)
    # numpy integers and any real num_std stay accepted
    assert IndicatorSpec("SMA", {"window": np.int64(7)}).name == "sma_7"
    assert IndicatorSpec("MACD", {"fast": np.int32(5), "slow": 8}).name == "macd_5_8_9"
    assert IndicatorSpec("BollingerUpper", {"window": 20, "num_std": 2}).warmup == 19
    assert IndicatorSpec("BollingerUpper", {"window": np.int16(5),
                                            "num_std": np.float32(1.5)}).name == "bb_upper_5"


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 59
    names = [g.name for g in grid]
    assert len(set(names)) == 59
    assert "ema_21" in names and "stoch_d_50" in names and "obv" in names
    # longest warm-up in the stock grid is stoch_d_50 at 51 rows
    assert max(g.warmup for g in grid) == 51


def test_generate_features_shape_and_alignment():
    s = make_series(300, seed=30)
    table = generate_features(s, default_grid())
    assert table.n_columns == 64
    assert len(table) == 300 - 51
    assert table.index[0] == s.timestamps[51]
    assert table.names[:5] == ["open", "high", "low", "close", "volume"]
    assert not np.any(np.isnan(table.values))
    # close column survives untouched
    np.testing.assert_array_equal(table.column("close"), s.close[51:])
    assert len(table.names_of_class(FeatureClass.OHLCV)) == 5
    assert len(table.names_of_class(FeatureClass.PRICE_LIKE)) == 22  # 4 kinds x 5 windows + 2 bands
    assert len(table.names_of_class(FeatureClass.NON_PRICE_LIKE)) == 37


def test_generate_features_rejects_duplicates():
    s = make_series(100, seed=31)
    grid = [IndicatorSpec("SMA", {"window": 7}), IndicatorSpec("SMA", {"window": 7})]
    with pytest.raises(DataError, match="duplicate"):
        generate_features(s, grid)
    with pytest.raises(DataError):
        generate_features(s, [])


def test_generate_features_short_series():
    s = make_series(40, seed=32)
    with pytest.raises(DataError):
        generate_features(s, default_grid())


def test_feature_table_csv_round_trip(tmp_path):
    s = make_series(200, seed=33)
    table = generate_features(s, default_grid())
    path = tmp_path / "features.csv"
    table.to_csv(path)
    back = FeatureTable.from_csv(path)
    assert back.names == table.names
    assert back.classes == table.classes
    np.testing.assert_array_equal(back.index, table.index)
    np.testing.assert_array_equal(back.values, table.values)


def test_feature_table_select_and_replace():
    s = make_series(120, seed=34)
    table = generate_features(s, [IndicatorSpec("SMA", {"window": 7}),
                                  IndicatorSpec("RSI", {"window": 7})])
    sub = table.select(["close", "sma_7"])
    assert sub.names == ["close", "sma_7"]
    assert sub.classes == [FeatureClass.OHLCV, FeatureClass.PRICE_LIKE]
    new = np.zeros(len(table))
    table.with_column_values("sma_7", new)
    assert np.all(table.column("sma_7") == 0.0)
    with pytest.raises(DataError):
        table.with_column_values("sma_7", np.zeros(3))
