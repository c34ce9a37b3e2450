"""Window construction, labeling, channel groups, normalization, artifacts."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from candlecast.dataset import (NormStats, WindowedDataset, direction_labels,
                                fit_norm_stats, load_windows, make_windows,
                                normalize, save_windows, split_channels)
from candlecast.errors import ArtifactError, DataError
from candlecast.indicators import FeatureClass, FeatureTable, IndicatorSpec, generate_features

from conftest import make_series


def _table(rows=100, seed=50, specs=None):
    s = make_series(rows + 51, seed=seed)
    specs = specs or [IndicatorSpec("SMA", {"window": 7}), IndicatorSpec("EMA", {"window": 7}),
                      IndicatorSpec("RSI", {"window": 7}), IndicatorSpec("ROC", {"window": 7})]
    table = generate_features(s, specs)
    return table.select([c for c in table.names]), s


def test_instance_count_100_rows_window_24():
    s = make_series(151, seed=51)
    table = generate_features(s, [IndicatorSpec("SMA", {"window": 7}),
                                  IndicatorSpec("RSI", {"window": 7})])
    table = FeatureTable(table.index[:100], table.names, table.values[:100], table.classes)
    ds = make_windows(table, table.column("close"), window=24, stride=1)
    assert len(ds) == 76
    assert ds.X.shape == (76, 7, 1, 24)
    assert ds.end_rows[0] == 23 and ds.end_rows[-1] == 98


def test_non_overlapping_stride_count():
    for rows in (100, 49, 48, 97):
        table, _ = _table(rows=rows, seed=52)
        table = FeatureTable(table.index[:rows], table.names, table.values[:rows], table.classes)
        ds = make_windows(table, table.column("close"), window=24, stride=24)
        assert len(ds) == (rows - 1) // 24


def test_channel_ordering_alphabetical_within_groups():
    table, _ = _table(seed=53)
    ds = make_windows(table, table.column("close"), window=10)
    # raw candle block alphabetical, then price-like, then non-price-like
    assert ds.channel_names == ["close", "high", "low", "open", "volume",
                                "ema_7", "sma_7", "roc_7", "rsi_7"]
    assert ds.channel_classes[:5] == [FeatureClass.OHLCV] * 5
    assert ds.channel_classes[5:7] == [FeatureClass.PRICE_LIKE] * 2
    assert ds.channel_classes[7:] == [FeatureClass.NON_PRICE_LIKE] * 2


def test_window_contents_match_brute_force():
    table, _ = _table(seed=54)
    closes = table.column("close")
    ds = make_windows(table, closes, window=12, stride=3)
    ordered = table.select(ds.channel_names)
    for k in (0, 1, len(ds) - 1):
        i = ds.end_rows[k]
        np.testing.assert_array_equal(ds.X[k, :, 0, :], ordered.values[i - 11:i + 1].T)
        assert ds.close_t[k] == closes[i]
        assert ds.close_next[k] == closes[i + 1]
        assert ds.y[k] == float(closes[i + 1] > closes[i])


def test_labels_from_raw_closes_not_table():
    table, _ = _table(seed=55)
    # hand the labeler a close series distinct from the table's close column
    raw = np.linspace(1.0, 2.0, len(table))
    ds = make_windows(table, raw, window=10)
    assert np.all(ds.y == 1.0)  # strictly rising raw closes
    np.testing.assert_array_equal(ds.close_t, raw[ds.end_rows])


def test_flat_close_labels_down():
    table, _ = _table(seed=56)
    ds = make_windows(table, np.full(len(table), 5.0), window=10)
    assert np.all(ds.y == 0.0)


def test_no_lookahead():
    table, _ = _table(seed=57)
    closes = table.column("close")
    base = make_windows(table, closes, window=10)
    k = 5
    i = int(base.end_rows[k])
    # corrupt everything after the label row: instance k must not move
    mod = table.copy()
    mod.values[i + 2:] = 9999.0
    closes2 = closes.copy()
    closes2[i + 2:] = 9999.0
    after = make_windows(mod, closes2, window=10)
    np.testing.assert_array_equal(after.X[k], base.X[k])
    assert after.y[k] == base.y[k]
    # corrupting only row i+1 flips nothing in the window but may flip the label
    mod2 = table.copy()
    closes3 = closes.copy()
    closes3[i + 1] = 0.5 * closes[i]
    flipped = make_windows(mod2, closes3, window=10)
    np.testing.assert_array_equal(flipped.X[k], base.X[k])
    assert flipped.y[k] == 0.0


def test_too_few_rows():
    table, _ = _table(rows=24, seed=58)
    table = FeatureTable(table.index[:24], table.names, table.values[:24], table.classes)
    with pytest.raises(DataError):
        make_windows(table, table.column("close"), window=24)
    with pytest.raises(DataError):
        make_windows(table, table.column("close"), window=1)
    with pytest.raises(DataError):
        make_windows(table, table.column("close")[:-1], window=10)


def test_split_channels_partition():
    table, _ = _table(seed=59)
    ds = make_windows(table, table.column("close"), window=10)
    ohlcv, price, non_price = split_channels(ds)
    assert ohlcv.shape == (len(ds), 5, 1, 10)
    assert price.shape == (len(ds), 2, 1, 10)
    assert non_price.shape == (len(ds), 2, 1, 10)
    np.testing.assert_array_equal(np.concatenate([ohlcv, price, non_price], axis=1), ds.X)


def test_split_channels_empty_group_errors():
    table, _ = _table(seed=60, specs=[IndicatorSpec("SMA", {"window": 7})])
    ds = make_windows(table, table.column("close"), window=10)
    with pytest.raises(DataError, match="non_price_like"):
        split_channels(ds)


def test_split_channels_one_channel_group_errors():
    # one SMA and one RSI leave the price-like and non-price-like groups a
    # single channel each; an autoencoder needs a code narrower than that
    specs = [IndicatorSpec("SMA", {"window": 7}), IndicatorSpec("EMA", {"window": 7}),
             IndicatorSpec("RSI", {"window": 7})]
    table, _ = _table(seed=60, specs=specs)
    ds = make_windows(table, table.column("close"), window=10)
    with pytest.raises(DataError, match="only 1 non_price_like channel"):
        split_channels(ds)
    table, _ = _table(seed=60, specs=specs[1:] + [IndicatorSpec("ROC", {"window": 7})])
    ds = make_windows(table, table.column("close"), window=10)
    with pytest.raises(DataError, match="only 1 price_like channel"):
        split_channels(ds)


def test_normalize_price_channels():
    table, _ = _table(seed=61)
    ds = make_windows(table, table.column("close"), window=10)
    ds.set_train_boundary(len(table))
    stats = fit_norm_stats(ds)
    out = normalize(ds, stats)
    # the close channel's final position is exactly 0 after x/close_last - 1
    close_ch = out.channel("close")
    np.testing.assert_allclose(out.X[:, close_ch, 0, -1], 0.0, atol=1e-15)
    # brute-force check one instance
    k = 3
    last_close = ds.X[k, close_ch, 0, -1]
    for name in ("open", "high", "low", "close", "ema_7", "sma_7"):
        c = ds.channel(name)
        np.testing.assert_allclose(out.X[k, c, 0], ds.X[k, c, 0] / last_close - 1.0, rtol=1e-12)
    # the input dataset is untouched
    assert not ds.normalized
    assert ds.X[k, close_ch, 0, -1] == last_close


def test_normalize_scale_invariance_of_price_channels():
    table, _ = _table(seed=62)
    closes = table.column("close")
    ds1 = make_windows(table, closes, window=10)
    doubled = table.copy()
    for name, cls in zip(table.names, table.classes):
        if cls is not FeatureClass.NON_PRICE_LIKE and name != "volume":
            doubled.with_column_values(name, table.column(name) * 2.0)
    ds2 = make_windows(doubled, closes * 2.0, window=10)
    s1, s2 = fit_norm_stats(ds1), fit_norm_stats(ds2)
    a, b = normalize(ds1, s1), normalize(ds2, s2)
    price = np.nonzero(s1.price_mask)[0]
    np.testing.assert_allclose(a.X[:, price], b.X[:, price], rtol=1e-9)


def test_normalize_zscore_uses_train_stats_only():
    table, _ = _table(rows=200, seed=63)
    ds = make_windows(table, table.column("close"), window=10)
    ds.set_train_boundary(120)
    stats = fit_norm_stats(ds)
    out = normalize(ds, stats)
    rsi_ch = out.channel("rsi_7")
    train = out.X[:ds.n_train, rsi_ch]
    # z-scored training block is standardized; the test block is not refitted
    assert train.mean() == pytest.approx(0.0, abs=1e-10)
    assert train.std() == pytest.approx(1.0, rel=1e-10)
    recomputed = (ds.X[:, rsi_ch] - stats.mean[rsi_ch]) / stats.std[rsi_ch]
    np.testing.assert_allclose(out.X[:, rsi_ch], recomputed, rtol=1e-12)


def test_normalize_zero_std_warns_and_centers():
    table, _ = _table(seed=64)
    const = table.copy()
    const.with_column_values("rsi_7", np.full(len(table), 55.0))
    ds = make_windows(const, table.column("close"), window=10)
    with pytest.warns(UserWarning, match="rsi_7"):
        stats = fit_norm_stats(ds)
    out = normalize(ds, stats)
    assert np.all(out.X[:, out.channel("rsi_7")] == 0.0)


def test_normalize_twice_refused():
    table, _ = _table(seed=65)
    ds = make_windows(table, table.column("close"), window=10)
    stats = fit_norm_stats(ds)
    out = normalize(ds, stats)
    with pytest.raises(DataError, match="already normalized"):
        normalize(out, stats)
    with pytest.raises(DataError, match="different channel layout"):
        normalize(ds, NormStats(stats.mean[:2], stats.std[:2], stats.price_mask[:2]))


def test_train_boundary_counts():
    table, _ = _table(rows=200, seed=66)
    ds = make_windows(table, table.column("close"), window=24)
    ds.set_train_boundary(150)
    # training instances have their label row inside the first 150 rows
    assert np.all(ds.end_rows[:ds.n_train] + 1 <= 149)
    assert ds.end_rows[ds.n_train] + 1 > 149
    train, test = ds.train_view(), ds.test_view()
    assert len(train) == ds.n_train and len(test) == len(ds) - ds.n_train
    np.testing.assert_array_equal(train.X, ds.X[:ds.n_train])


def test_save_load_round_trip(tmp_path):
    table, _ = _table(seed=67)
    ds = make_windows(table, table.column("close"), window=10, stride=2)
    ds.set_train_boundary(60)
    path = tmp_path / "windows.bin"
    save_windows(ds, path)
    back = load_windows(path)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.end_rows, ds.end_rows)
    np.testing.assert_array_equal(back.index, ds.index)
    np.testing.assert_array_equal(back.close_t, ds.close_t)
    np.testing.assert_array_equal(back.close_next, ds.close_next)
    assert back.channel_names == ds.channel_names
    assert back.channel_classes == ds.channel_classes
    assert (back.window, back.stride, back.n_train, back.normalized) == (10, 2, ds.n_train, False)
    # byte-identical on re-save
    save_windows(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_window_artifact_golden_bytes(tmp_path):
    # the complete file, pinned so the format cannot drift between versions
    ds = WindowedDataset(X=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).reshape(2, 2, 1, 2),
                         y=np.array([1.0, 0.0]), end_rows=np.array([1, 2]),
                         index=np.array([3600, 7200]), close_t=np.array([2.0, 4.0]),
                         close_next=np.array([4.0, 3.0]), channel_names=["close", "rsi_7"],
                         channel_classes=[FeatureClass.OHLCV, FeatureClass.NON_PRICE_LIKE],
                         window=2, stride=1, n_train=1)
    path = tmp_path / "tiny.bin"
    save_windows(ds, path)
    expected = (b"candlecast-windows v1\nn=2\nchannels=2\nwindow=2\nstride=1\n"
                b"n_train=1\nnormalized=0\nchannel:close=ohlcv\n"
                b"channel:rsi_7=non_price_like\n\n"
                + struct.pack("<14d", 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 2, 4, 4, 3)
                + struct.pack("<4q", 1, 2, 3600, 7200))
    assert path.read_bytes() == expected
    back = load_windows(path)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.index, ds.index)
    assert back.channel_classes == ds.channel_classes


def test_load_rejects_corrupt_artifacts(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a header\n\n12345678")
    with pytest.raises(ArtifactError):
        load_windows(p)
    table, _ = _table(seed=68)
    ds = make_windows(table, table.column("close"), window=10)
    good = tmp_path / "good.bin"
    save_windows(ds, good)
    blob = good.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(blob[:-16])
    with pytest.raises(ArtifactError, match="payload"):
        load_windows(tmp_path / "trunc.bin")


def test_direction_labels():
    y = direction_labels(np.array([1.0, 2.0, 2.0, 1.5, 3.0]))
    np.testing.assert_array_equal(y, [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(DataError):
        direction_labels(np.array([1.0]))
