"""Candle/series validation, CSV round trips, gap filling, chronological split."""
from __future__ import annotations

import math

import numpy as np
import pytest

from candlecast.errors import DataError
from candlecast.market_data import (Candle, CandleSeries, chronological_split,
                                    load_csv, save_csv)
from candlecast.synthetic import sine_market

from conftest import make_series


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_candle_validate_rejects_bad_shapes():
    Candle(0, 10.0, 11.0, 9.0, 10.5, 3.0).validate()
    with pytest.raises(DataError):
        Candle(0, 10.0, 9.9, 9.0, 10.5, 3.0).validate()   # high below close
    with pytest.raises(DataError):
        Candle(0, 10.0, 11.0, 10.2, 10.5, 3.0).validate()  # low above open
    with pytest.raises(DataError):
        Candle(0, 10.0, 11.0, 9.0, 10.5, -1.0).validate()
    with pytest.raises(DataError):
        Candle(0, -1.0, 11.0, -2.0, 10.5, 3.0).validate()
    with pytest.raises(DataError):
        Candle(0, 10.0, math.nan, 9.0, 10.5, 3.0).validate()


def test_series_requires_increasing_timestamps():
    with pytest.raises(DataError):
        CandleSeries("X", 60, [0, 60, 60], [1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1], [0, 0, 0])
    with pytest.raises(DataError):
        CandleSeries("X", 60, [0, 60, 30], [1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1], [0, 0, 0])
    # gap not a multiple of the timeframe
    with pytest.raises(DataError):
        CandleSeries("X", 60, [0, 90], [1, 1], [1, 1], [1, 1], [1, 1], [0, 0])
    # gaps that are whole multiples are allowed at the container level
    CandleSeries("X", 60, [0, 180], [1, 1], [1, 1], [1, 1], [1, 1], [0, 0])


def test_series_names_offending_timestamp():
    with pytest.raises(DataError, match="t=7200"):
        CandleSeries("X", 3600, [0, 3600, 7200], [1, 1, 1], [1, 1, 0.5], [1, 1, 0.4],
                     [1, 1, 0.9], [0, 0, 0])


def test_csv_round_trip_is_exact(tmp_path):
    s = make_series(200, seed=11)
    path = tmp_path / "candles.csv"
    save_csv(s, path)
    back = load_csv(path, timeframe=3600, symbol="TEST")
    assert back == s


def test_load_csv_sorts_rows(tmp_path):
    body = ("timestamp,open,high,low,close,volume\n"
            "120,1.0,1.2,0.9,1.1,5.0\n"
            "0,1.0,1.1,0.9,1.0,3.0\n"
            "60,1.0,1.15,0.95,1.05,4.0\n")
    s = load_csv(_write(tmp_path / "c.csv", body), timeframe=60)
    assert list(s.timestamps) == [0, 60, 120]
    assert s.close[2] == 1.1


def test_load_csv_error_messages(tmp_path):
    with pytest.raises(DataError, match="bad header"):
        load_csv(_write(tmp_path / "h.csv", "time,open,high,low,close,volume\n0,1,1,1,1,0\n"), 60)
    with pytest.raises(DataError, match="line 3"):
        load_csv(_write(tmp_path / "p.csv", "timestamp,open,high,low,close,volume\n"
                        "0,1,1,1,1,0\n60,1,oops,1,1,0\n"), 60)
    with pytest.raises(DataError, match="duplicate timestamp t=60"):
        load_csv(_write(tmp_path / "d.csv", "timestamp,open,high,low,close,volume\n"
                        "0,1,1,1,1,0\n60,1,1,1,1,0\n60,1,1,1,1,0\n"), 60)
    with pytest.raises(DataError, match="no data rows"):
        load_csv(_write(tmp_path / "e.csv", "timestamp,open,high,low,close,volume\n"), 60)
    with pytest.raises(DataError, match="cannot open"):
        load_csv(str(tmp_path / "missing.csv"), 60)


def test_gap_refused_without_fill(tmp_path):
    body = ("timestamp,open,high,low,close,volume\n"
            "0,1.0,1.1,0.9,1.0,3.0\n"
            "180,1.0,1.2,0.9,1.1,5.0\n")
    path = _write(tmp_path / "g.csv", body)
    with pytest.raises(DataError, match="missing candles before t=180"):
        load_csv(path, timeframe=60)


def test_gap_forward_fill(tmp_path):
    body = ("timestamp,open,high,low,close,volume\n"
            "0,1.0,1.1,0.9,1.0,3.0\n"
            "180,1.0,1.2,0.9,1.1,5.0\n")
    s = load_csv(_write(tmp_path / "g.csv", body), timeframe=60, fill_gaps=True)
    assert list(s.timestamps) == [0, 60, 120, 180]
    # synthetic candles repeat the previous close with zero volume
    for i in (1, 2):
        c = s[i]
        assert c.open == c.high == c.low == c.close == 1.0
        assert c.volume == 0.0
    assert s.volume[3] == 5.0


def _fill_gaps_loop(ts, o, h, l, c, v, timeframe):
    """Reference gap filler: walks the candles and appends each missing
    candle one at a time."""
    out = ([], [], [], [], [], [])
    for i in range(len(ts)):
        if i > 0:
            t = ts[i - 1] + timeframe
            while t < ts[i]:
                prev_close = out[4][-1]
                for dst, val in zip(out, (t, prev_close, prev_close, prev_close, prev_close, 0.0)):
                    dst.append(val)
                t += timeframe
        for dst, val in zip(out, (ts[i], o[i], h[i], l[i], c[i], v[i])):
            dst.append(val)
    return (np.array(out[0], dtype=np.int64),) + tuple(np.array(x, dtype=np.float64) for x in out[1:])


@pytest.mark.parametrize("stamps", [
    (0, 60, 300, 360, 540, 600),     # gaps of four and two missing candles
    (0, 60, 150, 240),               # 150 is off the 60-second grid
    (0, 240, 270),                   # a fill run, then a misaligned candle
])
def test_gap_fill_matches_loop_oracle(tmp_path, stamps):
    base = make_series(len(stamps), seed=5, timeframe=60)
    cols = [base.open, base.high, base.low, base.close, base.volume]
    rows = "".join(f"{t}," + ",".join(repr(float(col[i])) for col in cols) + "\n"
                   for i, t in enumerate(stamps))
    path = _write(tmp_path / "g.csv", "timestamp,open,high,low,close,volume\n" + rows)
    ts = np.array(stamps, dtype=np.int64)
    try:
        expected = CandleSeries("", 60, *_fill_gaps_loop(ts, *cols, 60))
    except DataError as exc:
        with pytest.raises(DataError, match=f"^{exc}$"):
            load_csv(path, timeframe=60, fill_gaps=True)
        assert "gap not a multiple of timeframe before t=" in str(exc)
        return
    with pytest.raises(DataError, match="timeframe must be positive"):
        load_csv(path, timeframe=0, fill_gaps=True)
    got = load_csv(path, timeframe=60, fill_gaps=True)
    assert len(got) > len(stamps)
    assert got == expected
    for name in ("timestamps", "open", "high", "low", "close", "volume"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def test_chronological_split_sizes():
    s = make_series(100, seed=3)
    train, test = chronological_split(s, 1 / 3)
    assert len(train) == math.ceil(100 * 2 / 3) == 67
    assert len(test) == 33
    assert train.timestamps[-1] < test.timestamps[0]
    # concatenation reproduces the input
    assert np.array_equal(np.concatenate([train.close, test.close]), s.close)
    with pytest.raises(DataError):
        chronological_split(s, 0.0)
    with pytest.raises(DataError):
        chronological_split(s, 1.0)
    with pytest.raises(DataError):
        chronological_split(s.slice(0, 1), 0.5)


def test_split_boundaries_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        f = float(rng.uniform(0.05, 0.95))
        s = make_series(n, seed=int(rng.integers(1 << 30)))
        try:
            train, test = chronological_split(s, f)
        except DataError:
            continue  # degenerate split on tiny n is allowed to refuse
        assert len(train) == math.ceil((1 - f) * n)
        assert len(train) + len(test) == n


def test_getitem_iter_slice():
    s = make_series(10, seed=5)
    c = s[3]
    assert isinstance(c, Candle)
    assert c.close == s.close[3]
    assert len(list(iter(s))) == 10
    sub = s.slice(2, 7)
    assert len(sub) == 5
    assert sub.timestamps[0] == s.timestamps[2]


def test_sine_market_is_deterministic_and_valid():
    a = sine_market(n=500, seed=7)
    b = sine_market(n=500, seed=7)
    assert a == b
    c = sine_market(n=500, seed=8)
    assert not np.array_equal(a.close, c.close)
    assert len(a) == 500
    a.validate()
    for n in (1, 0, -3):
        with pytest.raises(DataError, match="at least 2 candles"):
            sine_market(n=n)


def test_sine_market_names_noise_that_breaks_the_price_floor():
    # a close below the floor that low is clamped to would leave low above
    # the candle body; the error names the noise and the first such row
    for noise, row in ((0.5, 26), (5.0, 2)):
        with pytest.raises(DataError, match=rf"noise {noise} .* at row {row},") as err:
            sine_market(noise=noise, seed=7)
        assert "low above" not in str(err.value)
