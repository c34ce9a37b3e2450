"""OHLCV candle ingestion and validation.

CSV contract:
  - header exactly ``timestamp,open,high,low,close,volume``
  - timestamps are integral epoch seconds (UTC), one row per candle
  - prices/volume are decimal text, parsed to float64

Validation rules:
  - low <= min(open, close) and high >= max(open, close)
  - all prices > 0, volume >= 0
  - timestamps strictly increasing after sorting; duplicates rejected
  - consecutive gaps must equal the timeframe; larger gaps are rejected
    unless ``fill_gaps`` forward-fills the close with zero volume
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .framing import replacing

CSV_HEADER = ["timestamp", "open", "high", "low", "close", "volume"]


@dataclass(frozen=True)
class Candle:
    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self) -> None:
        """The series rules on this one candle (CandleSeries validates on
        construction)."""
        CandleSeries("", 1, [self.timestamp], [self.open], [self.high], [self.low],
                     [self.close], [self.volume])


class CandleSeries:
    """Column-major candle storage with a strictly increasing time index."""

    def __init__(self, symbol, timeframe, timestamps, opens, highs, lows, closes, volumes):
        self.symbol = str(symbol)
        self.timeframe = int(timeframe)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.open = np.asarray(opens, dtype=np.float64)
        self.high = np.asarray(highs, dtype=np.float64)
        self.low = np.asarray(lows, dtype=np.float64)
        self.close = np.asarray(closes, dtype=np.float64)
        self.volume = np.asarray(volumes, dtype=np.float64)
        self.validate()

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> Candle:
        return Candle(int(self.timestamps[i]), float(self.open[i]), float(self.high[i]),
                      float(self.low[i]), float(self.close[i]), float(self.volume[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CandleSeries):
            return NotImplemented
        return (self.symbol == other.symbol and self.timeframe == other.timeframe
                and np.array_equal(self.timestamps, other.timestamps)
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in ("open", "high", "low", "close", "volume")))

    def validate(self) -> None:
        if self.timeframe <= 0:
            raise DataError("timeframe must be positive")
        n = len(self.timestamps)
        lengths = {n, len(self.open), len(self.high), len(self.low), len(self.close), len(self.volume)}
        if len(lengths) != 1:
            raise DataError("column lengths differ")
        if n == 0:
            return
        gaps = np.diff(self.timestamps)
        if np.any(gaps <= 0):
            t = int(self.timestamps[int(np.argmax(gaps <= 0)) + 1])
            raise DataError(f"timestamps not strictly increasing at t={t}")
        bad = np.nonzero(gaps % self.timeframe != 0)[0]
        if bad.size:
            t = int(self.timestamps[bad[0] + 1])
            raise DataError(f"gap not a multiple of timeframe before t={t}")
        for check, msg in (
            (self.low > np.minimum(self.open, self.close), "low above min(open, close)"),
            (self.high < np.maximum(self.open, self.close), "high below max(open, close)"),
            (np.minimum.reduce([self.open, self.high, self.low, self.close]) <= 0, "non-positive price"),
            (self.volume < 0, "negative volume"),
        ):
            idx = np.nonzero(check)[0]
            if idx.size:
                raise DataError(f"{msg} at t={int(self.timestamps[idx[0]])}")
        for arr in (self.open, self.high, self.low, self.close, self.volume):
            if not np.all(np.isfinite(arr)):
                raise DataError("non-finite value in series")

    def slice(self, start: int, stop: int) -> "CandleSeries":
        return CandleSeries(self.symbol, self.timeframe, self.timestamps[start:stop],
                            self.open[start:stop], self.high[start:stop], self.low[start:stop],
                            self.close[start:stop], self.volume[start:stop])


def _parse_row(row, lineno):
    if len(row) != 6:
        raise DataError(f"line {lineno}: expected 6 fields, got {len(row)}")
    try:
        ts = int(row[0])
    except ValueError:
        raise DataError(f"line {lineno}: timestamp {row[0]!r} is not an integer") from None
    try:
        vals = [float(x) for x in row[1:]]
    except ValueError:
        raise DataError(f"line {lineno}: non-numeric field in {row[1:]!r}") from None
    return ts, vals


def load_csv(path, timeframe: int, symbol: str = "", fill_gaps: bool = False) -> CandleSeries:
    """Load and validate a candle CSV.

    Rows may appear out of order; they are sorted by timestamp first.
    Duplicate timestamps and candle-shape violations raise :class:`DataError`
    naming the offending line or timestamp.  With ``fill_gaps``, missing
    candles are forward-filled from the previous close with zero volume.
    """
    if timeframe <= 0:
        raise DataError(f"timeframe must be positive, got {timeframe}")
    rows = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if header != CSV_HEADER:
                raise DataError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
            for lineno, row in enumerate(reader, start=2):
                if row:
                    rows.append(_parse_row(row, lineno))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    ts = np.array([r[0] for r in rows], dtype=np.int64)
    dup = np.nonzero(np.diff(ts) == 0)[0]
    if dup.size:
        raise DataError(f"duplicate timestamp t={int(ts[dup[0]])}")
    cols = np.array([r[1] for r in rows], dtype=np.float64).T
    o, h, l, c, v = cols
    if fill_gaps:
        ts, o, h, l, c, v = _fill_gaps(ts, o, h, l, c, v, timeframe)
    else:
        gaps = np.diff(ts)
        big = np.nonzero(gaps > timeframe)[0]
        if big.size:
            raise DataError(f"missing candles before t={int(ts[big[0] + 1])} "
                            "(pass fill_gaps to forward-fill)")
    return CandleSeries(symbol, timeframe, ts, o, h, l, c, v)


def _fill_gaps(ts, o, h, l, c, v, timeframe):
    """Every candle on the grid ts[0] + k * timeframe up to ts[-1]; a missing
    one repeats the previous close as all four prices, with zero volume."""
    bad = np.nonzero((ts - ts[0]) % timeframe)[0]
    if bad.size:
        raise DataError(f"gap not a multiple of timeframe before t={int(ts[bad[0]])}")
    grid = np.arange(ts[0], ts[-1] + 1, timeframe, dtype=np.int64)
    at = np.searchsorted(ts, grid, side="right") - 1   # latest row at or before
    real = ts[at] == grid
    close = c[at]
    return (grid, *(np.where(real, col[at], close) for col in (o, h, l)), close,
            np.where(real, v[at], 0.0))


def save_csv(series: CandleSeries, path) -> None:
    """Write a series back to CSV; ``load_csv(save_csv(s))`` reproduces ``s``."""
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for i in range(len(series)):
            w.writerow([int(series.timestamps[i]), repr(float(series.open[i])),
                        repr(float(series.high[i])), repr(float(series.low[i])),
                        repr(float(series.close[i])), repr(float(series.volume[i]))])


def chronological_split(series: CandleSeries, test_fraction: float):
    """Split into (train, test) with the earliest ceil((1-f)*n) candles in train.

    Never shuffles; concatenating the two parts reproduces the input.
    """
    if not 0 < test_fraction < 1:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(series)
    if n < 2:
        raise DataError("series too short to split")
    cut = math.ceil((1 - test_fraction) * n)
    if cut == 0 or cut == n:
        raise DataError(f"split leaves an empty side (n={n}, test_fraction={test_fraction})")
    return series.slice(0, cut), series.slice(cut, n)
