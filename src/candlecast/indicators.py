"""Technical-indicator feature generation over candle series.

Design rules (no look-ahead):
  - every value at row t uses rows <= t only
  - warm-up rows (insufficient history) are NaN, never zero
  - recursive indicators (EMA, RSI, ATR, MACD) are seeded from the first
    full window, so a prefix of the input always reproduces a prefix of
    the output bit-for-bit

Each kind is one row of the ``_KINDS`` table: its column prefix, its
feature class, its parameters with their defaults (and which of them name
the column), its warm-up and its formula.  Column naming: the prefix plus
the named parameters, e.g. ``ema_21``, ``stoch_k_14``, ``macd_12_26_9``,
``bb_upper_20``.

Every column carries a feature class:
  - OHLCV          the five raw columns
  - price_like     same unit as price, plottable on the price chart
                   (SMA, EMA, WMA, Bollinger bands, ATR)
  - non_price_like dimensionless oscillators and volume-derived series
                   (RSI, Stochastic, CCI, Williams %R, ROC, MACD,
                   momentum, OBV)

Flat-market conventions (zero ranges): RSI -> 50, %K -> 50, %R -> -50,
CCI -> 0.  Deterministic, documented, and covered by tests.
"""
from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _rolling_view

from .errors import DataError
from .framing import (header_value, parse_header, read_lines, read_rows, write_lines,
                      write_rows)
from .market_data import CandleSeries

OHLCV_NAMES = ["open", "high", "low", "close", "volume"]


class FeatureClass(enum.Enum):
    OHLCV = "ohlcv"
    PRICE_LIKE = "price_like"
    NON_PRICE_LIKE = "non_price_like"


def _ratio(num, den, flat):
    """``num / den``, and ``flat`` where ``den`` is zero (a flat market)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den == 0.0, flat, num / den)


# Each formula below returns one value per row from its kind's warm-up row
# on; compute_indicator puts the NaN warm-up in front.

def _ema(x, w):
    # seeded with the SMA of the first w values, then the standard recursion
    out = np.empty(len(x) - w + 1)
    out[0] = x[:w].mean()
    x = x[w - 1:]
    k = 2.0 / (w + 1.0)
    for i in range(1, len(x)):
        out[i] = k * x[i] + (1.0 - k) * out[i - 1]
    return out


def _wilder(x, w):
    # Wilder smoothing: seed with the plain mean of the first w values of x,
    # then avg <- (avg*(w-1) + x_t)/w.
    out = np.empty(len(x) - w + 1)
    out[0] = x[:w].mean()
    x = x[w - 1:]
    for i in range(1, len(x)):
        out[i] = (out[i - 1] * (w - 1) + x[i]) / w
    return out


def _high_low(s, w):
    """Rolling highest high and lowest low over ``w`` rows."""
    return _rolling_view(s.high, w).max(axis=1), _rolling_view(s.low, w).min(axis=1)


def _true_range(s):
    prev_close = s.close[:-1]
    return np.concatenate(([s.high[0] - s.low[0]], np.maximum.reduce([
        s.high[1:] - s.low[1:], np.abs(s.high[1:] - prev_close),
        np.abs(s.low[1:] - prev_close)])))


def _sma(s, window):
    return _rolling_view(s.close, window).mean(axis=1)


def _wma(s, window):
    weights = np.arange(1, window + 1, dtype=np.float64)
    return _rolling_view(s.close, window) @ weights / weights.sum()


def _macd(s, fast, slow, signal):
    # histogram: (EMA_fast - EMA_slow) minus its EMA_signal smoothing
    line = _ema(s.close, fast)[slow - fast:] - _ema(s.close, slow)
    return line[signal - 1:] - _ema(line, signal)


def _rsi(s, window):
    delta = np.diff(s.close)
    ag = _wilder(np.where(delta > 0, delta, 0.0), window)
    al = _wilder(np.where(delta < 0, -delta, 0.0), window)
    with np.errstate(invalid="ignore", divide="ignore"):
        rsi = 100.0 - 100.0 / (1.0 + ag / al)
    return np.where(al == 0.0, np.where(ag == 0.0, 50.0, 100.0), rsi)


def _stoch_k(s, window):
    hh, ll = _high_low(s, window)
    return _ratio(100.0 * (s.close[window - 1:] - ll), hh - ll, 50.0)


def _stoch_d(s, window):
    return _rolling_view(_stoch_k(s, window), 3).mean(axis=1)


def _cci(s, window):
    tp = (s.high + s.low + s.close) / 3.0
    win = _rolling_view(tp, window)
    sma = win.mean(axis=1)
    mean_dev = np.abs(win - sma[:, None]).mean(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cci = (tp[window - 1:] - sma) / (0.015 * mean_dev)
    return np.where(mean_dev == 0.0, 0.0, cci)


def _bollinger(s, window, num_std, sign):
    win = _rolling_view(s.close, window)
    return win.mean(axis=1) + sign * num_std * win.std(axis=1)


def _roc(s, window):
    c = s.close
    return 100.0 * (c[window:] - c[:-window]) / c[:-window]


def _williams_r(s, window):
    hh, ll = _high_low(s, window)
    return _ratio(-100.0 * (hh - s.close[window - 1:]), hh - ll, -50.0)


def _obv(s):
    return np.concatenate(([0.0], np.cumsum(np.sign(np.diff(s.close)) * s.volume[1:])))


def _momentum(s, window):
    return s.close[window:] - s.close[:-window]


class _Kind(NamedTuple):
    """Everything about one indicator kind.  ``warmup`` (the index of the
    first defined row) and ``compute`` (series -> the values from that row
    on) take the parameters as keywords."""

    prefix: str           # the column name is the prefix, then the ``named`` values
    price_like: bool
    warmup: Callable[..., int]
    compute: Callable[..., np.ndarray]
    params: dict = {"window": None}  # parameter -> default; None: required
    named: tuple = ("window",)


_MACD_PARAMS = {"fast": 12, "slow": 26, "signal": 9}
_BOLLINGER_PARAMS = {"window": None, "num_std": 2.0}

_KINDS = {
    "SMA": _Kind("sma", True, lambda window: window - 1, _sma),
    "EMA": _Kind("ema", True, lambda window: window - 1, lambda s, window: _ema(s.close, window)),
    "WMA": _Kind("wma", True, lambda window: window - 1, _wma),
    "MACD": _Kind("macd", False, lambda fast, slow, signal: slow + signal - 2, _macd,
                  _MACD_PARAMS, tuple(_MACD_PARAMS)),
    "RSI": _Kind("rsi", False, lambda window: window, _rsi),
    "StochasticK": _Kind("stoch_k", False, lambda window: window - 1, _stoch_k),
    "StochasticD": _Kind("stoch_d", False, lambda window: window + 1, _stoch_d),
    "CCI": _Kind("cci", False, lambda window: window - 1, _cci),
    "ATR": _Kind("atr", True, lambda window: window - 1,
                 lambda s, window: _wilder(_true_range(s), window)),
    "BollingerUpper": _Kind("bb_upper", True, lambda window, num_std: window - 1,
                            partial(_bollinger, sign=1.0), _BOLLINGER_PARAMS),
    "BollingerLower": _Kind("bb_lower", True, lambda window, num_std: window - 1,
                            partial(_bollinger, sign=-1.0), _BOLLINGER_PARAMS),
    "ROC": _Kind("roc", False, lambda window: window, _roc),
    "WilliamsR": _Kind("willr", False, lambda window: window - 1, _williams_r),
    "OBV": _Kind("obv", False, lambda: 0, _obv, {}, ()),
    "Momentum": _Kind("mom", False, lambda window: window, _momentum),
}


def _is_number(value, cls) -> bool:
    return isinstance(value, cls) and not isinstance(value, bool)


@dataclass(frozen=True)
class IndicatorSpec:
    """One indicator instance: a kind plus its parameters (``num_std`` a
    positive number, every other one an integer >= 2).  ``params`` is a
    read-only copy of the given dict, and equal specs hash equal."""

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        self._arguments()

    def __hash__(self):
        return hash((self.kind, frozenset(self.params.items())))

    def _arguments(self) -> dict:
        """The kind's parameters, defaults filled in, validated."""
        row = _KINDS.get(self.kind)
        if row is None:
            raise DataError(f"unknown indicator kind {self.kind!r}")
        for key in self.params:
            if key not in row.params:
                raise DataError(f"{self.kind} takes no parameter {key!r}")
        args = {**row.params, **self.params}
        for key, value in args.items():
            if key == "num_std":
                if not (_is_number(value, numbers.Real) and 0 < value < math.inf):
                    raise DataError(f"{self.kind} num_std must be a positive number, "
                                    f"got {value!r}")
                args[key] = float(value)
            elif _is_number(value, numbers.Integral) and value >= 2:
                args[key] = int(value)
            else:
                raise DataError(f"{self.kind} needs an integer {key} >= 2, got {value!r}")
        if "slow" in args and args["fast"] >= args["slow"]:
            raise DataError(f"{self.kind} needs fast < slow, got {args['fast']}/{args['slow']}")
        return args

    @property
    def name(self) -> str:
        row, args = _KINDS[self.kind], self._arguments()
        return "_".join([row.prefix, *(str(args[key]) for key in row.named)])

    @property
    def feature_class(self) -> FeatureClass:
        price_like = _KINDS[self.kind].price_like
        return FeatureClass.PRICE_LIKE if price_like else FeatureClass.NON_PRICE_LIKE

    @property
    def warmup(self) -> int:
        """Index of the first defined output row."""
        return _KINDS[self.kind].warmup(**self._arguments())

    def __str__(self) -> str:
        return self.name


def compute_indicator(spec: IndicatorSpec, series: CandleSeries):
    """Compute one indicator column.

    Returns ``(name, values, feature_class)`` where ``values`` aligns with the
    series rows and has NaN exactly on the warm-up prefix.
    """
    n, first = len(series), spec.warmup
    if n <= first:
        raise DataError(f"series of length {n} too short for {spec} (warm-up {first})")
    values = np.full(n, np.nan)
    values[first:] = _KINDS[spec.kind].compute(series, **spec._arguments())
    assert not np.any(np.isnan(values[first:]))
    return spec.name, values, spec.feature_class


class FeatureTable:
    """Dense, time-aligned feature columns with per-column class tags."""

    def __init__(self, index, names, values, classes):
        self.index = np.asarray(index, dtype=np.int64)
        self.names = list(names)
        self.values = np.asarray(values, dtype=np.float64)
        self.classes = list(classes)
        if self.values.shape != (len(self.index), len(self.names)):
            raise DataError(f"values shape {self.values.shape} does not match "
                            f"{len(self.index)} rows x {len(self.names)} columns")
        if len(self.classes) != len(self.names):
            raise DataError("one class tag per column required")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate column names")

    def __len__(self):
        return len(self.index)

    @property
    def n_columns(self):
        return len(self.names)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def names_of_class(self, cls: FeatureClass):
        return [n for n, c in zip(self.names, self.classes) if c is cls]

    def select(self, names) -> "FeatureTable":
        idx = [self.names.index(n) for n in names]
        return FeatureTable(self.index, [self.names[i] for i in idx],
                            self.values[:, idx], [self.classes[i] for i in idx])

    def with_column_values(self, name: str, values: np.ndarray) -> None:
        """Replace one column in place."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self.index),):
            raise DataError(f"replacement for {name!r} has wrong length")
        self.values[:, self.names.index(name)] = values

    def copy(self) -> "FeatureTable":
        return FeatureTable(self.index.copy(), list(self.names), self.values.copy(), list(self.classes))

    def to_csv(self, path, classmap_path=None) -> None:
        """Write the table as CSV plus a ``name=class`` sidecar text file."""
        write_rows(path, ",".join(["timestamp", *self.names]),
                   ((int(t), *row) for t, row in zip(self.index, self.values)))
        if classmap_path is None:
            classmap_path = str(path) + ".classes"
        write_lines(classmap_path, (f"{name}={cls.value}"
                                    for name, cls in zip(self.names, self.classes)))

    @classmethod
    def from_csv(cls, path, classmap_path=None) -> "FeatureTable":
        """Read a ``to_csv`` pair; the sidecar's names fix the expected header."""
        if classmap_path is None:
            classmap_path = str(path) + ".classes"
        _, pairs = parse_header(classmap_path, [line for _, line in read_lines(classmap_path)])
        names = [name for name, _ in pairs]
        rows = read_rows(path, ",".join(["timestamp", *names]), "feature table",
                         lambda f: (int(f[0]), [float(x) for x in f[1:]]))
        return cls(np.array([t for t, _ in rows], dtype=np.int64), names,
                   np.array([v for _, v in rows], dtype=np.float64).reshape(len(rows), len(names)),
                   [header_value(classmap_path, name, tag, FeatureClass) for name, tag in pairs])


def default_grid(windows=(7, 14, 21, 35, 50)) -> list[IndicatorSpec]:
    """The stock indicator grid: windowed kinds over ``windows``, MACD 12/26/9,
    Bollinger 20 +/- 2 sigma, and OBV.  59 specs with the default windows."""
    grid = []
    for kind in ("SMA", "EMA", "WMA", "RSI", "StochasticK", "StochasticD",
                 "CCI", "ATR", "ROC", "WilliamsR", "Momentum"):
        for w in windows:
            grid.append(IndicatorSpec(kind, {"window": int(w)}))
    grid.append(IndicatorSpec("MACD", {"fast": 12, "slow": 26, "signal": 9}))
    grid.append(IndicatorSpec("BollingerUpper", {"window": 20, "num_std": 2.0}))
    grid.append(IndicatorSpec("BollingerLower", {"window": 20, "num_std": 2.0}))
    grid.append(IndicatorSpec("OBV"))
    return grid


def generate_features(series: CandleSeries, grid: list[IndicatorSpec]) -> FeatureTable:
    """Build the feature table: the five OHLCV columns plus one column per spec.

    Rows before the longest warm-up are dropped so the result is dense.
    """
    if not grid:
        raise DataError("indicator grid is empty")
    names = list(OHLCV_NAMES)
    classes = [FeatureClass.OHLCV] * 5
    columns = [series.open, series.high, series.low, series.close, series.volume]
    max_warmup = 0
    for spec in grid:
        name, values, cls = compute_indicator(spec, series)
        if name in names:
            raise DataError(f"duplicate column name {name!r} in grid")
        names.append(name)
        classes.append(cls)
        columns.append(values)
        max_warmup = max(max_warmup, spec.warmup)
    if len(series) <= max_warmup:
        raise DataError("series shorter than the longest indicator warm-up")
    values = np.stack(columns, axis=1)[max_warmup:]
    return FeatureTable(series.timestamps[max_warmup:], names, values, classes)
