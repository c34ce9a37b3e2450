"""Technical-indicator feature generation over candle series.

Design rules (no look-ahead):
  - every value at row t uses rows <= t only
  - warm-up rows (insufficient history) are NaN, never zero
  - recursive indicators (EMA, RSI, ATR, MACD) are seeded from the first
    full window, so a prefix of the input always reproduces a prefix of
    the output bit-for-bit

Column naming: snake_case kind plus parameters, e.g. ``ema_21``,
``stoch_k_14``, ``macd_12_26_9``, ``bb_upper_20``.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .market_data import CandleSeries

OHLCV_NAMES = ["open", "high", "low", "close", "volume"]


class FeatureClass(enum.Enum):
    OHLCV = "ohlcv"
    PRICE_LIKE = "price_like"
    NON_PRICE_LIKE = "non_price_like"


KINDS = ("SMA", "EMA", "WMA", "MACD", "RSI", "StochasticK", "StochasticD", "CCI", "ATR",
         "BollingerUpper", "BollingerLower", "ROC", "WilliamsR", "OBV", "Momentum")

_PRICE_LIKE_KINDS = frozenset({"SMA", "EMA", "WMA", "BollingerUpper", "BollingerLower", "ATR"})

_WINDOWED_KINDS = frozenset(KINDS) - {"MACD", "OBV"}


@dataclass(frozen=True)
class IndicatorSpec:
    """One indicator instance: a kind plus its integer parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown indicator kind {self.kind!r}")
        if self.kind in _WINDOWED_KINDS:
            w = self.params.get("window")
            if w is None or int(w) < 2:
                raise DataError(f"{self.kind} needs window >= 2, got {w!r}")
        if self.kind == "MACD":
            fast = int(self.params.get("fast", 12))
            slow = int(self.params.get("slow", 26))
            signal = int(self.params.get("signal", 9))
            if not (2 <= fast < slow):
                raise DataError(f"MACD needs 2 <= fast < slow, got {fast}/{slow}")
            if signal < 2:
                raise DataError(f"MACD signal must be >= 2, got {signal}")
        if self.kind in ("BollingerUpper", "BollingerLower"):
            if float(self.params.get("num_std", 2.0)) <= 0:
                raise DataError("Bollinger num_std must be positive")

    @property
    def name(self) -> str:
        p = self.params
        return {
            "SMA": lambda: f"sma_{p['window']}",
            "EMA": lambda: f"ema_{p['window']}",
            "WMA": lambda: f"wma_{p['window']}",
            "MACD": lambda: f"macd_{p.get('fast', 12)}_{p.get('slow', 26)}_{p.get('signal', 9)}",
            "RSI": lambda: f"rsi_{p['window']}",
            "StochasticK": lambda: f"stoch_k_{p['window']}",
            "StochasticD": lambda: f"stoch_d_{p['window']}",
            "CCI": lambda: f"cci_{p['window']}",
            "ATR": lambda: f"atr_{p['window']}",
            "BollingerUpper": lambda: f"bb_upper_{p['window']}",
            "BollingerLower": lambda: f"bb_lower_{p['window']}",
            "ROC": lambda: f"roc_{p['window']}",
            "WilliamsR": lambda: f"willr_{p['window']}",
            "OBV": lambda: "obv",
            "Momentum": lambda: f"mom_{p['window']}",
        }[self.kind]()

    @property
    def feature_class(self) -> FeatureClass:
        return FeatureClass.PRICE_LIKE if self.kind in _PRICE_LIKE_KINDS else FeatureClass.NON_PRICE_LIKE

    @property
    def warmup(self) -> int:
        """Index of the first defined output row."""
        p = self.params
        w = int(p.get("window", 0))
        return {
            "SMA": w - 1, "EMA": w - 1, "WMA": w - 1,
            "RSI": w,
            "StochasticK": w - 1, "StochasticD": w + 1,
            "CCI": w - 1, "ATR": w - 1,
            "BollingerUpper": w - 1, "BollingerLower": w - 1,
            "ROC": w, "Momentum": w,
            "WilliamsR": w - 1,
            "OBV": 0,
            "MACD": int(p.get("slow", 26)) + int(p.get("signal", 9)) - 2,
        }[self.kind]

    def __str__(self) -> str:
        return self.name


def _rolling_view(x: np.ndarray, w: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(x, w)


def _sma(x, w):
    out = np.full(len(x), np.nan)
    if len(x) >= w:
        out[w - 1:] = _rolling_view(x, w).mean(axis=1)
    return out


def _ema(x, w):
    # seeded with the SMA of the first w values, then the standard recursion
    out = np.full(len(x), np.nan)
    k = 2.0 / (w + 1.0)
    out[w - 1] = x[:w].mean()
    for i in range(w, len(x)):
        out[i] = k * x[i] + (1.0 - k) * out[i - 1]
    return out


def _wma(x, w):
    out = np.full(len(x), np.nan)
    weights = np.arange(1, w + 1, dtype=np.float64)
    out[w - 1:] = _rolling_view(x, w) @ weights / weights.sum()
    return out


def _wilder(x, w):
    # Wilder smoothing: seed with the plain mean of the first w values of x,
    # then avg <- (avg*(w-1) + x_t)/w.
    out = np.full(len(x), np.nan)
    out[w - 1] = x[:w].mean()
    for i in range(w, len(x)):
        out[i] = (out[i - 1] * (w - 1) + x[i]) / w
    return out


def _rsi(close, w):
    out = np.full(len(close), np.nan)
    delta = np.diff(close)
    ag = _wilder(np.where(delta > 0, delta, 0.0), w)[w - 1:]
    al = _wilder(np.where(delta < 0, -delta, 0.0), w)[w - 1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        rsi = 100.0 - 100.0 / (1.0 + ag / al)
    out[w:] = np.where(al == 0.0, np.where(ag == 0.0, 50.0, 100.0), rsi)
    return out


def _stoch_k(series, w):
    n = len(series)
    out = np.full(n, np.nan)
    hh = _rolling_view(series.high, w).max(axis=1)
    ll = _rolling_view(series.low, w).min(axis=1)
    rng = hh - ll
    c = series.close[w - 1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        k = 100.0 * (c - ll) / rng
    out[w - 1:] = np.where(rng == 0.0, 50.0, k)
    return out


def _true_range(series):
    tr = np.empty(len(series))
    tr[0] = series.high[0] - series.low[0]
    prev_close = series.close[:-1]
    tr[1:] = np.maximum.reduce([
        series.high[1:] - series.low[1:],
        np.abs(series.high[1:] - prev_close),
        np.abs(series.low[1:] - prev_close),
    ])
    return tr


def _cci(series, w):
    n = len(series)
    out = np.full(n, np.nan)
    tp = (series.high + series.low + series.close) / 3.0
    win = _rolling_view(tp, w)
    sma = win.mean(axis=1)
    mean_dev = np.abs(win - sma[:, None]).mean(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cci = (tp[w - 1:] - sma) / (0.015 * mean_dev)
    out[w - 1:] = np.where(mean_dev == 0.0, 0.0, cci)
    return out


def _macd(close, fast, slow, signal):
    # histogram: (EMA_fast - EMA_slow) minus its EMA_signal smoothing
    n = len(close)
    out = np.full(n, np.nan)
    line = _ema(close, fast) - _ema(close, slow)
    first = slow - 1
    sig = _ema(line[first:], signal)
    out[first:] = line[first:] - sig
    return out


def _obv(series):
    step = np.sign(np.diff(series.close)) * series.volume[1:]
    out = np.empty(len(series))
    out[0] = 0.0
    out[1:] = np.cumsum(step)
    return out


def compute_indicator(spec: IndicatorSpec, series: CandleSeries):
    """Compute one indicator column.

    Returns ``(name, values, feature_class)`` where ``values`` aligns with the
    series rows and has NaN exactly on the warm-up prefix.
    """
    n = len(series)
    if n <= spec.warmup:
        raise DataError(f"series of length {n} too short for {spec} (warm-up {spec.warmup})")
    close = series.close
    p = spec.params
    w = int(p.get("window", 0))
    if spec.kind == "SMA":
        values = _sma(close, w)
    elif spec.kind == "EMA":
        values = _ema(close, w)
    elif spec.kind == "WMA":
        values = _wma(close, w)
    elif spec.kind == "MACD":
        values = _macd(close, int(p.get("fast", 12)), int(p.get("slow", 26)), int(p.get("signal", 9)))
    elif spec.kind == "RSI":
        values = _rsi(close, w)
    elif spec.kind == "StochasticK":
        values = _stoch_k(series, w)
    elif spec.kind == "StochasticD":
        k = _stoch_k(series, w)
        values = np.full(n, np.nan)
        values[w + 1:] = _rolling_view(k[w - 1:], 3).mean(axis=1)
    elif spec.kind == "CCI":
        values = _cci(series, w)
    elif spec.kind == "ATR":
        values = _wilder(_true_range(series), w)
    elif spec.kind in ("BollingerUpper", "BollingerLower"):
        num_std = float(p.get("num_std", 2.0))
        values = np.full(n, np.nan)
        win = _rolling_view(close, w)
        sign = 1.0 if spec.kind == "BollingerUpper" else -1.0
        values[w - 1:] = win.mean(axis=1) + sign * num_std * win.std(axis=1)
    elif spec.kind == "ROC":
        values = np.full(n, np.nan)
        values[w:] = 100.0 * (close[w:] - close[:-w]) / close[:-w]
    elif spec.kind == "WilliamsR":
        values = np.full(n, np.nan)
        hh = _rolling_view(series.high, w).max(axis=1)
        ll = _rolling_view(series.low, w).min(axis=1)
        rng = hh - ll
        with np.errstate(invalid="ignore", divide="ignore"):
            wr = -100.0 * (hh - close[w - 1:]) / rng
        values[w - 1:] = np.where(rng == 0.0, -50.0, wr)
    elif spec.kind == "OBV":
        values = _obv(series)
    elif spec.kind == "Momentum":
        values = np.full(n, np.nan)
        values[w:] = close[w:] - close[:-w]
    else:  # pragma: no cover - guarded by __post_init__
        raise DataError(f"unhandled kind {spec.kind}")
    assert np.all(np.isnan(values[:spec.warmup])) and not np.any(np.isnan(values[spec.warmup:]))
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

    def class_of(self, name: str) -> FeatureClass:
        return self.classes[self.names.index(name)]

    def names_of_class(self, cls: FeatureClass):
        return [n for n, c in zip(self.names, self.classes) if c is cls]

    def select(self, names) -> "FeatureTable":
        idx = [self.names.index(n) for n in names]
        return FeatureTable(self.index, [self.names[i] for i in idx],
                            self.values[:, idx], [self.classes[i] for i in idx])

    def with_column_values(self, name: str, values: np.ndarray) -> None:
        """Replace one column in place (used by denoising)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self.index),):
            raise DataError(f"replacement for {name!r} has wrong length")
        self.values[:, self.names.index(name)] = values

    def copy(self) -> "FeatureTable":
        return FeatureTable(self.index.copy(), list(self.names), self.values.copy(), list(self.classes))

    def to_csv(self, path, classmap_path=None) -> None:
        """Write the table as CSV plus a ``name=class`` sidecar text file."""
        with open(path, "w") as fh:
            fh.write("timestamp," + ",".join(self.names) + "\n")
            for i in range(len(self.index)):
                row = ",".join(repr(float(v)) for v in self.values[i])
                fh.write(f"{int(self.index[i])},{row}\n")
        if classmap_path is None:
            classmap_path = str(path) + ".classes"
        with open(classmap_path, "w") as fh:
            for name, cls in zip(self.names, self.classes):
                fh.write(f"{name}={cls.value}\n")

    @classmethod
    def from_csv(cls, path, classmap_path=None) -> "FeatureTable":
        if classmap_path is None:
            classmap_path = str(path) + ".classes"
        classmap = {}
        with open(classmap_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    name, _, tag = line.partition("=")
                    classmap[name] = FeatureClass(tag)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[0] != "timestamp":
                raise DataError(f"bad feature CSV header in {path}")
            names = header[1:]
            index, rows = [], []
            for line in fh:
                parts = line.strip().split(",")
                index.append(int(parts[0]))
                rows.append([float(x) for x in parts[1:]])
        return cls(np.array(index), names,
                   np.array(rows, dtype=np.float64).reshape(len(index), len(names)),
                   [classmap[n] for n in names])


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
