"""Windowed instances for the forecaster: slicing, labels, channel groups.

An instance is the trailing ``window`` rows of the feature table ending at
row i, shaped (channels, 1, window); its label says whether the raw close
rises from row i to row i+1 (flat counts as down).  Channels are grouped
raw-candle first, then price-like, then non-price-like, alphabetical
inside each group.

Normalization (applied per window at the channel level):
  - price channels (open/high/low/close and every price-like indicator)
    become x / close_last - 1 against the window's final close value
  - volume and non-price-like channels are z-scored with mean/std fitted
    on the training windows only

Labels and the stored per-instance closes always come from the raw close
argument, never from the (possibly denoised) table values, so trade
accounting downstream stays honest.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArtifactError, DataError
from .framing import (header_value, parse_header, read_framed, split_payload,
                      write_framed)
from .indicators import FeatureClass, FeatureTable

_PRICE_COLUMN_NAMES = frozenset({"open", "high", "low", "close"})


def direction_labels(closes: np.ndarray) -> np.ndarray:
    """label[i] = 1 if closes[i+1] > closes[i] else 0; length n-1."""
    closes = np.asarray(closes, dtype=np.float64)
    if closes.ndim != 1 or len(closes) < 2:
        raise DataError("need a 1-d close series with at least 2 values")
    return (closes[1:] > closes[:-1]).astype(np.float64)


def _channel_order(names, classes):
    groups = {FeatureClass.OHLCV: [], FeatureClass.PRICE_LIKE: [], FeatureClass.NON_PRICE_LIKE: []}
    for name, cls in zip(names, classes):
        groups[cls].append(name)
    ordered = []
    for cls in (FeatureClass.OHLCV, FeatureClass.PRICE_LIKE, FeatureClass.NON_PRICE_LIKE):
        ordered.extend(sorted(groups[cls]))
    return ordered


def _is_price_channel(name: str, cls: FeatureClass) -> bool:
    if cls is FeatureClass.PRICE_LIKE:
        return True
    return cls is FeatureClass.OHLCV and name in _PRICE_COLUMN_NAMES


@dataclass
class WindowedDataset:
    X: np.ndarray                 # (n, channels, 1, window)
    y: np.ndarray                 # (n,) in {0, 1}
    end_rows: np.ndarray          # (n,) source-table row of each window's last candle
    index: np.ndarray             # (n,) timestamp of that row
    close_t: np.ndarray           # (n,) raw close at the end row
    close_next: np.ndarray        # (n,) raw close one row later
    channel_names: list
    channel_classes: list
    window: int
    stride: int
    n_train: int = 0              # first n_train instances form the training split
    normalized: bool = False

    def __post_init__(self):
        n, c, h, w = self.X.shape
        if h != 1 or w != self.window or c != len(self.channel_names):
            raise DataError(f"instance block {self.X.shape} inconsistent with "
                            f"{len(self.channel_names)} channels x 1 x {self.window}")
        for arr, label in ((self.y, "labels"), (self.end_rows, "end_rows"),
                           (self.index, "index"), (self.close_t, "close_t"),
                           (self.close_next, "close_next")):
            if arr.shape != (n,):
                raise DataError(f"{label} length {arr.shape} != {n} instances")
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise DataError("labels must be 0 or 1")
        if len(self.channel_classes) != len(self.channel_names):
            raise DataError("one class per channel required")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_channels(self) -> int:
        return self.X.shape[1]

    def channel(self, name: str) -> int:
        return self.channel_names.index(name)

    def subset(self, sl: slice) -> "WindowedDataset":
        return replace(self, X=self.X[sl], y=self.y[sl], end_rows=self.end_rows[sl],
                       index=self.index[sl], close_t=self.close_t[sl],
                       close_next=self.close_next[sl], n_train=0)

    def set_train_boundary(self, train_rows: int) -> None:
        """Mark as training every instance whose label row i+1 is still inside
        the first ``train_rows`` table rows; later windows (including those
        straddling the boundary) are evaluation data."""
        self.n_train = int(np.searchsorted(self.end_rows, train_rows - 1, side="left"))

    def train_view(self) -> "WindowedDataset":
        return self.subset(slice(0, self.n_train))

    def test_view(self) -> "WindowedDataset":
        return self.subset(slice(self.n_train, len(self)))


def make_windows(table: FeatureTable, closes: np.ndarray, window: int,
                 stride: int = 1) -> WindowedDataset:
    """Cut sliding windows out of the table and label them from raw closes.

    One instance per end row i, i running from window-1 in steps of stride
    for as long as row i+1 exists to supply the label.
    """
    if window < 2:
        raise DataError(f"window must be >= 2, got {window}")
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    closes = np.asarray(closes, dtype=np.float64)
    rows = len(table)
    if closes.shape != (rows,):
        raise DataError(f"closes length {closes.shape} != table rows {rows}")
    if rows < window + 1:
        raise DataError(f"{rows} rows is too few for window={window} plus a label row")
    names = _channel_order(table.names, table.classes)
    ordered = table.select(names)
    ends = np.arange(window - 1, rows - 1, stride)
    # (rows-window+1, channels, window) view, then pick the window ends
    sw = np.lib.stride_tricks.sliding_window_view(ordered.values, window, axis=0)
    X = sw[ends - window + 1][:, :, None, :].copy()
    y = (closes[ends + 1] > closes[ends]).astype(np.float64)
    return WindowedDataset(X=X, y=y, end_rows=ends.astype(np.int64),
                           index=table.index[ends].copy(),
                           close_t=closes[ends].copy(), close_next=closes[ends + 1].copy(),
                           channel_names=names, channel_classes=list(ordered.classes),
                           window=window, stride=stride)


def split_channels(ds: WindowedDataset):
    """Partition instances into the three channel groups.

    Returns (ohlcv, price_like, non_price_like) batches shaped
    (n, group_channels, 1, window); concatenating them along the channel
    axis reproduces ``ds.X``.
    """
    out = []
    for cls in (FeatureClass.OHLCV, FeatureClass.PRICE_LIKE, FeatureClass.NON_PRICE_LIKE):
        idx = [i for i, c in enumerate(ds.channel_classes) if c is cls]
        if not idx:
            raise DataError(f"no {cls.value} channels; widen the indicator grid "
                            "so every group is populated")
        out.append(ds.X[:, idx])
    return tuple(out)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray            # per channel; only meaningful for z-scored ones
    std: np.ndarray
    price_mask: np.ndarray      # True where the channel normalizes by window close


def fit_norm_stats(ds: WindowedDataset, n_train: int | None = None) -> NormStats:
    """Mean/std per z-scored channel over the first ``n_train`` instances
    (default: the dataset's own training split, or everything if unset)."""
    if n_train is None:
        n_train = ds.n_train if ds.n_train > 0 else len(ds)
    if not 0 < n_train <= len(ds):
        raise DataError(f"n_train={n_train} out of range for {len(ds)} instances")
    price_mask = np.array([_is_price_channel(n, c)
                           for n, c in zip(ds.channel_names, ds.channel_classes)])
    sample = ds.X[:n_train]
    mean = sample.mean(axis=(0, 2, 3))
    std = sample.std(axis=(0, 2, 3))
    zero = (std == 0.0) & ~price_mask
    if zero.any():
        bad = [ds.channel_names[i] for i in np.nonzero(zero)[0]]
        warnings.warn(f"zero variance in channels {bad}; leaving them centered only")
        std = np.where(std == 0.0, 1.0, std)
    return NormStats(mean=mean, std=std, price_mask=price_mask)


def normalize(ds: WindowedDataset, stats: NormStats) -> WindowedDataset:
    """Apply per-window price scaling and per-channel z-scores; returns a new
    dataset, leaving the input untouched."""
    if ds.normalized:
        raise DataError("dataset is already normalized")
    if stats.price_mask.shape != (ds.n_channels,):
        raise DataError("stats were fitted for a different channel layout")
    X = ds.X.copy()
    close_ch = ds.channel("close")
    close_last = X[:, close_ch, 0, -1]
    if np.any(close_last == 0.0):
        raise DataError("window ends with close = 0; cannot scale prices")
    price = np.nonzero(stats.price_mask)[0]
    z = np.nonzero(~stats.price_mask)[0]
    X[:, price] = X[:, price] / close_last[:, None, None, None] - 1.0
    X[:, z] = (X[:, z] - stats.mean[z][None, :, None, None]) / stats.std[z][None, :, None, None]
    return replace(ds, X=X, normalized=True)


_MAGIC = "candlecast-windows v1"


def save_windows(ds: WindowedDataset, path) -> None:
    """Flat binary artifact: text header, blank line, little-endian payload."""
    header = [f"n={len(ds)}", f"channels={ds.n_channels}", f"window={ds.window}",
              f"stride={ds.stride}", f"n_train={ds.n_train}",
              f"normalized={int(ds.normalized)}"]
    header += [f"channel:{name}={cls.value}"
               for name, cls in zip(ds.channel_names, ds.channel_classes)]
    arrays = [(arr, "<f8") for arr in (ds.X, ds.y, ds.close_t, ds.close_next)]
    arrays += [(arr, "<i8") for arr in (ds.end_rows, ds.index)]
    write_framed(path, _MAGIC, header, arrays)


def load_windows(path) -> WindowedDataset:
    lines, payload = read_framed(path, _MAGIC, "window artifact")
    fields, rest = parse_header(path, lines, ("n", "channels", "window", "stride",
                                              "n_train", "normalized"))
    channel_names, channel_classes = [], []
    for key, val in rest:
        if not key.startswith("channel:"):
            raise ArtifactError(f"{path}: unknown header field {key!r}")
        channel_names.append(key[len("channel:"):])
        channel_classes.append(header_value(path, key, val, FeatureClass))
    n, c, w = fields["n"], fields["channels"], fields["window"]
    if len(channel_names) != c:
        raise ArtifactError(f"{path}: header names {len(channel_names)} channels, expected {c}")
    layout = [("<f8", (n, c, 1, w))] + [("<f8", (n,))] * 3 + [("<i8", (n,))] * 2
    X, y, close_t, close_next, end_rows, index = split_payload(path, payload, layout)
    return WindowedDataset(X=X, y=y, end_rows=end_rows, index=index,
                           close_t=close_t, close_next=close_next,
                           channel_names=channel_names, channel_classes=channel_classes,
                           window=w, stride=fields["stride"], n_train=fields["n_train"],
                           normalized=bool(fields["normalized"]))
