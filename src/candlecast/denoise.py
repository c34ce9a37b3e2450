"""Wavelet denoising of feature columns.

Pipeline per column: multi-level discrete wavelet transform, soft
thresholding of the detail coefficients at the universal threshold
sigma_hat * sqrt(2 ln n), inverse transform.  sigma_hat is the robust
noise estimate median(|finest details|) / 0.6745.

Boundary handling is periodized (wrap-around), which keeps the transform
orthonormal: perfect reconstruction to machine precision and Parseval
energy accounting, so thresholding can only shrink the signal energy.
An odd-length level is first extended by repeating its last sample; the
inverse drops that sample again, so reconstruction stays exact.

Two modes:
  - ``global``  one transform over the whole column.  Smoothest output,
    but row t depends on rows after t (look-ahead), so held-out candles
    change the training rows, the feature ranking and every fitted weight:
    it is safe neither for fitting nor for trade simulation.
  - ``causal``  row t is the last sample of the denoised prefix [0..t].
    Strictly no look-ahead; levels are clamped to what the prefix allows.
    That sample depends on a fixed number of rows at each end of the
    prefix, so it is computed from a short surrogate of the prefix, many
    prefixes per transform, to the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .indicators import FeatureTable

_SQRT2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)

# orthonormal low-pass filters; high-pass is the quadrature mirror
_FILTERS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db4": np.array([1.0 + _S3, 3.0 + _S3, 3.0 - _S3, 1.0 - _S3]) / (4.0 * _SQRT2),
}

FAMILIES = tuple(_FILTERS)
MODES = ("global", "causal")

_ALIASES = {"daubechies4": "db4"}


@dataclass(frozen=True)
class WaveletConfig:
    family: str = "db4"
    levels: int = 2
    mode: str = "causal"

    def __post_init__(self):
        fam = _ALIASES.get(self.family.lower(), self.family.lower())
        if fam not in _FILTERS:
            raise ConfigError(f"unknown wavelet family {self.family!r}; use one of {FAMILIES}")
        object.__setattr__(self, "family", fam)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; use one of {MODES}")
        if int(self.levels) < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        object.__setattr__(self, "levels", int(self.levels))

    def validate_length(self, n: int) -> None:
        if n < 2:
            raise DataError(f"need at least 2 samples, got {n}")
        if self.levels > int(math.log2(n)):
            raise ConfigError(f"levels={self.levels} too deep for {n} samples "
                              f"(max {int(math.log2(n))})")


def _qmf(h: np.ndarray) -> np.ndarray:
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def _analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    """One periodized level.  x is (m, k); returns (approx, detail), each
    (ceil(m/2), k).  Odd m is edge-padded by one sample first."""
    m = x.shape[0]
    if m % 2:
        x = np.concatenate([x, x[-1:]], axis=0)
        m += 1
    # wrap-extend once: tap j of every output is then the slice ext[j:j + m:2]
    ext = x[np.arange(m + len(h) - 2) % m]
    taps = [ext[j:j + m:2] for j in range(len(h))]
    # sum() adds the taps in order from a zero start, as a dot product does
    a = sum(hj * tap for hj, tap in zip(h, taps))
    d = sum(gj * tap for gj, tap in zip(g, taps))
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray,
                    out_len: int) -> np.ndarray:
    """Adjoint of :func:`_analysis_step`, truncated back to ``out_len``."""
    m, extra = 2 * a.shape[0], len(h) - 2
    # coefficient i, tap j lands on row 2i+j; rows past m wrap to the start
    y = np.zeros((m + extra, a.shape[1]))
    for j in range(len(h)):
        y[j:j + m:2] += a * h[j] + d * g[j]
    y[:extra] += y[m:]                       # m >= 2 >= extra for haar and db4
    return y[:out_len]


def dwt_forward(x: np.ndarray, config: WaveletConfig):
    """Multi-level transform.  Returns ``(approx, details, lengths)`` where
    ``details[0]`` is the finest level and ``lengths[i]`` is the input length
    of level ``i`` (needed to undo odd-length padding)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    config.validate_length(x.shape[0])
    h = _FILTERS[config.family]
    g = _qmf(h)
    details, lengths = [], []
    cur = x
    for _ in range(config.levels):
        lengths.append(cur.shape[0])
        cur, d = _analysis_step(cur, h, g)
        details.append(d)
    if squeeze:
        return cur[:, 0], [d[:, 0] for d in details], lengths
    return cur, details, lengths


def dwt_inverse(approx: np.ndarray, details, lengths, config: WaveletConfig) -> np.ndarray:
    approx = np.asarray(approx, dtype=np.float64)
    squeeze = approx.ndim == 1
    if squeeze:
        approx = approx[:, None]
        details = [d[:, None] for d in details]
    h = _FILTERS[config.family]
    g = _qmf(h)
    cur = approx
    for d, out_len in zip(reversed(details), reversed(lengths)):
        cur = _synthesis_step(cur, np.asarray(d, dtype=np.float64), h, g, out_len)
    return cur[:, 0] if squeeze else cur


def _soft(c: np.ndarray, lam) -> np.ndarray:
    return np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)


def _denoise_matrix(x: np.ndarray, config: WaveletConfig, levels: int) -> np.ndarray:
    """Global denoise of an (n, k) matrix with an explicit level count."""
    cfg = WaveletConfig(config.family, levels, "global")
    approx, details, lengths = dwt_forward(x, cfg)
    finest = details[0]
    sigma = np.median(np.abs(finest), axis=0) / 0.6745
    lam = sigma * math.sqrt(2.0 * math.log(x.shape[0]))
    details = [_soft(d, lam[None, :]) for d in details]
    return dwt_inverse(approx, details, lengths, cfg)


def _denoise(x: np.ndarray, config: WaveletConfig) -> np.ndarray:
    """Denoise every column of an (n, k) matrix in ``config.mode``.

    ``global`` mode transforms the whole matrix at once.  ``causal`` mode
    rebuilds row t from the prefix [0..t] only, clamping the level count to
    floor(log2(t+1)) for short prefixes and passing row 0 through untouched.
    """
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite values in column")
    if config.mode == "global":
        config.validate_length(x.shape[0])
        return _denoise_matrix(x, config, config.levels)
    # causal mode clamps the depth per prefix, so any length >= 1 is fine
    if x.shape[0] == 0:
        raise DataError("empty column")
    return _causal(x, config)


_CHUNK = 16          # prefixes per batched transform: keeps the working set small


def _surrogate_len(m: int, levels: int, taps: int) -> int:
    """Length of the surrogate that stands in for the prefix of length m.

    A causal row depends on fewer than taps * 2**levels rows at each end of
    its prefix (the periodic wrap brings in the start).  The surrogate is
    that many head rows followed by at least as many tail rows, with length
    congruent to m mod 2**levels, so the odd-length padding and the
    coefficient grid line up at every level.  A prefix too short for a
    head and a tail is its own surrogate."""
    span = 2 * taps << levels
    return m if m < span else span + (m - span) % (1 << levels)


def _causal(x: np.ndarray, config: WaveletConfig) -> np.ndarray:
    """Row t of each column is the last row of the prefix [0..t] denoised
    globally, with the level count clamped to floor(log2(t+1)).

    Prefixes with the same level count and surrogate length are stacked as
    columns of one transform, a chunk at a time."""
    n = x.shape[0]
    h = _FILTERS[config.family]
    # |finest details| of the whole column; detail i of the prefix of length
    # m is the same sum of the same samples whenever 2i + taps <= m
    interior = np.ascontiguousarray(np.abs(_analysis_step(x, h, _qmf(h))[1]).T)
    groups: dict = {}
    for m in range(2, n + 1):
        levels = min(config.levels, int(math.log2(m)))
        groups.setdefault((levels, _surrogate_len(m, levels, len(h))), []).append(m)
    y = np.empty_like(x)
    y[0] = x[0]
    for (levels, length), ms in groups.items():
        for i in range(0, len(ms), _CHUNK):
            chunk = np.array(ms[i:i + _CHUNK])
            y[chunk - 1] = _last_rows(x, interior, chunk, levels, length, config)
    return y


def _last_rows(x: np.ndarray, interior: np.ndarray, ms: np.ndarray, levels: int,
               length: int, config: WaveletConfig) -> np.ndarray:
    """Last row of each prefix x[:m], m in ``ms``, denoised globally at
    ``levels``: one transform over the prefixes' surrogates side by side."""
    p, k = len(ms), x.shape[1]
    taps = len(_FILTERS[config.family])
    head = taps << levels                            # as in _surrogate_len
    rows = np.arange(length)[:, None]
    z = x[rows + (rows >= head) * (ms - length)].reshape(length, p * k)
    cfg = WaveletConfig(config.family, levels, "global")
    approx, details, lengths = dwt_forward(z, cfg)
    count = (ms + 1) // 2                            # finest details per prefix
    inner = np.maximum((ms - taps) // 2 + 1, 0)      # of which interior
    edge = details[0][len(details[0]) - (count[0] - inner[0]):]
    lam = _threshold(interior, np.abs(edge).reshape(-1, p, k), ms, count, inner)
    details = [_soft(d, lam) for d in details]
    return dwt_inverse(approx, details, lengths, cfg)[-1].reshape(p, k)


def _threshold(interior: np.ndarray, edge: np.ndarray, ms: np.ndarray,
               count: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Universal threshold median(|finest details|) / 0.6745 * sqrt(2 ln m)
    of each prefix length m in ``ms`` (ascending), flattened (p * k,).

    The finest |details| of prefix ms[j] are interior[:, :inner[j]] plus
    edge[:, j].  Sort interior[:, :k0], k0 = inner[0], once; each prefix
    adds at most q more values, and q extra values move a rank by at most
    q, so its middle ranks r1 <= r2 lie in sorted[r1 - q : r2 + 1].  Merging
    that window with the q values (+inf where a prefix has fewer) gives
    them exactly."""
    k, p = interior.shape[0], len(ms)
    k0, more = inner[0], inner[-1] - inner[0]
    q = more + edge.shape[0]
    r1 = (count - 1) // 2
    ordered = np.concatenate([np.full((k, q), -np.inf),     # keeps r1 - q >= 0
                              np.sort(interior[:, :k0], axis=1),
                              np.full((k, max(r1[-1] + 2 - k0, 0)), np.inf)], axis=1)
    window = ordered[:, r1[:, None] + np.arange(q + 2)]
    late = np.where(np.arange(more) < (inner - k0)[:, None],
                    interior[:, None, k0:k0 + more], np.inf)
    merged = np.concatenate([window, late, edge.transpose(2, 1, 0)], axis=2)
    merged.partition((q, q + 1), axis=2)
    mid = merged[:, :, q]                            # rank r1
    even = count % 2 == 0
    # np.median's mean of the two middle values
    mid[:, even] = (mid[:, even] + merged[:, even, q + 1]) / 2
    factor = np.array([math.sqrt(2.0 * math.log(m)) for m in ms])
    return (mid / 0.6745 * factor).T.reshape(p * k)


def denoise_column(x: np.ndarray, config: WaveletConfig) -> np.ndarray:
    """Denoise one column in ``config.mode``; output has the input's length."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"expected a 1-d column, got shape {x.shape}")
    return _denoise(x[:, None], config)[:, 0]


def denoise_features(table: FeatureTable, config: WaveletConfig,
                     columns=None) -> FeatureTable:
    """Denoise selected columns of a feature table (default: every column
    except raw volume) and return a new table.

    The raw ``close`` column is denoised like the rest; callers that need
    untouched closes for labeling or trade accounting must take them from
    the original table.
    """
    if columns is None:
        columns = [n for n in table.names if n != "volume"]
    missing = [c for c in columns if c not in table.names]
    if missing:
        raise DataError(f"unknown columns {missing!r}")
    out = table.copy()
    cols = [table.names.index(c) for c in columns]
    out.values[:, cols] = _denoise(table.values[:, cols], config)
    return out
