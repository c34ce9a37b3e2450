"""Wavelet transform and denoising: reconstruction, energy, causality.

Frozen oracle (Haar, one level, periodized): x = [1, 3] ->
approx = 4/sqrt(2) = 2*sqrt(2), detail = -2/sqrt(2) = -sqrt(2).
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from candlecast.denoise import (_FILTERS, WaveletConfig, _analysis_step, _denoise,
                                _denoise_matrix, _qmf, _surrogate_len, _synthesis_step,
                                denoise_column, denoise_features, dwt_forward,
                                dwt_inverse)
from candlecast.errors import ConfigError, DataError
from candlecast.indicators import IndicatorSpec, generate_features

from conftest import make_series


def test_haar_single_level_oracle():
    cfg = WaveletConfig("haar", 1, "global")
    a, d, lengths = dwt_forward(np.array([1.0, 3.0]), cfg)
    assert a[0] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)
    assert d[0][0] == pytest.approx(-math.sqrt(2.0), abs=1e-15)
    assert lengths == [2]


def test_perfect_reconstruction_len_64():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64)
    for family in ("haar", "db4"):
        for levels in (1, 2, 3, 6):
            cfg = WaveletConfig(family, levels, "global")
            a, d, lengths = dwt_forward(x, cfg)
            back = dwt_inverse(a, d, lengths, cfg)
            assert np.max(np.abs(back - x)) < 1e-9, (family, levels)


def test_perfect_reconstruction_odd_and_ragged_lengths():
    rng = np.random.default_rng(2)
    for n in (2, 3, 7, 17, 50, 96, 101):
        x = rng.normal(size=n)
        max_levels = int(math.log2(n))
        for family in ("haar", "db4"):
            for levels in range(1, max_levels + 1):
                cfg = WaveletConfig(family, levels, "global")
                a, d, lengths = dwt_forward(x, cfg)
                back = dwt_inverse(a, d, lengths, cfg)
                np.testing.assert_allclose(back, x, atol=1e-9, err_msg=f"{family}/{levels}/n={n}")


def test_parseval_energy_identity():
    # on power-of-two lengths no padding happens and the transform is a
    # pure rotation: coefficient energy equals signal energy
    rng = np.random.default_rng(3)
    x = rng.normal(size=128)
    for family in ("haar", "db4"):
        cfg = WaveletConfig(family, 4, "global")
        a, d, _ = dwt_forward(x, cfg)
        coeff_energy = np.sum(a ** 2) + sum(np.sum(di ** 2) for di in d)
        assert coeff_energy == pytest.approx(np.sum(x ** 2), rel=1e-12)


def test_denoise_never_adds_energy():
    rng = np.random.default_rng(4)
    x = np.sin(np.linspace(0, 12, 256)) + rng.normal(0, 0.3, 256)
    for family in ("haar", "db4"):
        y = denoise_column(x, WaveletConfig(family, 3, "global"))
        assert np.sum(y ** 2) <= np.sum(x ** 2) + 1e-9


def test_denoise_reduces_impulse_noise_mse():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 6 * np.pi, 512)
    clean = np.sin(t)
    noisy = clean + rng.normal(0, 0.15, len(t))
    spikes = rng.choice(len(t), 12, replace=False)
    noisy[spikes] += rng.choice([-1.0, 1.0], 12) * 1.5
    for family in ("haar", "db4"):
        y = denoise_column(noisy, WaveletConfig(family, 3, "global"))
        mse_before = np.mean((noisy - clean) ** 2)
        mse_after = np.mean((y - clean) ** 2)
        assert mse_after < 0.5 * mse_before, family


def test_global_denoise_idempotent():
    # the universal threshold zeroes most finest-level details, so the second
    # pass sees a zero noise estimate and returns its input unchanged
    rng = np.random.default_rng(6)
    x = np.sin(np.linspace(0, 8, 256)) + rng.normal(0, 0.2, 256)
    cfg = WaveletConfig("db4", 3, "global")
    y = denoise_column(x, cfg)
    z = denoise_column(y, cfg)
    assert np.max(np.abs(z - y)) < 1e-6


def test_causal_mode_prefix_equality():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.normal(size=120))
    cfg = WaveletConfig("db4", 2, "causal")
    out = denoise_column(x, cfg)
    # the seam: the first prefix that a shorter surrogate stands in for,
    # then one cut at each residue mod 2**levels past it
    seam = next(m for m in range(2, 120) if _surrogate_len(m, 2, 4) < m)
    for cut in (2, 9, 31, 64, 100, seam - 1, *range(seam, seam + 4)):
        np.testing.assert_array_equal(denoise_column(x[:cut], cfg), out[:cut])
    # changing the future never changes the past
    x2 = x.copy()
    x2[80:] += rng.normal(0, 5.0, 40)
    out2 = denoise_column(x2, cfg)
    np.testing.assert_array_equal(out2[:80], out[:80])


def per_prefix_denoise(x, config):
    """Causal denoise as one global denoise per prefix [0..t]: the oracle
    for the batched surrogate path in ``_denoise``."""
    y = np.empty_like(x)
    y[0] = x[0]
    for t in range(1, x.shape[0]):
        levels = min(config.levels, int(math.log2(t + 1)))
        y[t] = _denoise_matrix(x[:t + 1], config, levels)[-1]
    return y


def awkward_columns(n, seed):
    """A random walk, then columns that stress the threshold: -0.0 entries,
    constants (all -0.0 gives lambda = 0), integers (tied |d|) and values
    near 1e300."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=n))
    signed_zeros = rng.normal(size=n)
    signed_zeros[::3] = -0.0
    return np.column_stack([walk, signed_zeros, np.full(n, -0.0), np.full(n, 2.5),
                            np.round(3.0 * walk), 1e300 * rng.normal(size=n)])


@pytest.mark.parametrize("family", ["haar", "db4"])
# 8: each prefix's deepest; one transform per prefix, about 10 s a family
@pytest.mark.parametrize("levels", [1, 2, 3, pytest.param(8, marks=pytest.mark.slow)])
def test_causal_bit_equal_per_prefix_oracle_every_length(family, levels):
    x = awkward_columns(300, seed=10)
    cfg = WaveletConfig(family, levels, "causal")
    want = per_prefix_denoise(x, cfg).view(np.int64)
    for n in range(1, 301):
        got = _denoise(x[:n], cfg).view(np.int64)
        np.testing.assert_array_equal(got, want[:n], err_msg=f"{family}/{levels}/n={n}")


def test_causal_bit_equal_per_prefix_oracle_default_length():
    x = awkward_columns(3949, seed=11)[:, [0, 1, 4]]
    cfg = WaveletConfig("db4", 2, "causal")
    np.testing.assert_array_equal(_denoise(x, cfg).view(np.int64),
                                  per_prefix_denoise(x, cfg).view(np.int64))


def test_causal_row_matches_global_on_prefix():
    rng = np.random.default_rng(8)
    x = np.cumsum(rng.normal(size=90))
    causal = denoise_column(x, WaveletConfig("haar", 2, "causal"))
    for t in (5, 20, 63, 89):
        m = t + 1
        levels = min(2, int(math.log2(m)))
        g = denoise_column(x[:m], WaveletConfig("haar", levels, "global"))
        assert causal[t] == g[-1]


def test_global_mode_has_lookahead():
    # blowing up the tail moves the noise estimate, which rewrites earlier
    # rows; that is exactly why global output must never feed a backtest
    rng = np.random.default_rng(9)
    x = np.cumsum(rng.normal(size=64))
    cfg = WaveletConfig("db4", 2, "global")
    a = denoise_column(x, cfg)
    x2 = x.copy()
    x2[40:] += rng.normal(0.0, 30.0, 24)
    b = denoise_column(x2, cfg)
    assert np.any(a[:32] != b[:32])


def test_config_validation():
    assert WaveletConfig("Daubechies4", 2, "global").family == "db4"
    assert WaveletConfig("Haar", 1, "causal").family == "haar"
    with pytest.raises(ConfigError):
        WaveletConfig("sym8", 2, "global")
    with pytest.raises(ConfigError):
        WaveletConfig("haar", 0, "global")
    with pytest.raises(ConfigError):
        WaveletConfig("haar", 2, "smooth")
    with pytest.raises(ConfigError):
        denoise_column(np.ones(16), WaveletConfig("haar", 5, "global"))
    with pytest.raises(DataError):
        denoise_column(np.array([1.0, np.nan, 2.0, 3.0]), WaveletConfig("haar", 1, "global"))
    with pytest.raises(DataError):
        denoise_column(np.ones((4, 2)), WaveletConfig("haar", 1, "global"))


def test_denoise_features_leaves_volume_alone():
    s = make_series(160, seed=40)
    table = generate_features(s, [IndicatorSpec("SMA", {"window": 7}),
                                  IndicatorSpec("RSI", {"window": 7})])
    cfg = WaveletConfig("db4", 2, "global")
    out = denoise_features(table, cfg)
    np.testing.assert_array_equal(out.column("volume"), table.column("volume"))
    assert not np.array_equal(out.column("close"), table.column("close"))
    assert not np.array_equal(out.column("rsi_7"), table.column("rsi_7"))
    # the input table is untouched
    assert table.column("close")[0] == s.close[7]


def test_denoise_features_matrix_matches_per_column():
    s = make_series(140, seed=41)
    table = generate_features(s, [IndicatorSpec("SMA", {"window": 7})])
    for mode in ("global", "causal"):
        cfg = WaveletConfig("haar", 2, mode)
        out = denoise_features(table, cfg, columns=["close", "sma_7"])
        for name in ("close", "sma_7"):
            np.testing.assert_allclose(out.column(name),
                                       denoise_column(table.column(name), cfg),
                                       atol=1e-12, err_msg=f"{mode}/{name}")


def test_denoise_features_unknown_column():
    s = make_series(120, seed=42)
    table = generate_features(s, [IndicatorSpec("SMA", {"window": 7})])
    with pytest.raises(DataError, match="unknown columns"):
        denoise_features(table, WaveletConfig("haar", 1, "global"), columns=["zzz"])


def einsum_analysis_step(x, h, g):
    """Reference level: gather (m/2, taps, k) windows by a modular index."""
    m = x.shape[0]
    if m % 2:
        x = np.concatenate([x, x[-1:]], axis=0)
        m += 1
    idx = (2 * np.arange(m // 2)[:, None] + np.arange(len(h))[None, :]) % m
    win = x[idx]
    return np.einsum("wtk,t->wk", win, h), np.einsum("wtk,t->wk", win, g)


def einsum_synthesis_step(a, d, h, g, out_len):
    """Reference adjoint: modular fancy-index adds, one tap at a time."""
    m = 2 * a.shape[0]
    y = np.zeros((m, a.shape[1]))
    base = 2 * np.arange(a.shape[0])
    for j in range(len(h)):
        y[(base + j) % m] += a * h[j] + d * g[j]
    return y[:out_len]


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_wavelet_steps_bit_equal_einsum_reference(family):
    h = _FILTERS[family]
    g = _qmf(h)
    rng = np.random.default_rng(7)
    for m in range(1, 11):                      # odd, and shorter than db4's taps
        for k in (1, 3):
            x = rng.normal(size=(m, k))
            x[::2, -1] = -0.0                   # sums of signed zeros are +0.0
            got, ref = _analysis_step(x, h, g), einsum_analysis_step(x, h, g)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
            half = (m + 1) // 2
            a, d = rng.normal(size=(2, half, k))
            d[::2, -1] = -0.0
            a[::2, -1] = -0.0
            np.testing.assert_array_equal(
                _synthesis_step(a, d, h, g, m).view(np.int64),
                einsum_synthesis_step(a, d, h, g, m).view(np.int64))
