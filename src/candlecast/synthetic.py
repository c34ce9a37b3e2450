"""Seeded synthetic markets for demos and end-to-end checks.

The sine market is deliberately predictable: a long-period carrier wave with
small multiplicative noise, so a direction classifier has real signal to find
while fees and turning points still punish overconfidence.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError
from .market_data import CandleSeries

_LOW_FLOOR = 1e-6   # lowest price a synthetic low is clamped to


def sine_market(n: int = 4000, timeframe: int = 14400, period: float = 96.0,
                amplitude: float = 0.25, noise: float = 0.0012, base_price: float = 100.0,
                seed: int = 7, symbol: str = "SINE/USD") -> CandleSeries:
    """Generate ``n`` candles whose close follows a noisy sinusoid.

    open is the previous close; high/low bracket the candle body with a small
    random wick; volume is lognormal around a constant level.  Deterministic
    for a fixed seed.
    """
    if n < 2:
        raise DataError(f"need at least 2 candles, got {n}")
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    trend = base_price * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period))
    close = trend * (1.0 + noise * rng.standard_normal(n))
    below = np.flatnonzero(close < _LOW_FLOOR)
    if below.size:
        # a noise draw under -1/noise flips the close's sign; the low clamp
        # below would then sit above the candle body
        raise DataError(f"synthetic noise {noise} drives the close to "
                        f"{close[below[0]]:.6g} at row {below[0]}, below the "
                        f"{_LOW_FLOOR:g} price floor")
    open_ = np.empty_like(close)
    open_[0] = close[0]
    open_[1:] = close[:-1]
    wick = np.abs(rng.standard_normal(n)) * noise * trend
    high = np.maximum(open_, close) + wick
    low = np.minimum(open_, close) - wick
    low = np.maximum(low, _LOW_FLOOR)
    volume = np.exp(rng.normal(np.log(1000.0), 0.2, size=n))
    timestamps = np.arange(n, dtype=np.int64) * timeframe
    return CandleSeries(symbol, timeframe, timestamps, open_, high, low, close, volume)
