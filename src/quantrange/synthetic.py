"""Synthetic price series with known conditional quantiles, used to verify
coverage and pinball-loss behaviour end to end."""

from __future__ import annotations

from itertools import accumulate
from statistics import NormalDist
from typing import Callable, Iterator

import numpy as np

from .config import SyntheticSpec
from .text import digits, fixed6_field, join


def _sigma(spec: SyntheticSpec, x: float) -> float:
    if spec.kind == "heteroscedastic-ar1":
        return spec.sigma0 * (1.0 + spec.vol_sensitivity * abs(x))
    return spec.sigma0


def _drift(spec: SyntheticSpec, x: float) -> float:
    mean = spec.phi * x
    if spec.kind == "regime-switch":
        mean += spec.regime_shift if x >= 0.0 else -spec.regime_shift
    return mean


def _step(spec: SyntheticSpec) -> Callable[[float, float], float]:
    """x' from x and the noise eps, in the operand order of
    `_drift(spec, x) + _sigma(spec, x) * eps`, so the bits are the same."""
    phi, s0, k = spec.phi, spec.sigma0, spec.vol_sensitivity
    shift = spec.regime_shift
    if spec.kind == "heteroscedastic-ar1":
        return lambda x, eps: phi * x + s0 * (1.0 + k * abs(x)) * eps
    if spec.kind == "regime-switch":
        return lambda x, eps: (phi * x + (shift if x >= 0.0 else -shift)
                               + s0 * eps)
    return lambda x, eps: phi * x + s0 * eps


def generate(spec: SyntheticSpec) -> tuple[np.ndarray, Callable[[float, float], float]]:
    """Returns (prices, oracle) where oracle(price_t, beta) is the exact
    conditional beta-quantile of the next price. Deterministic per seed."""
    # memoryview yields Python floats, the IEEE doubles numpy's float64
    # scalars hold, so the bits are the same
    noise = np.random.default_rng(spec.seed).standard_normal(spec.length - 1)
    step = _step(spec)
    path = np.fromiter(accumulate(memoryview(noise), step, initial=0.0),
                       float, spec.length)
    # from its first non-finite value on, the path steps over float64 scalars:
    # NaN + NaN keeps the sign of a different operand there than over floats
    bad = np.flatnonzero(~np.isfinite(path))
    with np.errstate(all="ignore"):
        for t in range(bad[0] + 1 if bad.size else spec.length, spec.length):
            path[t] = step(path[t - 1], noise[t - 1])
    prices = spec.base_price + path

    nd = NormalDist()

    def oracle(price: float, beta: float) -> float:
        state = price - spec.base_price
        return (spec.base_price + _drift(spec, state)
                + _sigma(spec, state) * nd.inv_cdf(beta))

    return prices, oracle


def oracle_forecast(prices: np.ndarray, oracle, levels) -> np.ndarray:
    """True conditional quantiles of price[t+1] given price[t], one row per
    t in [0, len-1); shape (len-1, Q)."""
    out = np.empty((len(prices) - 1, len(levels)))
    for t in range(len(prices) - 1):
        for j, beta in enumerate(levels):
            out[t, j] = oracle(prices[t], beta)
    return out


def to_tick_text(prices: np.ndarray) -> Iterator[bytes]:
    """Render a price path in the tick text format so the whole ingestion
    pipeline runs unchanged on synthetic input. Tick i is at 09:00:00 + i/2 s
    with volume i + 1, last p, bid p - 0.5 and ask p + 0.5 as %.6f; yields
    the header, then the rows as 0-padded byte tables, 65536 at a time."""
    yield (b"UpdateTime,UpdateMillisec,LastPrice,Volume,"
           b"BidPrice1,BidVolume1,AskPrice1,AskVolume1\n")
    for start in range(0, len(prices), 65536):
        p = prices[start:start + 65536]
        i = np.arange(start, start + len(p))
        t = 9 * 3600 + i // 2
        cells = [digits(t // 3600, 2), b":", digits(t % 3600 // 60, 2), b":",
                 digits(t % 60, 2), b",", digits(500 * (i % 2), 1), b",",
                 fixed6_field(p), b",", digits(i + 1, 1), b",",
                 fixed6_field(p - 0.5), b",1,", fixed6_field(p + 0.5), b",1\n"]
        yield join(cells, len(p))
