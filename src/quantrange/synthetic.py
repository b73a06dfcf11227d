"""Synthetic price series with known conditional quantiles, used to verify
coverage and pinball-loss behaviour end to end."""

from __future__ import annotations

import math
from array import array
from statistics import NormalDist
from typing import Callable

import numpy as np

from .config import SyntheticSpec


def _sigma(spec: SyntheticSpec, x: float) -> float:
    if spec.kind == "heteroscedastic-ar1":
        return spec.sigma0 * (1.0 + spec.vol_sensitivity * abs(x))
    return spec.sigma0


def _drift(spec: SyntheticSpec, x: float) -> float:
    mean = spec.phi * x
    if spec.kind == "regime-switch":
        mean += spec.regime_shift if x >= 0.0 else -spec.regime_shift
    return mean


def generate(spec: SyntheticSpec) -> tuple[np.ndarray, Callable[[float, float], float]]:
    """Returns (prices, oracle) where oracle(price_t, beta) is the exact
    conditional beta-quantile of the next price. Deterministic per seed."""
    # memoryview yields Python floats, the IEEE doubles numpy's float64
    # scalars hold, so the bits are the same; array("d") stores them unboxed
    noise = np.random.default_rng(spec.seed).standard_normal(spec.length - 1)
    x, path = 0.0, array("d", [0.0])
    for eps in memoryview(noise):
        x = _drift(spec, x) + _sigma(spec, x) * eps
        path.append(x)
        if not math.isfinite(x):
            break
    # an overflowed path is stepped on over numpy float64 scalars: NaN + NaN
    # keeps the sign of a different operand there than over Python floats
    x = np.float64(x)
    with np.errstate(all="ignore"):
        for eps in noise[len(path) - 1:]:
            x = _drift(spec, x) + _sigma(spec, x) * eps
            path.append(x)
    prices = spec.base_price + np.frombuffer(path)

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


def _digits(v: np.ndarray, keep: int) -> np.ndarray:
    """The ASCII digits of int64 values v >= 0, one row each; the leading
    zeros before the last `keep` digits are 0 bytes."""
    width = max(keep, len(str(v.max())))
    out, rest = np.empty((len(v), width), np.uint8), v
    for j in range(width - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, 10)
    out += 48
    out[:, :-keep] *= v[:, None] >= 10 ** np.arange(width - 1, keep - 1, -1)
    return out


def _price_field(x: np.ndarray) -> np.ndarray:
    """`"%.6f" % v` for each v in x, one 0-padded row each. rint(v * 1e6)
    rounds as %.6f does if v has no sign bit, v * 1e6 < 2**52 and it is over
    a spacing (twice its rounding error) from a half-integer; else "%.6f"."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e6
        fast = (~np.signbit(x) & (y < 2.0**52)
                & (np.abs(y - np.floor(y) - 0.5) > np.spacing(y)))
    field = _digits(np.rint(np.where(fast, y, 0.0)).astype(np.int64), 7)
    field = np.insert(field, field.shape[1] - 6, ord("."), axis=1)
    slow = np.flatnonzero(~fast)
    text = np.array(["%.6f" % v for v in x[slow].tolist()], dtype=bytes)
    width = max(field.shape[1], text.itemsize)
    field = np.pad(field, ((0, 0), (width - field.shape[1], 0)))
    field[slow] = text.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return field


def to_tick_text(prices: np.ndarray) -> str:
    """Render a price path in the tick text format so the whole ingestion
    pipeline runs unchanged on synthetic input. Tick i is at 09:00:00 + i/2 s
    with volume i + 1, last p, bid p - 0.5 and ask p + 0.5 as %.6f; rows are
    built as 0-padded byte tables, 65536 at a time."""
    blocks = ["UpdateTime,UpdateMillisec,LastPrice,Volume,"
              "BidPrice1,BidVolume1,AskPrice1,AskVolume1\n"]
    for start in range(0, len(prices), 65536):
        p = prices[start:start + 65536]
        i = np.arange(start, start + len(p))
        t = 9 * 3600 + i // 2
        cells = [_digits(t // 3600, 2), b":", _digits(t % 3600 // 60, 2), b":",
                 _digits(t % 60, 2), b",", _digits(500 * (i % 2), 1), b",",
                 _price_field(p), b",", _digits(i + 1, 1), b",",
                 _price_field(p - 0.5), b",1,", _price_field(p + 0.5), b",1\n"]
        table = np.hstack([np.tile(np.frombuffer(c, np.uint8), (len(p), 1))
                           if isinstance(c, bytes) else c for c in cells])
        blocks.append(table[table != 0].tobytes().decode("ascii"))
    return "".join(blocks)
