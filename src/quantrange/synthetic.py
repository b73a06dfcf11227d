"""Synthetic price series with known conditional quantiles, used to verify
coverage and pinball-loss behaviour end to end."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import InvalidSpec

KINDS = ("gaussian-ar1", "heteroscedastic-ar1", "regime-switch")


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str = "gaussian-ar1"
    length: int = 5000
    seed: int = 0
    phi: float = 0.95            # AR coefficient, |phi| < 1
    sigma0: float = 1.0          # base noise scale
    vol_sensitivity: float = 0.5  # heteroscedastic kind: sigma_t = sigma0*(1 + k*|x|)
    regime_shift: float = 0.5    # regime-switch kind: drift +/- shift by sign of x
    base_price: float = 100.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"kind must be one of {KINDS}")
        if abs(self.phi) >= 1.0:
            raise InvalidSpec("need |phi| < 1")
        if self.sigma0 <= 0.0:
            raise InvalidSpec("sigma0 must be positive")
        if self.length < 2:
            raise InvalidSpec("length must be >= 2")


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
    rng = np.random.default_rng(spec.seed)
    x = np.empty(spec.length)
    x[0] = 0.0
    noise = rng.standard_normal(spec.length - 1)
    for t in range(1, spec.length):
        prev = x[t - 1]
        x[t] = _drift(spec, prev) + _sigma(spec, prev) * noise[t - 1]
    prices = spec.base_price + x

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


def to_tick_text(prices: np.ndarray) -> str:
    """Render a price path in the tick text format so the whole ingestion
    pipeline runs unchanged on synthetic input. One tick per price every
    0.5 s from 09:00:00; spread of one price unit around last; cumulative
    volume grows by one."""
    lines = ["UpdateTime,UpdateMillisec,LastPrice,Volume,"
             "BidPrice1,BidVolume1,AskPrice1,AskVolume1"]
    for i, p in enumerate(prices):
        hh, rem = divmod(9 * 3600 + i // 2, 3600)
        mm, ss = divmod(rem, 60)
        lines.append(
            f"{hh:02d}:{mm:02d}:{ss:02d},{500 * (i % 2)},{p:.6f},{i + 1},"
            f"{p - 0.5:.6f},1,{p + 0.5:.6f},1"
        )
    return "\n".join(lines) + "\n"
