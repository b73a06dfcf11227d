"""Technical indicators and distribution-shape estimates.

RSI and ATR use Wilder smoothing. Skewness/kurtosis are fitted to the
five forecast quantiles by linear least squares on a Cornish-Fisher-style
polynomial basis in the standard normal quantile z. The strategy reads
its bands straight from the forecast's 0.05 and 0.95 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import InsufficientData, MissingLevel
from .models.forecast import DEFAULT_LEVELS


@dataclass(frozen=True)
class IndicatorConfig:
    rsi_period: int = 14
    atr_period: int = 14
    atr_low: float = 0.01
    atr_high: float = 0.03
    threshold: float = 1.0

    def __post_init__(self):
        if self.rsi_period < 1 or self.atr_period < 1:
            raise ValueError("indicator periods must be >= 1")
        if not 0.0 < self.atr_low < self.atr_high:
            raise ValueError("need 0 < atr_low < atr_high")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class ShapeEstimate:
    mean: float
    std_dev: float
    skewness: float
    excess_kurtosis: float


def rsi(closes: Sequence[float], period: int = 14) -> np.ndarray:
    """Wilder RSI; index `period` holds the first defined value, earlier
    entries are NaN. Zero average loss maps to 100, zero gain to 0."""
    closes = np.asarray(closes, dtype=float)
    if closes.size < period + 1:
        raise InsufficientData(
            f"rsi needs {period + 1} closes, got {closes.size}"
        )
    deltas = np.diff(closes)
    gains = np.clip(deltas, 0.0, None)
    losses = np.clip(-deltas, 0.0, None)
    out = np.full(closes.size, np.nan)
    avg_gain = gains[:period].mean()
    avg_loss = losses[:period].mean()
    out[period] = _rsi_value(avg_gain, avg_loss)
    for i in range(period, deltas.size):
        avg_gain = (avg_gain * (period - 1) + gains[i]) / period
        avg_loss = (avg_loss * (period - 1) + losses[i]) / period
        out[i + 1] = _rsi_value(avg_gain, avg_loss)
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def true_range(bars: np.recarray) -> np.ndarray:
    """TR_t = max(high-low, |high-prev_close|, |low-prev_close|); NaN at 0."""
    high, low, prev_close = bars.high[1:], bars.low[1:], bars.close[:-1]
    tr = np.full(len(bars), np.nan)
    tr[1:] = np.maximum(np.maximum(high - low, np.abs(high - prev_close)),
                        np.abs(low - prev_close))
    return tr


def atr_percent(bars: np.recarray, period: int = 14) -> np.ndarray:
    """Wilder-smoothed ATR divided by the bar close (0.02 = 2%). First
    defined value at index `period`."""
    n = len(bars)
    if n < period + 1:
        raise InsufficientData(f"atr needs {period + 1} bars, got {n}")
    tr = true_range(bars)
    closes = bars.close
    out = np.full(n, np.nan)
    atr = tr[1:period + 1].mean()
    out[period] = atr / closes[period]
    for i in range(period + 1, n):
        atr = (atr * (period - 1) + tr[i]) / period
        out[i] = atr / closes[i]
    return out


def shape_from_quantiles(
    row: Sequence[float],
    levels: Sequence[float] = DEFAULT_LEVELS,
) -> ShapeEstimate:
    """Least-squares fit of q(p) ~ mu + sigma*(z + (z^2-1)*s/6 + (z^3-3z)*k/24)
    over the (z_p, q) pairs; linear in (mu, sigma, sigma*s/6, sigma*k/24)."""
    row = np.asarray(row, dtype=float)
    if row.size != len(levels):
        raise MissingLevel(f"{row.size} values for {len(levels)} levels")
    if np.any(np.diff(row) < 0.0):
        raise ValueError("quantile row must be monotone; repair it first")
    z = np.array([NormalDist().inv_cdf(p) for p in levels])
    basis = np.column_stack([np.ones_like(z), z, z ** 2 - 1.0, z ** 3 - 3.0 * z])
    coeffs, *_ = np.linalg.lstsq(basis, row, rcond=None)
    mu, sigma, a, b = coeffs
    if sigma < 1e-12:
        return ShapeEstimate(mean=float(mu), std_dev=0.0,
                             skewness=0.0, excess_kurtosis=0.0)
    return ShapeEstimate(
        mean=float(mu),
        std_dev=float(sigma),
        skewness=float(6.0 * a / sigma),
        excess_kurtosis=float(24.0 * b / sigma),
    )
