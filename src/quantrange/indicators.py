"""Technical indicators and distribution-shape estimates.

RSI (over the gains and the losses) and ATR (over the true range) share
one Wilder smoother. Skewness/kurtosis are fitted to the five forecast
quantiles by linear least squares on a Cornish-Fisher-style polynomial
basis in the standard normal quantile z.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .config import DEFAULT_LEVELS
from .errors import InsufficientData, MissingLevel


@dataclass(frozen=True)
class ShapeEstimate:
    mean: float
    std_dev: float
    skewness: float
    excess_kurtosis: float


def _wilder(values: np.ndarray, period: int) -> np.ndarray:
    """Wilder's running mean: NaN before index `period`, the plain mean of
    values[1:period + 1] at it, then (prev * (period - 1) + v) / period."""
    out = np.full(values.size, np.nan)
    avg = values[1:period + 1].mean()
    out[period] = avg
    for i in range(period + 1, values.size):
        avg = (avg * (period - 1) + values[i]) / period
        out[i] = avg
    return out


def rsi(closes: Sequence[float], period: int = 14) -> np.ndarray:
    """Wilder RSI; index `period` holds the first defined value, earlier
    entries are NaN. Zero average loss maps to 100, zero gain to 0."""
    closes = np.asarray(closes, dtype=float)
    if closes.size < period + 1:
        raise InsufficientData(
            f"rsi needs {period + 1} closes, got {closes.size}"
        )
    deltas = np.diff(closes, prepend=np.nan)
    gain = _wilder(np.clip(deltas, 0.0, None), period)
    loss = _wilder(np.clip(-deltas, 0.0, None), period)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(loss == 0.0, 100.0, 100.0 - 100.0 / (1.0 + gain / loss))


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
    return _wilder(true_range(bars), period) / bars.close


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
