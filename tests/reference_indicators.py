"""Per-bar reference RSI and ATR% for the differential tests.

This is the loop implementation `quantrange.indicators` used before RSI
and ATR shared one vectorised Wilder smoother: the gains, the losses and
the true ranges each run their own running mean, and RSI is computed one
bar at a time. The tests compare the package with it byte for byte;
nothing in the package imports it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from quantrange.errors import InsufficientData
from quantrange.indicators import true_range


def rsi(closes: Sequence[float], period: int = 14) -> np.ndarray:
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


def atr_percent(bars: np.recarray, period: int = 14) -> np.ndarray:
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
