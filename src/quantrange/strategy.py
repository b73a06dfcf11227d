"""Signal generation from the printed decision tree, as one table of
masks, and the fold that turns per-bar signals into held units and a
trade log."""

from __future__ import annotations

import numpy as np

from .config import IndicatorConfig

# every reason a bar's signal can carry: "no-forecast" (set by the backtest
# where a bar has no forecast), then the tree's leaves in printed order
REASONS = ("no-forecast", "non-finite-input", "oversold", "atr-out-of-band",
           "price-above-band", "overbought", "price-below-band",
           "rsi-neutral")
SIGNAL_DTYPE = np.dtype([("kind", np.int8),
                         ("reason", f"U{max(map(len, REASONS))}")])
# one trade: `side` +1 long or -1 short, in the units of `held`
TRADE_DTYPE = np.dtype([("side", np.int8), ("entry_index", np.int64),
                        ("exit_index", np.int64), ("entry_price", "f8"),
                        ("exit_price", "f8")])


def signals(price, atr_pct, lower_band, upper_band, rsi,
            config: IndicatorConfig = IndicatorConfig(),
            sell_vs_upper_band: bool = False) -> np.recarray:
    """Over-sold buy / over-bought sell, gated by the ATR volatility band,
    for every bar at once. Returns a record array of int8 `kind` (+1 buy,
    -1 sell, 0 none) and the `reason` of the leaf each bar reached.

    The sell branch compares price against the lower band by default;
    sell_vs_upper_band switches it to the upper band.
    """
    price, atr_pct, lower_band, upper_band, rsi = (
        np.asarray(v, dtype=float)
        for v in (price, atr_pct, lower_band, upper_band, rsi))
    sell_band = upper_band if sell_vs_upper_band else lower_band
    finite = (np.isfinite(price) & np.isfinite(atr_pct) & np.isfinite(rsi)
              & np.isfinite(lower_band) & np.isfinite(sell_band))
    atr_in_band = (config.atr_low <= atr_pct) & (atr_pct < config.atr_high)
    oversold, overbought = rsi < 30.0, rsi > 70.0
    below = price < config.threshold * lower_band
    above = price > config.threshold * sell_band
    # (condition, kind, reason): the first true condition picks the leaf,
    # and a bar that meets none is rsi-neutral
    leaves = [
        (~finite, 0, "non-finite-input"),
        (oversold & below & atr_in_band, 1, "oversold"),
        (oversold & below, 0, "atr-out-of-band"),
        (oversold, 0, "price-above-band"),
        (overbought & above & atr_in_band, -1, "overbought"),
        (overbought & above, 0, "atr-out-of-band"),
        (overbought, 0, "price-below-band"),
    ]
    conditions, kinds, reasons = zip(*leaves)
    leaf = np.select(conditions, list(range(len(leaves))), default=len(leaves))
    out = np.recarray(leaf.shape, dtype=SIGNAL_DTYPE)
    out.kind = np.array([*kinds, 0], dtype=np.int8)[leaf]
    out.reason = np.array([*reasons, "rsi-neutral"])[leaf]
    return out


def positions_from_signals(
        kinds, opens, closes) -> tuple[np.ndarray, np.recarray]:
    """Fold per-bar signal kinds into the units held during each bar (one
    unit, no pyramiding) and the trade log, a TRADE_DTYPE record array in
    entry order. A signal at bar i fills at bar i+1's open; an opposite
    signal closes then reverses; an open position force-closes at the
    final bar's close.

    held[i] is the last non-zero kind before bar i (0 until the first).
    """
    kinds = np.asarray(kinds, dtype=np.int8)
    opens, closes = (np.asarray(a, dtype=float) for a in (opens, closes))
    n = len(kinds)
    if not n == len(opens) == len(closes):
        raise ValueError(f"{n} signals vs {len(opens)} opens "
                         f"and {len(closes)} closes")
    before = np.zeros(n, dtype=np.int8)   # before[i]: the signal at bar i-1
    before[1:] = kinds[:-1]
    last = np.maximum.accumulate(np.where(before != 0, np.arange(n), 0))
    held = before[last]
    # every change opens a position; the next change, or the end, closes it
    # (the [-1:] slices are empty when there is no trade)
    starts = np.flatnonzero(np.diff(held, prepend=0))
    trades = np.recarray(len(starts), TRADE_DTYPE)
    trades.side = held[starts]
    trades.entry_index = starts
    trades.entry_price = opens[starts]
    trades.exit_index[:-1] = starts[1:]
    trades.exit_index[-1:] = n - 1
    trades.exit_price[:-1] = opens[starts[1:]]
    trades.exit_price[-1:] = closes[-1:]
    return held, trades
