"""Scalar reference decision tree and row-wise position fold for the
differential tests.

This is the per-bar implementation `quantrange.strategy` used before the
tree became one table of masks and positions one unit array: one `Signal`
per bar from nested ifs, folded bar by bar into one `PositionState` per
bar. Its forced close fills at the final bar's close, as the equity curve
does, and its finiteness check covers the band the sell branch compares.
The tests compare the columnar code with it value for value; nothing in
the package imports it. `bar_signal` runs the package's own tree on one
bar and returns the same `Signal`, for tests that read one bar at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from quantrange.config import IndicatorConfig
from quantrange.strategy import Side, Trade, signals


class SignalKind(enum.Enum):
    BUY = "Buy"
    SELL = "Sell"
    NONE = "None"


@dataclass(frozen=True)
class Signal:
    kind: SignalKind
    reason: str


UNITS = {Side.FLAT: 0, Side.LONG: 1, Side.SHORT: -1}
KIND_UNITS = {SignalKind.BUY: 1, SignalKind.SELL: -1, SignalKind.NONE: 0}


def bar_signal(price: float, atr_pct: float, lower_band: float, rsi: float,
               config: IndicatorConfig = IndicatorConfig(),
               upper_band: float | None = None,
               sell_vs_upper_band: bool = False) -> Signal:
    """The package's tree (`quantrange.strategy.signals`) on one bar, as a
    `Signal`; sell_vs_upper_band requires upper_band."""
    if sell_vs_upper_band and upper_band is None:
        raise ValueError("sell_vs_upper_band requires upper_band")
    band = math.nan if upper_band is None else upper_band
    row = signals([price], [atr_pct], [lower_band], [band], [rsi], config,
                  sell_vs_upper_band)[0]
    by_units = {units: kind for kind, units in KIND_UNITS.items()}
    return Signal(by_units[int(row.kind)], str(row.reason))


@dataclass(frozen=True)
class PositionState:
    side: Side
    entry_price: float | None = None
    entry_index: int | None = None

    def __post_init__(self):
        has_entry = self.entry_price is not None and self.entry_index is not None
        if (self.side is Side.FLAT) == has_entry:
            raise ValueError("entry fields present iff side is not Flat")


def generate_signal(
    price: float,
    atr_pct: float,
    lower_band: float,
    rsi: float,
    config: IndicatorConfig = IndicatorConfig(),
    upper_band: float | None = None,
    sell_vs_upper_band: bool = False,
) -> Signal:
    """Over-sold buy / over-bought sell, gated by the ATR volatility band."""
    band = lower_band
    if sell_vs_upper_band:
        if upper_band is None:
            raise ValueError("sell_vs_upper_band requires upper_band")
        band = upper_band
    if not all(math.isfinite(v) for v in (price, atr_pct, lower_band, band, rsi)):
        return Signal(SignalKind.NONE, "non-finite-input")
    atr_in_band = config.atr_low <= atr_pct < config.atr_high
    if rsi < 30.0:
        if price < config.threshold * lower_band:
            if atr_in_band:
                return Signal(SignalKind.BUY, "oversold")
            return Signal(SignalKind.NONE, "atr-out-of-band")
        return Signal(SignalKind.NONE, "price-above-band")
    if rsi > 70.0:
        if price > config.threshold * band:
            if atr_in_band:
                return Signal(SignalKind.SELL, "overbought")
            return Signal(SignalKind.NONE, "atr-out-of-band")
        return Signal(SignalKind.NONE, "price-below-band")
    return Signal(SignalKind.NONE, "rsi-neutral")


def positions_from_signals(
    signals: list[Signal],
    opens: list[float],
    closes: list[float],
) -> tuple[list[PositionState], list[Trade]]:
    """Fold signals into a per-bar position sequence (one unit, no
    pyramiding). A signal at bar i fills at bar i+1's open; an opposite
    signal closes then reverses; the final bar force-closes at its close.
    """
    n = len(signals)
    if not n == len(opens) == len(closes):
        raise ValueError(f"{n} signals vs {len(opens)} opens")
    positions: list[PositionState] = []
    trades: list[Trade] = []
    state = PositionState(Side.FLAT)
    for i in range(n):
        desired = signals[i - 1].kind if i > 0 else SignalKind.NONE
        if desired is SignalKind.BUY and state.side is not Side.LONG:
            if state.side is Side.SHORT:
                trades.append(Trade(state.side, state.entry_index, i,
                                    state.entry_price, opens[i]))
            state = PositionState(Side.LONG, opens[i], i)
        elif desired is SignalKind.SELL and state.side is not Side.SHORT:
            if state.side is Side.LONG:
                trades.append(Trade(state.side, state.entry_index, i,
                                    state.entry_price, opens[i]))
            state = PositionState(Side.SHORT, opens[i], i)
        positions.append(state)
    if state.side is not Side.FLAT:
        trades.append(Trade(state.side, state.entry_index, n - 1,
                            state.entry_price, closes[n - 1]))
    return positions, trades
