"""Scalar reference decision tree and row-wise position fold for the
differential tests.

This is the per-bar implementation `quantrange.strategy` used before the
tree became one table of masks and positions one unit array: one `Signal`
per bar from nested ifs, folded bar by bar into one `PositionState` per
bar, whose side is in units (+1 long, -1 short, 0 flat), and one tuple
(side, entry_index, exit_index, entry_price, exit_price) per trade, the
fields of `quantrange.strategy.TRADE_DTYPE`. Its forced close fills at
the final bar's close, as the equity curve does, and its finiteness check
covers the band the sell branch compares. The tests compare the columnar
code with it value for value; nothing in the package imports it.
`bar_signal` runs the package's own tree on one bar and returns the same
`Signal`, for tests that read one bar at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from quantrange.config import IndicatorConfig
from quantrange.strategy import signals


class SignalKind(enum.Enum):
    BUY = "Buy"
    SELL = "Sell"
    NONE = "None"


@dataclass(frozen=True)
class Signal:
    kind: SignalKind
    reason: str


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
    side: int                    # units held: +1 long, -1 short, 0 flat
    entry_price: float | None = None
    entry_index: int | None = None

    def __post_init__(self):
        has_entry = self.entry_price is not None and self.entry_index is not None
        if (self.side == 0) == has_entry:
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
) -> tuple[list[PositionState], list[tuple]]:
    """Fold signals into a per-bar position sequence (one unit, no
    pyramiding) and the trade tuples. A signal at bar i fills at bar i+1's
    open; an opposite signal closes then reverses; the final bar
    force-closes at its close.
    """
    n = len(signals)
    if not n == len(opens) == len(closes):
        raise ValueError(f"{n} signals vs {len(opens)} opens")
    positions: list[PositionState] = []
    trades: list[tuple] = []
    state = PositionState(0)
    for i in range(n):
        desired = KIND_UNITS[signals[i - 1].kind] if i > 0 else 0
        if desired != 0 and state.side != desired:
            if state.side != 0:
                trades.append((state.side, state.entry_index, i,
                               state.entry_price, opens[i]))
            state = PositionState(desired, opens[i], i)
        positions.append(state)
    if state.side != 0:
        trades.append((state.side, state.entry_index, n - 1,
                       state.entry_price, closes[n - 1]))
    return positions, trades
