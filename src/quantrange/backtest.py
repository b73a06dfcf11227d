"""Backtest engine: equity accounting, cumulative return, drawdown stats
and horizon summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import IndicatorConfig, StrategyConfig
from .errors import AlignmentError, RuinousReturn
from .indicators import atr_percent, rsi
from .models.forecast import QuantileForecast
from .strategy import Trade, positions_from_signals, signals
# perfbench/tracing.py still wraps this name
from .strategy import signals as generate_signal

DRAWDOWN_COUNT_THRESHOLD = 0.001


@dataclass
class EquityCurve:
    equity: np.ndarray    # per-bar equity, equity[0] = initial capital
    returns: np.ndarray   # per-bar fractional returns, returns[0] = 0

    @property
    def initial(self) -> float:
        return float(self.equity[0])

    @property
    def final(self) -> float:
        return float(self.equity[-1])


@dataclass
class DrawdownStats:
    drawdown_series: np.ndarray   # positive magnitudes from the running peak
    max_drawdown: float
    count_over_threshold: int


def cumulative_return(returns: Sequence[float]) -> float:
    """Compounded product of (1 + r_i) minus one."""
    returns = np.asarray(returns, dtype=float)
    if np.any(returns <= -1.0):
        raise RuinousReturn("per-period return <= -100%")
    return float(np.prod(1.0 + returns) - 1.0)


def drawdown(equity: Sequence[float]) -> DrawdownStats:
    """Fractional decline from the running peak, its max, and the count of
    bars whose drawdown exceeds 0.001."""
    equity = np.asarray(equity, dtype=float)
    peaks = np.maximum.accumulate(equity)
    series = (peaks - equity) / peaks
    return DrawdownStats(
        drawdown_series=series,
        max_drawdown=float(series.max()) if series.size else 0.0,
        count_over_threshold=int((series > DRAWDOWN_COUNT_THRESHOLD).sum()),
    )


def equity_from_positions(
    bars: np.recarray,
    held: Sequence[int],
    initial_capital: float,
    transaction_cost: float = 0.0,
) -> EquityCurve:
    """Cash/position accounting for the units held during each bar
    (+1 long, -1 short, 0 flat).

    Fills happen at the bar open where the position changes; equity is
    marked to market at each close; any open position force-closes at the
    final close. equity[0] is the initial capital, before the first bar.
    Equity that reaches 0 or below raises RuinousReturn naming the bar.
    """
    n = len(bars)
    if len(held) != n:
        raise AlignmentError(f"{n} bars vs {len(held)} positions")
    held = np.asarray(held, dtype=np.int64)
    change = np.diff(held, prepend=0)   # units bought (+) or sold (-)
    fills = np.where(change != 0,
                     change * bars.open + np.abs(change) * transaction_cost,
                     0.0)
    # cash after each bar, subtracted fill by fill as a running balance
    cash = np.cumsum(np.concatenate([[initial_capital], -fills]))[1:]
    equity = cash + held * bars.close
    if n and held[-1] != 0:  # force-close on the final bar
        equity[-1] = cash[-1] + (held[-1] * bars.close[-1]
                                 - abs(held[-1]) * transaction_cost)
    broke = np.flatnonzero(equity <= 0)   # no return is defined after it
    if broke.size:
        i = int(broke[0])
        raise RuinousReturn(f"equity {float(equity[i])!r} <= 0 at the close "
                            f"of bar {i} (open_time "
                            f"{float(bars.open_time[i])!r})")

    equity = np.concatenate([[initial_capital], equity])
    returns = np.concatenate([[0.0], equity[1:] / equity[:-1] - 1.0])
    return EquityCurve(equity=equity, returns=returns)


@dataclass
class BacktestResult:
    equity_curve: EquityCurve
    drawdown_stats: DrawdownStats
    trades: list[Trade]
    held: np.ndarray          # units held during each bar
    signals: np.recarray      # per-bar `kind` and `reason` (strategy.signals)
    summary: dict[str, float] = field(default_factory=dict)


def run_backtest(
    bars: np.recarray,
    forecast: QuantileForecast,
    indicator_cfg: IndicatorConfig = IndicatorConfig(),
    strategy_cfg: StrategyConfig = StrategyConfig(),
    initial_capital: float = 1_000_000.0,
    horizons: dict[str, int] | None = None,
) -> BacktestResult:
    """Evaluate the signal strategy over bars with one forecast row per bar.

    Forecast rows must be monotone (repair first); a row of NaNs means no
    forecast for that bar, producing no signal. Signals fill at the next
    bar's open; equity is marked to market at each close. One unit traded;
    transaction costs are charged per unit on every fill.
    """
    n = len(bars)
    if forecast.values.shape[0] != n:
        raise AlignmentError(
            f"{n} bars vs {forecast.values.shape[0]} forecast rows"
        )
    closes = bars.close
    rsi_series = rsi(closes, indicator_cfg.rsi_period)
    atr_series = atr_percent(bars, indicator_cfg.atr_period)
    lower_band = forecast.values[:, forecast.levels.index_of(0.05)]
    upper_band = forecast.values[:, forecast.levels.index_of(0.95)]

    bar_signals = signals(closes, atr_series, lower_band, upper_band,
                          rsi_series, indicator_cfg,
                          strategy_cfg.sell_vs_upper_band)
    bar_signals.reason[~np.isfinite(lower_band)] = "no-forecast"

    held, trades = positions_from_signals(bar_signals.kind, bars.open, closes)
    curve = equity_from_positions(bars, held, initial_capital,
                                  strategy_cfg.transaction_cost)
    dd = drawdown(curve.equity)

    bar_returns = curve.returns[1:]
    summary: dict[str, float] = {
        "cumulative_return": cumulative_return(bar_returns),
        "volatility": float(np.std(bar_returns)),
        "max_drawdown": dd.max_drawdown,
        "num_drawdowns_over_0.001": float(dd.count_over_threshold),
        "num_trades": float(len(trades)),
        "final_equity": curve.final,
    }
    per_bar = summary["cumulative_return"]
    for name, length in (horizons or {}).items():
        # compound the whole-run per-bar return over the horizon length
        mean_bar_return = (1.0 + per_bar) ** (1.0 / max(n, 1)) - 1.0
        summary[f"cumulative_return_{name}"] = \
            (1.0 + mean_bar_return) ** length - 1.0
    return BacktestResult(equity_curve=curve, drawdown_stats=dd,
                          trades=trades, held=held, signals=bar_signals,
                          summary=summary)


def summary_text(result: BacktestResult) -> str:
    lines = [f"{key} = {value!r}" for key, value in result.summary.items()]
    return "\n".join(lines) + "\n"
