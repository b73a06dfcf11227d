import math

import numpy as np
import pytest

from quantrange.config import IndicatorConfig, StrategyConfig
from quantrange.strategy import REASONS, Side, positions_from_signals, signals
from reference_strategy import Signal, SignalKind, bar_signal


def grid_signal(rsi, atr, price_below, **kwargs):
    lower_band = 100.0
    price = 95.0 if price_below else 105.0
    return bar_signal(price=price, atr_pct=atr, lower_band=lower_band,
                      rsi=rsi, upper_band=110.0, **kwargs)


class TestDecisionTable:
    def test_full_grid(self):
        kinds = {}
        for rsi in (25.0, 50.0, 75.0):
            for atr in (0.005, 0.02, 0.035):
                for below in (True, False):
                    kinds[(rsi, atr, below)] = grid_signal(rsi, atr, below).kind
        for key, kind in kinds.items():
            rsi, atr, below = key
            if rsi == 25.0 and below and atr == 0.02:
                assert kind is SignalKind.BUY, key
            elif rsi == 75.0 and not below and atr == 0.02:
                assert kind is SignalKind.SELL, key
            else:
                assert kind is SignalKind.NONE, key

    def test_atr_band_half_open(self):
        cfg = IndicatorConfig(atr_low=0.01, atr_high=0.03)
        at_low = grid_signal(25.0, 0.01, True, config=cfg)
        at_high = grid_signal(25.0, 0.03, True, config=cfg)
        assert at_low.kind is SignalKind.BUY
        assert at_high.kind is SignalKind.NONE

    def test_rsi_boundaries_are_exclusive(self):
        assert grid_signal(30.0, 0.02, True).kind is SignalKind.NONE
        assert grid_signal(70.0, 0.02, False).kind is SignalKind.NONE

    def test_threshold_scales_band(self):
        cfg = IndicatorConfig(threshold=0.9)
        # 95 < 0.9 * 100 is false, so the buy branch falls through
        sig = grid_signal(25.0, 0.02, True, config=cfg)
        assert sig.kind is SignalKind.NONE

    def test_sell_vs_upper_band_variant(self):
        # price 105 is above the lower band but below the upper band, so
        # the variant suppresses the sell that the verbatim branch emits
        verbatim = grid_signal(75.0, 0.02, False)
        variant = grid_signal(75.0, 0.02, False, sell_vs_upper_band=True)
        assert verbatim.kind is SignalKind.SELL
        assert variant.kind is SignalKind.NONE

    @pytest.mark.parametrize("upper_band", [math.nan, math.inf, -math.inf])
    def test_variant_rejects_a_non_finite_upper_band(self, upper_band):
        # an overbought bar the verbatim branch sells; the variant compares
        # price with the upper band, so that band must be finite too
        sig = bar_signal(price=105.0, atr_pct=0.02, lower_band=100.0,
                         rsi=75.0, upper_band=upper_band,
                         sell_vs_upper_band=True)
        assert sig == Signal(SignalKind.NONE, "non-finite-input")
        verbatim = bar_signal(price=105.0, atr_pct=0.02, lower_band=100.0,
                              rsi=75.0, upper_band=upper_band)
        assert verbatim.kind is SignalKind.SELL

    def test_variant_requires_upper_band(self):
        with pytest.raises(ValueError):
            bar_signal(price=105.0, atr_pct=0.02, lower_band=100.0,
                       rsi=75.0, sell_vs_upper_band=True)

    def test_non_finite_inputs(self):
        sig = bar_signal(price=100.0, atr_pct=math.nan,
                         lower_band=100.0, rsi=25.0)
        assert sig.kind is SignalKind.NONE
        assert sig.reason == "non-finite-input"


B, S, N = 1, -1, 0


def fold(kinds, opens, closes=None):
    """positions_from_signals on bars that close where they open, unless
    closes are given."""
    return positions_from_signals(np.array(kinds, dtype=np.int8), opens,
                                  opens if closes is None else closes)


class TestPositionsFromSignals:
    def test_buy_fills_next_bar(self):
        held, trades = fold([B, N, N], [10.0, 11.0, 12.0])
        assert held.tolist() == [0, 1, 1]
        assert held.dtype == np.int8
        assert trades[0].entry_price == 11.0
        assert len(trades) == 1
        assert trades[0].pnl == pytest.approx(1.0)  # 12 - 11

    def test_no_pyramiding(self):
        held, trades = fold([B, B, B, N], [10.0, 11.0, 12.0, 13.0])
        assert held.tolist() == [0, 1, 1, 1]
        assert len(trades) == 1
        assert trades[0].entry_price == 11.0

    def test_reversal_closes_then_opens(self):
        held, trades = fold([B, S, N], [10.0, 11.0, 12.0])
        assert held.tolist() == [0, 1, -1]
        assert len(trades) == 2
        long_trade, short_trade = trades
        assert long_trade.side is Side.LONG
        assert long_trade.pnl == pytest.approx(1.0)   # 11 -> 12
        assert short_trade.side is Side.SHORT
        assert short_trade.entry_price == 12.0

    def test_short_pnl_sign(self):
        _, trades = fold([S, N, N], [10.0, 11.0, 9.0])
        assert trades[0].side is Side.SHORT
        assert trades[0].pnl == pytest.approx(2.0)  # sold 11, covered 9

    def test_all_none_stays_flat(self):
        held, trades = fold([N, N, N], [1.0, 2.0, 3.0])
        assert held.tolist() == [0, 0, 0]
        assert trades == []

    def test_signal_on_final_bar_never_fills(self):
        held, trades = fold([N, B], [1.0, 2.0])
        assert held.tolist() == [0, 0]
        assert trades == []

    def test_forced_close_fills_at_final_close(self):
        # opens 10, 11, 12; the final bar closes at 12.5, as equity marks it
        held, trades = fold([B, N, N], [10.0, 11.0, 12.0], [10.5, 11.5, 12.5])
        assert held.tolist() == [0, 1, 1]
        assert (trades[0].exit_index, trades[0].exit_price) == (2, 12.5)

    def test_no_bars(self):
        held, trades = fold([], [])
        assert held.tolist() == [] and trades == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fold([N], [1.0, 2.0])


class TestSignalArrays:
    def test_one_row_per_bar_in_tree_order(self):
        # rsi 25, 25, 25, 75, 75, 75, 50, nan: one bar for each leaf
        price = [95.0, 95.0, 105.0, 105.0, 105.0, 95.0, 100.0, 100.0]
        atr = [0.02, 0.005, 0.02, 0.02, 0.035, 0.02, 0.02, 0.02]
        rsi = [25.0, 25.0, 25.0, 75.0, 75.0, 75.0, 50.0, math.nan]
        out = signals(price, atr, 100.0, 110.0, rsi)
        assert out.kind.dtype == np.int8
        assert out.kind.tolist() == [1, 0, 0, -1, 0, 0, 0, 0]
        assert out.reason.tolist() == [
            "oversold", "atr-out-of-band", "price-above-band", "overbought",
            "atr-out-of-band", "price-below-band", "rsi-neutral",
            "non-finite-input"]
        assert set(out.reason.tolist()) == set(REASONS) - {"no-forecast"}

    def test_records_carry_a_reason_attribute(self):
        out = signals([95.0, 105.0], 0.02, 100.0, 110.0, 25.0)
        assert [s.reason for s in out] == ["oversold", "price-above-band"]

    def test_scalar_wrapper_agrees(self):
        sig = bar_signal(price=105.0, atr_pct=0.02, lower_band=100.0,
                         rsi=75.0)
        assert (sig.kind, sig.reason) == (SignalKind.SELL, "overbought")


def test_strategy_config_defaults():
    cfg = StrategyConfig()
    assert cfg.sell_vs_upper_band is False
    assert cfg.transaction_cost == 0.0
