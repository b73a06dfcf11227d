import numpy as np
import pytest

from quantrange import backtest
from quantrange.backtest import (
    cumulative_return,
    drawdown,
    equity_from_positions,
    run_backtest,
    scenario_test,
)
from quantrange.cli import main
from quantrange.errors import AlignmentError, RuinousReturn
from quantrange.indicators import IndicatorConfig
from quantrange.market_data import BAR_DTYPE
from quantrange.models import QuantileForecast, QuantileLevels
from quantrange.strategy import Side, StrategyConfig
from test_acceptance import ACCEPTANCE_CONFIG
from test_golden import BACKTEST_INDICATORS


class TestCumulativeReturn:
    def test_hand_value(self):
        assert cumulative_return([0.1, -0.05]) == pytest.approx(0.045)

    def test_empty_is_zero(self):
        assert cumulative_return([]) == 0.0

    def test_order_invariant(self):
        a = cumulative_return([0.1, -0.05, 0.02])
        b = cumulative_return([0.02, 0.1, -0.05])
        assert a == pytest.approx(b)

    def test_ruin_rejected(self):
        with pytest.raises(RuinousReturn):
            cumulative_return([0.5, -1.0])


class TestDrawdown:
    def test_hand_value(self):
        stats = drawdown([100.0, 110.0, 99.0])
        assert stats.max_drawdown == pytest.approx(0.1, abs=1e-12)

    def test_halving_then_recovery(self):
        stats = drawdown([100.0, 50.0, 100.0])
        assert stats.max_drawdown == pytest.approx(0.5)
        assert stats.drawdown_series[-1] == 0.0

    def test_monotone_rise_has_none(self):
        stats = drawdown([1.0, 2.0, 3.0])
        assert stats.max_drawdown == 0.0
        assert stats.count_over_threshold == 0

    def test_count_over_threshold(self):
        # drops of 0.05% (under) then 2% (over, twice while below peak)
        stats = drawdown([1000.0, 999.5, 1000.0, 980.0, 985.0])
        assert stats.count_over_threshold == 2


class TestScenario:
    def test_matches_published_balances(self):
        assert scenario_test(1_000_000, 0.14316) == pytest.approx(1_143_160)
        assert scenario_test(1_000_000, 0.12254) == pytest.approx(1_122_540)

    def test_rejects_non_positive_funds(self):
        with pytest.raises(ValueError):
            scenario_test(0.0, 0.1)


def bar(t, o, h, l, c):
    return (t, o, h, l, c, 1)


def bar_array(bars):
    return np.rec.array(bars, dtype=BAR_DTYPE)


class TestEquityFromPositions:
    def test_hand_walkthrough_long(self):
        # flat, buy at open 100, hold, force-close at final close 102
        bars = bar_array([
            bar(0, 99, 100, 98, 99),
            bar(30, 100, 101, 99, 101),
            bar(60, 101, 103, 100, 102),
        ])
        curve = equity_from_positions(bars, np.array([0, 1, 1], np.int8), 100.0)
        assert list(curve.equity) == [100.0, 100.0, 101.0, 102.0]
        assert curve.final / curve.initial - 1.0 == pytest.approx(0.02)

    def test_short_gains_when_price_falls(self):
        bars = bar_array([bar(0, 100, 100, 99, 100),
                          bar(30, 100, 100, 95, 96)])
        curve = equity_from_positions(bars, np.array([0, -1], np.int8), 1000.0)
        assert curve.final == pytest.approx(1004.0)  # sold 100, covered 96

    def test_transaction_cost_charged_per_fill(self):
        bars = bar_array([bar(0, 100, 100, 99, 100),
                          bar(30, 100, 101, 99, 100)])
        held = np.array([0, 1], np.int8)
        free = equity_from_positions(bars, held, 1000.0, 0.0)
        costed = equity_from_positions(bars, held, 1000.0, 0.25)
        # entry fill plus the forced close: two fills at 0.25 each
        assert costed.final == pytest.approx(free.final - 0.5)

    def test_flat_sequence_is_constant(self):
        bars = bar_array([bar(30 * i, 100 + i, 101 + i, 99 + i, 100 + i)
                          for i in range(5)])
        curve = equity_from_positions(bars, np.zeros(5, np.int8), 500.0)
        assert np.all(curve.equity == 500.0)
        assert np.all(curve.returns == 0.0)

    def test_alignment(self):
        with pytest.raises(AlignmentError):
            equity_from_positions(bar_array([bar(0, 1, 1, 1, 1)]),
                                  np.zeros(2, np.int8), 1.0)


def trending_bars(n, start=100.0, step=0.0, wiggle=0.5):
    bars = []
    price = start
    for i in range(n):
        o = price
        c = price + step
        bars.append((30.0 * i, o, max(o, c) + wiggle,
                     min(o, c) - wiggle, c, 1))
        price = c
    return bar_array(bars)


def nan_forecast(n):
    return QuantileForecast(np.full((n, 5), np.nan), QuantileLevels())


class TestRunBacktest:
    def test_no_forecast_means_flat(self):
        bars = trending_bars(40)
        result = run_backtest(bars, nan_forecast(40))
        assert result.summary["num_trades"] == 0
        assert result.summary["cumulative_return"] == 0.0
        assert all(s.reason == "no-forecast" for s in result.signals)

    def test_alignment_checked(self):
        with pytest.raises(AlignmentError):
            run_backtest(trending_bars(40), nan_forecast(39))

    def test_buy_dip_round_trip(self):
        # fall far enough to push RSI under 30, with the forecast band
        # above the price so the oversold branch fires
        bars = trending_bars(60, start=200.0, step=-1.0, wiggle=1.5)
        closes = np.array([b.close for b in bars])
        values = np.column_stack([closes + off
                                  for off in (5.0, 6.0, 7.0, 8.0, 9.0)])
        forecast = QuantileForecast(values, QuantileLevels())
        result = run_backtest(bars, forecast,
                              IndicatorConfig(atr_low=0.001, atr_high=0.5))
        assert result.summary["num_trades"] >= 1
        assert result.trades[0].side is Side.LONG
        # a long into a steady decline loses money
        assert result.summary["cumulative_return"] < 0.0
        assert result.summary["final_equity"] < 1_000_000.0

    def test_summary_horizons_compound(self):
        bars = trending_bars(40)
        result = run_backtest(bars, nan_forecast(40),
                              horizons={"day": 10, "week": 50})
        assert result.summary["cumulative_return_day"] == pytest.approx(0.0)
        assert result.summary["cumulative_return_week"] == pytest.approx(0.0)

    def test_drawdown_consistent_with_equity(self):
        bars = trending_bars(60, start=200.0, step=-1.0, wiggle=1.5)
        closes = np.array([b.close for b in bars])
        values = np.column_stack([closes + off
                                  for off in (5.0, 6.0, 7.0, 8.0, 9.0)])
        forecast = QuantileForecast(values, QuantileLevels())
        result = run_backtest(bars, forecast,
                              IndicatorConfig(atr_low=0.001, atr_high=0.5))
        recomputed = drawdown(result.equity_curve.equity)
        assert result.summary["max_drawdown"] == recomputed.max_drawdown


def assert_trades_add_up(result, initial_capital, transaction_cost):
    # every trade pays the cost twice: on its entry fill and its exit fill
    trades = result.trades
    expected = (initial_capital + sum(t.pnl for t in trades)
                - 2 * transaction_cost * len(trades))
    assert result.summary["final_equity"] == pytest.approx(expected, rel=1e-9)


class TestTradeLogMatchesEquity:
    def test_costed_run_ending_in_an_open_position(self):
        bars = trending_bars(60, start=200.0, step=-1.0, wiggle=1.5)
        values = np.column_stack([bars.close + off
                                  for off in (5.0, 6.0, 7.0, 8.0, 9.0)])
        result = run_backtest(bars, QuantileForecast(values, QuantileLevels()),
                              IndicatorConfig(atr_low=0.001, atr_high=0.5),
                              StrategyConfig(transaction_cost=0.25))
        assert result.held[-1] != 0 and len(result.trades) >= 1
        assert result.trades[-1].exit_price == bars.close[-1]
        assert_trades_add_up(result, 1_000_000.0, 0.25)

    def test_golden_trading_backtests(self, tmp_path, monkeypatch):
        # the golden test's run; at least one backtest ends in a position
        results = []

        def recording(*args, **kwargs):
            results.append(run_backtest(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(backtest, "run_backtest", recording)
        out = str(tmp_path / "out")
        config = tmp_path / "run.ini"
        config.write_text(ACCEPTANCE_CONFIG)
        for command in ("synth", "ingest", "compare"):
            assert main([command, "--config", str(config), "--out", out]) == 0
        for kind in ("futurequant", "quantile-linear", "quantile-mlp"):
            config.write_text(
                ACCEPTANCE_CONFIG.replace("[model]\n", f"[model]\nkind = {kind}\n")
                + BACKTEST_INDICATORS)
            assert main(["backtest", "--config", str(config), "--out", out]) == 0
        assert [len(r.trades) for r in results] == [3, 3, 1]
        assert any(r.held[-1] != 0 for r in results)
        for result in results:
            assert_trades_add_up(result, 1_000_000.0, 0.0)
