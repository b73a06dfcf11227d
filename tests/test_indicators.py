import numpy as np
import pytest

from quantrange.errors import InsufficientData
from quantrange.indicators import (
    IndicatorConfig,
    atr_percent,
    rsi,
    shape_from_quantiles,
    true_range,
)
from quantrange.market_data import BAR_DTYPE

# classic worked example for Wilder RSI: the first smoothed value over
# these closes is 70.53 at index 14
WILDER_CLOSES = [
    44.3389, 44.0902, 44.1497, 43.6124, 44.3278, 44.8264, 45.0955,
    45.4245, 45.8433, 46.0826, 45.8931, 46.0328, 45.6140, 46.2820,
    46.2820, 46.0028, 46.0328, 46.4116, 46.2222, 45.6439, 46.2122,
]


class TestRsi:
    def test_classic_first_value(self):
        out = rsi(WILDER_CLOSES, 14)
        assert out[14] == pytest.approx(70.53, abs=0.05)

    def test_leading_nans(self):
        out = rsi(WILDER_CLOSES, 14)
        assert np.isnan(out[:14]).all()
        assert np.isfinite(out[14:]).all()

    def test_monotone_rise_saturates_at_100(self):
        out = rsi(np.arange(1.0, 20.0), 14)
        assert out[14] == 100.0

    def test_monotone_fall_pins_at_zero(self):
        out = rsi(np.arange(20.0, 1.0, -1.0), 14)
        assert out[14] == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        closes = 100.0 + np.cumsum(rng.standard_normal(80))
        out = rsi(closes, 14)
        vals = out[~np.isnan(out)]
        assert ((0.0 <= vals) & (vals <= 100.0)).all()

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            rsi([1.0, 2.0], 14)


def bar_array(bars):
    return np.rec.array(bars, dtype=BAR_DTYPE)


def flat_bar(t, price, spread=0.0):
    return (t, price, price + spread, price - spread, price, 1)


class TestAtr:
    def test_true_range_gap_case(self):
        # previous close 10, bar range [12, 12.5]: TR is the 2.5 gap distance
        bars = bar_array([(0, 10, 10, 10, 10, 1),
                          (30, 12, 12.5, 12.0, 12.2, 1)])
        tr = true_range(bars)
        assert np.isnan(tr[0])
        assert tr[1] == pytest.approx(2.5)

    def test_constant_prices_zero_atr(self):
        bars = bar_array([flat_bar(30.0 * i, 50.0) for i in range(20)])
        out = atr_percent(bars, 14)
        assert out[14] == 0.0

    def test_constant_range_fraction(self):
        # each bar spans high-low = 2 around price 100, so ATR/close = 0.02
        bars = bar_array([flat_bar(30.0 * i, 100.0, spread=1.0)
                          for i in range(20)])
        out = atr_percent(bars, 14)
        assert out[14] == pytest.approx(0.02)
        assert out[19] == pytest.approx(0.02)

    def test_price_scale_invariance(self):
        rng = np.random.default_rng(1)
        prices = 100.0 + np.cumsum(rng.standard_normal(30))
        bars = bar_array([(30.0 * i, p, p + 0.5, p - 0.5, p, 1)
                          for i, p in enumerate(prices)])
        scaled = bar_array([(b.open_time, 10 * b.open, 10 * b.high,
                             10 * b.low, 10 * b.close, b.volume_delta)
                            for b in bars])
        a, b = atr_percent(bars, 14), atr_percent(scaled, 14)
        assert np.allclose(a[14:], b[14:])

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            atr_percent(bar_array([flat_bar(0, 1.0)] * 5), 14)


class TestShapeFit:
    def normal_quantiles(self, mu, sigma, skew=0.0, kurt=0.0):
        from statistics import NormalDist
        z = np.array([NormalDist().inv_cdf(p)
                      for p in (0.05, 0.10, 0.50, 0.90, 0.95)])
        return mu + sigma * (z + (z ** 2 - 1) * skew / 6
                             + (z ** 3 - 3 * z) * kurt / 24)

    def test_recovers_normal(self):
        est = shape_from_quantiles(self.normal_quantiles(3.0, 2.0))
        assert est.mean == pytest.approx(3.0)
        assert est.std_dev == pytest.approx(2.0)
        assert est.skewness == pytest.approx(0.0, abs=1e-9)
        assert est.excess_kurtosis == pytest.approx(0.0, abs=1e-9)

    def test_recovers_planted_shape(self):
        row = self.normal_quantiles(0.0, 1.0, skew=0.6, kurt=0.9)
        est = shape_from_quantiles(np.sort(row))
        assert est.skewness == pytest.approx(0.6, abs=1e-6)
        assert est.excess_kurtosis == pytest.approx(0.9, abs=1e-6)

    def test_reflection_flips_skew(self):
        row = np.sort(self.normal_quantiles(0.0, 1.0, skew=0.6))
        a = shape_from_quantiles(row)
        b = shape_from_quantiles(np.sort(-row))
        assert b.skewness == pytest.approx(-a.skewness)
        assert b.std_dev == pytest.approx(a.std_dev)

    def test_scale_invariant_shape(self):
        row = np.sort(self.normal_quantiles(1.0, 2.0, skew=0.4, kurt=0.5))
        a = shape_from_quantiles(row)
        b = shape_from_quantiles(5.0 * row)
        assert b.skewness == pytest.approx(a.skewness)
        assert b.excess_kurtosis == pytest.approx(a.excess_kurtosis)
        assert b.std_dev == pytest.approx(5.0 * a.std_dev)

    def test_degenerate_row(self):
        est = shape_from_quantiles(np.full(5, 7.0))
        assert est.mean == pytest.approx(7.0)
        assert (est.std_dev, est.skewness, est.excess_kurtosis) == (0, 0, 0)

    def test_crossed_row_rejected(self):
        with pytest.raises(ValueError):
            shape_from_quantiles([1.0, 0.5, 2.0, 3.0, 4.0])


class TestIndicatorConfig:
    def test_bad_band(self):
        with pytest.raises(ValueError):
            IndicatorConfig(atr_low=0.05, atr_high=0.01)

    def test_bad_period(self):
        with pytest.raises(ValueError):
            IndicatorConfig(rsi_period=0)
