import numpy as np
import pytest

from quantrange.errors import MissingLevel
from quantrange.models import (
    QuantileForecast,
    QuantileLevels,
    interval_bounds,
    pinball_loss,
    repair_monotonic,
)


class TestPinballLoss:
    def test_under_prediction(self):
        assert pinball_loss(10.0, 12.0, 0.9) == pytest.approx(1.8)

    def test_over_prediction(self):
        assert pinball_loss(10.0, 8.0, 0.9) == pytest.approx(0.2)

    def test_exact_hit_is_zero(self):
        for beta in (0.05, 0.5, 0.95):
            assert pinball_loss(7.0, 7.0, beta) == 0.0

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            pinball_loss(1.0, 1.0, 1.5)


class TestQuantileLevels:
    def test_default(self):
        assert QuantileLevels().levels == (0.05, 0.10, 0.50, 0.90, 0.95)

    def test_must_increase(self):
        with pytest.raises(ValueError):
            QuantileLevels((0.5, 0.5))

    def test_must_be_probabilities(self):
        with pytest.raises(ValueError):
            QuantileLevels((0.0, 0.5))


class TestRepairMonotonic:
    def test_sorts_crossed_row(self):
        f = QuantileForecast(np.array([[5.0, 4.0, 6.0, 7.0, 8.0]]),
                             QuantileLevels())
        out = repair_monotonic(f)
        assert list(out.values[0]) == [4.0, 5.0, 6.0, 7.0, 8.0]

    def test_monotone_row_unchanged(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        out = repair_monotonic(QuantileForecast(values, QuantileLevels()))
        assert np.array_equal(out.values, values)

    def test_ties_unchanged(self):
        values = np.full((1, 5), 3.0)
        out = repair_monotonic(QuantileForecast(values, QuantileLevels()))
        assert np.array_equal(out.values, values)

    def test_idempotent_and_multiset_preserving(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((20, 5))
        f = QuantileForecast(values, QuantileLevels())
        once = repair_monotonic(f)
        twice = repair_monotonic(once)
        assert np.array_equal(once.values, twice.values)
        for raw, fixed in zip(values, once.values):
            assert sorted(raw) == list(fixed)


class TestPredictIntervals:
    def test_default_beta_uses_outer_levels(self):
        f = QuantileForecast(np.array([[9.0, 9.5, 10.0, 10.5, 11.0]]),
                             QuantileLevels())
        (lower,), (upper,) = interval_bounds(f, beta=0.1)
        assert (lower, upper) == (9.0, 11.0)

    def test_beta_02_uses_inner_levels(self):
        f = QuantileForecast(np.array([[9.0, 9.5, 10.0, 10.5, 11.0]]),
                             QuantileLevels())
        (lower,), (upper,) = interval_bounds(f, beta=0.2)
        assert (lower, upper) == (9.5, 10.5)

    def test_missing_level(self):
        f = QuantileForecast(np.zeros((1, 5)), QuantileLevels())
        with pytest.raises(MissingLevel):
            interval_bounds(f, beta=0.5)

    def test_repairs_before_extracting(self):
        f = QuantileForecast(np.array([[11.0, 9.5, 10.0, 10.5, 9.0]]),
                             QuantileLevels())
        (lower,), (upper,) = interval_bounds(f, beta=0.1)
        assert (lower, upper) == (9.0, 11.0)
