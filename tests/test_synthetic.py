import numpy as np
import pytest

from quantrange.config import DEFAULT_LEVELS, SyntheticSpec
from quantrange.errors import InvalidSpec
from quantrange.market_data import parse_ticks
from quantrange.synthetic import generate, oracle_forecast, to_tick_text


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(kind="brownian")

    def test_explosive_ar_rejected(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(phi=1.0)

    def test_bad_sigma(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(sigma0=0.0)


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(kind="heteroscedastic-ar1", length=200, seed=5)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a, b)

    def test_seed_changes_path(self):
        a, _ = generate(SyntheticSpec(length=200, seed=0))
        b, _ = generate(SyntheticSpec(length=200, seed=1))
        assert not np.array_equal(a, b)

    def test_starts_at_base_price(self):
        prices, _ = generate(SyntheticSpec(length=10, base_price=250.0))
        assert prices[0] == 250.0

    @pytest.mark.parametrize(
        "kind", ["gaussian-ar1", "heteroscedastic-ar1", "regime-switch"])
    def test_oracle_median_is_conditional_mean_shift(self, kind):
        spec = SyntheticSpec(kind=kind, length=50, seed=2)
        prices, oracle = generate(spec)
        for p in (spec.base_price - 2.0, spec.base_price + 3.0):
            med = oracle(p, 0.5)
            lo = oracle(p, 0.05)
            hi = oracle(p, 0.95)
            assert lo < med < hi
            assert med == pytest.approx((lo + hi) / 2.0)

    @pytest.mark.parametrize(
        "kind", ["gaussian-ar1", "heteroscedastic-ar1", "regime-switch"])
    def test_monte_carlo_coverage(self, kind):
        # realized next prices should land in the oracle's 90% interval at
        # the nominal rate, within 3 binomial standard deviations
        spec = SyntheticSpec(kind=kind, length=10_000, seed=3)
        prices, oracle = generate(spec)
        lo = np.array([oracle(p, 0.05) for p in prices[:-1]])
        hi = np.array([oracle(p, 0.95) for p in prices[:-1]])
        hits = np.mean((lo <= prices[1:]) & (prices[1:] <= hi))
        n = len(prices) - 1
        tol = 3.0 * np.sqrt(0.9 * 0.1 / n)
        assert abs(hits - 0.9) <= tol

    def test_oracle_quantiles_monotone(self):
        spec = SyntheticSpec(kind="heteroscedastic-ar1", length=30, seed=4)
        prices, oracle = generate(spec)
        rows = oracle_forecast(prices, oracle, DEFAULT_LEVELS)
        assert rows.shape == (29, 5)
        assert (np.diff(rows, axis=1) > 0).all()


class TestTickRendering:
    def test_round_trips_through_parser(self):
        prices, _ = generate(SyntheticSpec(length=50, seed=6))
        result = parse_ticks(to_tick_text(prices))
        assert len(result.records) == 50
        got = np.array([r.last_price for r in result.records])
        assert np.allclose(got, prices, atol=1e-6)

    def test_volume_is_cumulative(self):
        prices, _ = generate(SyntheticSpec(length=10, seed=7))
        records = parse_ticks(to_tick_text(prices)).records
        vols = [r.volume for r in records]
        assert vols == list(range(1, 11))
