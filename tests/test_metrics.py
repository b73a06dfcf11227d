import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantrange.config import LinearSpec, MetricConfig, QuantileLevels
from quantrange.errors import LengthMismatch, ZeroRange
from quantrange.interval_metrics import (
    comparison_row,
    crossing_rate,
    cwc,
    evaluate,
    picp,
    pinaw,
)
from quantrange.models.forecast import (
    QuantileForecast,
    repair_monotonic,
)
from quantrange.models.losses import mean_pinball
from quantrange.models.layers import Workspace
from quantrange.models.network import init_params, loss_and_grads, loss_value


def intervals(*pairs):
    return [tuple(p) for p in pairs]


class TestPicp:
    def test_half_covered(self):
        y = [1.0, 5.0, 10.0, 20.0]
        ivs = intervals((0, 2), (6, 7), (9, 11), (21, 22))
        assert picp(y, ivs) == 0.5

    def test_boundary_counts_as_covered(self):
        assert picp([3.0, 4.0], intervals((3, 4), (3, 4))) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            picp([1.0], intervals((0, 2), (0, 2)))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_bounded_in_unit_interval(self, ys):
        ivs = intervals(*[(-1.0, 1.0)] * len(ys))
        assert 0.0 <= picp(ys, ivs) <= 1.0


class TestPinaw:
    def test_hand_value(self):
        # widths 2 and 4 average to 3; actuals span 10
        y = [0.0, 10.0]
        assert pinaw(y, intervals((0, 2), (1, 5))) == pytest.approx(0.3)

    def test_zero_range_rejected(self):
        with pytest.raises(ZeroRange):
            pinaw([5.0, 5.0], intervals((4, 6), (4, 6)))

    def test_scale_invariance(self):
        y = np.array([1.0, 3.0, 9.0])
        ivs = np.array([(0.5, 2.0), (2.5, 4.0), (8.0, 10.0)])
        a = pinaw(y, ivs)
        b = pinaw(7.0 * y, 7.0 * ivs)
        assert a == pytest.approx(b)


class TestCwc:
    def test_as_printed_hand_value(self):
        cfg = MetricConfig(beta=0.1, eta=30.0, cwc_variant="as-printed")
        expected = (1.0 - 0.2) * math.exp(-30.0 * (0.92 - 0.81))
        assert cwc(0.92, 0.2, cfg) == pytest.approx(expected)

    def test_squared_deviation_hand_value(self):
        cfg = MetricConfig(cwc_variant="squared-deviation")
        expected = (1.0 - 0.2) * math.exp(-30.0 * (0.92 - 0.9) ** 2)
        assert cwc(0.92, 0.2, cfg) == pytest.approx(expected)

    def test_squared_deviation_peaks_at_nominal_coverage(self):
        cfg = MetricConfig(cwc_variant="squared-deviation")
        at_nominal = cwc(0.9, 0.3, cfg)
        assert at_nominal == pytest.approx(0.7)
        assert cwc(0.85, 0.3, cfg) < at_nominal
        assert cwc(0.95, 0.3, cfg) < at_nominal

    def test_penalty_beyond_float64_is_infinite(self):
        # [metrics] eta = 1e300 raised numpy's overflow warning in eval
        cfg = MetricConfig(eta=1e300)
        assert cwc(0.5, 0.93, cfg) == math.inf
        assert cwc(0.5, 1.5, cfg) == -math.inf

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            MetricConfig(cwc_variant="exponential")


class TestCrossingRate:
    def test_counts_crossed_rows(self):
        values = np.array([
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [1.0, 0.5, 3.0, 4.0, 5.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
            [5.0, 4.0, 3.0, 2.0, 1.0],
        ])
        f = QuantileForecast(values, QuantileLevels())
        assert crossing_rate(f) == 0.5

    def test_zero_after_repair(self):
        rng = np.random.default_rng(0)
        f = QuantileForecast(rng.standard_normal((50, 5)), QuantileLevels())
        assert crossing_rate(repair_monotonic(f)) == 0.0


class TestEvaluate:
    def make_forecast(self, n, seed=0):
        rng = np.random.default_rng(seed)
        mid = rng.uniform(0, 1, (n, 1))
        offsets = np.array([-0.3, -0.15, 0.0, 0.15, 0.3])
        return QuantileForecast(mid + offsets, QuantileLevels())

    def test_matches_brute_force(self):
        n = 40
        f = self.make_forecast(n)
        rng = np.random.default_rng(1)
        y = rng.uniform(0, 1, n)
        report = evaluate(y, f, MetricConfig())
        lower = f.values[:, 0]
        upper = f.values[:, 4]
        covered = np.mean((lower <= y) & (y <= upper))
        assert report.picp == pytest.approx(covered)
        width = np.mean(upper - lower) / (y.max() - y.min())
        assert report.pinaw == pytest.approx(width)
        assert report.n == n
        assert set(report.mean_pinball) == {0.05, 0.10, 0.50, 0.90, 0.95}

    def test_cwc_consistent_with_parts(self):
        f = self.make_forecast(25, seed=2)
        y = np.random.default_rng(3).uniform(0, 1, 25)
        cfg = MetricConfig(cwc_variant="squared-deviation")
        report = evaluate(y, f, cfg)
        assert report.cwc == pytest.approx(cwc(report.picp, report.pinaw, cfg))

    def test_shift_invariance_of_picp(self):
        f = self.make_forecast(30, seed=4)
        y = np.random.default_rng(5).uniform(0, 1, 30)
        shifted = QuantileForecast(f.values + 100.0, f.levels)
        a = evaluate(y, f).picp
        b = evaluate(y + 100.0, shifted).picp
        assert a == pytest.approx(b)

    def test_text_rendering_round_trips(self):
        f = self.make_forecast(10, seed=6)
        y = np.random.default_rng(7).uniform(0, 1, 10)
        report = evaluate(y, f)
        text = report.to_text()
        for line in text.strip().splitlines():
            key, value = line.split(" = ")
            if key in ("picp", "pinaw", "cwc"):
                assert float(value) == getattr(report, key)


def test_comparison_row_format():
    f = QuantileForecast(
        np.tile([0.0, 0.25, 0.5, 0.75, 1.0], (4, 1)), QuantileLevels()
    )
    report = evaluate([0.1, 0.4, 0.6, 0.9], f)
    row = comparison_row("baseline", report)
    name, p, c = row.split("\t")
    assert name == "baseline"
    assert float(p) == report.picp
    assert float(c) == report.cwc


def _column_cases():
    """(name, function of the actuals) for each public function that takes
    actuals, on one set of 50 rows."""
    rng = np.random.default_rng(8)
    values = np.sort(rng.uniform(0, 1, (50, 5)), axis=1)
    forecast = QuantileForecast(values, QuantileLevels())
    ivs = values[:, [0, -1]]
    spec = LinearSpec(num_inputs=5)
    params = init_params(spec, rng)
    x = rng.uniform(0, 1, (50, 5, 1))

    def step(y):
        value, grads = loss_and_grads(spec, params, x, y, None, Workspace())
        return value, [g.tobytes() for g in grads.values()]

    return {
        "picp": lambda y: picp(y, ivs),
        "pinaw": lambda y: pinaw(y, ivs),
        "evaluate": lambda y: evaluate(y, forecast).to_text(),
        "mean_pinball": lambda y: mean_pinball(values, y,
                                               QuantileLevels().levels),
        "loss_value": lambda y: loss_value(spec, params, x, y),
        "loss_and_grads": step,
    }


# (N, 1) actuals broadcast against (N,) arrays: picp read 0.677 against
# 0.780, the pinball loss became an (N, N) mean, and loss_and_grads raised
# numpy's ValueError
@pytest.mark.parametrize("name", sorted(_column_cases()))
def test_column_actuals_score_as_flat_ones(name):
    y = np.random.default_rng(9).uniform(0, 1, 50)
    score = _column_cases()[name]
    assert repr(score(y[:, None])) == repr(score(y))


def test_mean_pinball_rejects_a_target_count_mismatch():
    with pytest.raises(LengthMismatch):
        mean_pinball(np.zeros((3, 2)), np.zeros(4), (0.25, 0.75))


def test_loss_and_grads_rejects_a_target_count_mismatch():
    spec = LinearSpec(num_inputs=5)
    params = init_params(spec, np.random.default_rng(8))
    with pytest.raises(LengthMismatch, match="49 targets vs 50 predictions"):
        loss_and_grads(spec, params, np.zeros((50, 5, 1)), np.zeros(49),
                       None, Workspace())
