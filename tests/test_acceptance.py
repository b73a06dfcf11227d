"""Release acceptance gate.

Each test covers one numbered criterion and prints a single pass line so
the gate's status can be read off a captured log (run with -s to see the
lines as they happen).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from quantrange import interval_metrics as im
from quantrange import market_data as md
from quantrange.backtest import cumulative_return, drawdown
from quantrange.cli import main
from quantrange.config import (
    LinearSpec,
    MetricConfig,
    ModelSpec,
    QuantileLevels,
    SyntheticSpec,
    TrainConfig,
)
from quantrange.indicators import shape_from_quantiles
from quantrange.interval_metrics import crossing_rate, cwc
from quantrange.models.forecast import (
    QuantileForecast,
    repair_monotonic,
)
from quantrange.models.layers import Workspace, softmax
from quantrange.models.network import forward, init_params, zero_params
from quantrange.models.training import train
from quantrange.synthetic import generate, oracle_forecast
from reference_backtest import scenario_test
from reference_network import encoder_block, gradient_check
from reference_strategy import SignalKind, bar_signal


def report(num, name):
    print(f"criterion {num} ({name}): PASS")


def test_c01_metric_oracle_equivalence():
    rng = np.random.default_rng(0)
    start = time.time()
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        y = rng.uniform(-50.0, 50.0, n)
        mid = rng.uniform(-50.0, 50.0, n)
        half = rng.uniform(0.0, 10.0, n)
        intervals = np.stack([mid - half, mid + half], axis=1)
        hits = sum(1 for yi, (lo, hi) in zip(y, intervals) if lo <= yi <= hi)
        assert im.picp(y, intervals) == hits / n
        if y.max() - y.min() > 0:
            widths = [hi - lo for lo, hi in intervals]
            expected = (sum(widths) / n) / (y.max() - y.min())
            got = im.pinaw(y, intervals)
            assert abs(got - expected) <= 1e-12 * max(abs(expected), 1.0)
    assert time.time() - start < 1.0
    report(1, "picp/pinaw brute-force equivalence")


def test_c02_cwc_spot_values():
    as_printed = MetricConfig(beta=0.1, eta=30.0, cwc_variant="as-printed")
    assert cwc(0.81, 0.2, as_printed) == pytest.approx(0.8, abs=1e-12)
    expected = 0.8 * math.exp(-30.0 * (0.91 - 0.81))
    assert cwc(0.91, 0.2, as_printed) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.03983, abs=5e-6)
    squared = MetricConfig(beta=0.1, eta=30.0, cwc_variant="squared-deviation")
    assert cwc(0.90, 0.2, squared) == pytest.approx(0.8, abs=1e-12)
    report(2, "cwc spot values, both variants")


def test_c03_gradient_fidelity():
    start = time.time()
    spec = ModelSpec(num_blocks=2, num_heads=2, dropout_rate=0.0)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        params = init_params(spec, rng)
        x = rng.uniform(0, 1, (8, 5, 1))
        y = rng.uniform(0, 1, 8)
        result = gradient_check(spec, params, x, y, num_params=200, seed=seed)
        assert result.checked + result.skipped_kinks == 200
        assert result.max_rel_error <= 1e-4, f"seed {seed}"
    assert time.time() - start < 30.0
    report(3, "gradient fidelity, 3 seeds")


def test_c04_pinball_optimum_oracle():
    start = time.time()
    rng = np.random.default_rng(42)
    y = rng.normal(0.0, 10.0, 1000)
    levels = (0.1, 0.5, 0.9)
    spec = LinearSpec(num_inputs=0, levels=QuantileLevels(levels))
    params, _ = train(
        spec, np.zeros((1000, 0)), y,
        TrainConfig(learning_rate=2.0, epochs=6000, seed=0, batch_size=None),
    )
    sorted_y = np.sort(y)
    gaps = np.diff(sorted_y)
    for j, level in enumerate(levels):
        empirical = np.quantile(y, level)
        k = int(round(level * (len(y) - 1)))
        gap = gaps[max(k - 2, 0):k + 2].max()
        assert abs(params["b"][j] - empirical) <= gap, level
    assert time.time() - start < 10.0
    report(4, "intercept-only pinball optimum")


@pytest.mark.slow
def test_c05_coverage_calibration():
    start = time.time()
    levels = (0.05, 0.10, 0.50, 0.90, 0.95)
    synth = SyntheticSpec(kind="heteroscedastic-ar1", length=5000, seed=7)
    prices, oracle = generate(synth)
    n = len(prices)
    n_train, n_val = int(n * 0.7), int(n * 0.15)
    train_p = prices[:n_train]
    test_p = prices[n_train + n_val:]

    def windows(p, t=5):
        count = len(p) - t
        x = np.stack([p[i:i + t] for i in range(count)])[:, :, None]
        return x, p[t:]

    norm = md.fit_minmax(train_p)
    x_train, y_train = windows(md.apply_minmax(train_p, norm))
    x_test, y_test = windows(md.apply_minmax(test_p, norm))
    scale = float(norm.x_max[0] - norm.x_min[0])
    offset = float(norm.x_min[0])
    actual = y_test * scale + offset

    spec = ModelSpec(num_blocks=2, dropout_rate=0.0)
    params, _ = train(spec, x_train, y_train,
                      TrainConfig(learning_rate=2e-3, epochs=200,
                                  batch_size=64, seed=0, lr_decay=0.99))
    raw = forward(spec, params, x_test)
    in_prices = QuantileForecast(raw.values * scale + offset, raw.levels)
    rep = im.evaluate(actual, in_prices)
    assert 0.85 <= rep.picp <= 0.95, rep.picp

    oracle_rows = oracle_forecast(test_p, oracle, levels)[4:]
    oracle_loss = np.mean([
        np.mean(np.where(oracle_rows[:, j] >= actual,
                         (1 - b) * (oracle_rows[:, j] - actual),
                         b * (actual - oracle_rows[:, j])))
        for j, b in enumerate(levels)
    ])
    model_loss = np.mean([rep.mean_pinball[b] for b in levels])
    assert model_loss <= 1.15 * oracle_loss, model_loss / oracle_loss
    assert time.time() - start < 300.0
    report(5, "synthetic coverage calibration")


def test_c06_shape_and_identity_checks():
    spec = ModelSpec(num_blocks=2)
    rng = np.random.default_rng(3)
    params = init_params(spec, rng)
    out = forward(spec, params, rng.uniform(0, 1, (11, 5, 1)))
    assert out.values.shape == (11, 5)

    block_spec = ModelSpec(num_blocks=1)
    x = rng.standard_normal((5, block_spec.model_dim))
    assert np.array_equal(encoder_block(x, zero_params(block_spec),
                                        block_spec, 0), x)

    probs = softmax(rng.standard_normal((40, 9)), Workspace())
    assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-12

    raw = QuantileForecast(rng.standard_normal((200, 5)), QuantileLevels())
    repaired = repair_monotonic(raw)
    assert crossing_rate(repaired) == 0.0
    assert np.array_equal(repair_monotonic(repaired).values, repaired.values)
    report(6, "shape and identity checks")


def test_c07_decision_table():
    lower_band = 100.0
    counts = {SignalKind.BUY: 0, SignalKind.SELL: 0, SignalKind.NONE: 0}
    for rsi in (25.0, 50.0, 75.0):
        for atr in (0.005, 0.02, 0.035):
            for below in (True, False):
                price = 95.0 if below else 105.0
                got = bar_signal(price=price, atr_pct=atr,
                                 lower_band=lower_band, rsi=rsi).kind
                # independent restatement of the printed decision tree
                atr_ok = 0.01 <= atr < 0.03
                if rsi < 30.0 and price < lower_band and atr_ok:
                    want = SignalKind.BUY
                elif rsi > 70.0 and price > lower_band and atr_ok:
                    want = SignalKind.SELL
                else:
                    want = SignalKind.NONE
                assert got is want, (rsi, atr, below)
                counts[got] += 1
    assert counts == {SignalKind.BUY: 1, SignalKind.SELL: 1,
                      SignalKind.NONE: 16}
    report(7, "signal decision table, 18 combinations")


def test_c08_backtest_arithmetic():
    # exact up to float64 rounding of the product (1.1 * 0.95 - 1)
    assert cumulative_return([0.1, -0.05]) == 1.1 * 0.95 - 1.0
    assert cumulative_return([0.1, -0.05]) == pytest.approx(0.045, abs=1e-15)
    assert scenario_test(1_000_000, 0.14316) == pytest.approx(1_143_160)
    assert scenario_test(1_000_000, 0.12254) == pytest.approx(1_122_540)
    stats = drawdown([100.0, 110.0, 99.0])
    assert abs(stats.max_drawdown - 0.1) <= 1e-12
    report(8, "backtest arithmetic")


def test_c09_moment_fit_oracle():
    from statistics import NormalDist
    z = np.array([NormalDist().inv_cdf(p)
                  for p in (0.05, 0.10, 0.50, 0.90, 0.95)])
    est = shape_from_quantiles(3.0 + 2.0 * z)
    assert est.mean == pytest.approx(3.0, abs=1e-6)
    assert est.std_dev == pytest.approx(2.0, abs=1e-6)
    assert est.skewness == pytest.approx(0.0, abs=1e-6)
    assert est.excess_kurtosis == pytest.approx(0.0, abs=1e-6)

    skewed = np.sort(2.0 * (z + (z ** 2 - 1) * 0.5 / 6))
    a = shape_from_quantiles(skewed)
    b = shape_from_quantiles(np.sort(-skewed))
    assert b.skewness == pytest.approx(-a.skewness)
    report(9, "quantile moment fit oracle")


ACCEPTANCE_CONFIG = """\
[run]
seed = 11

[data]
source = synthetic
window_in = 5

[synthetic]
kind = gaussian-ar1
length = 15000
phi = 0.9

[model]
num_blocks = 1
dropout_rate = 0.0

[train]
learning_rate = 0.002
epochs = 2
batch_size = 32
"""


def test_c10_end_to_end_determinism(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(ACCEPTANCE_CONFIG)
    outputs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        for command in ("synth", "ingest", "compare"):
            assert main([command, "--config", str(config), "--out", out]) == 0
        outputs.append(out)
    names = ["compare.tsv"] + [
        f"metrics-{kind}.txt"
        for kind in ("futurequant", "quantile-linear", "quantile-mlp")
    ]
    for name in names:
        a = Path(outputs[0], name).read_bytes()
        b = Path(outputs[1], name).read_bytes()
        assert a == b, name
    report(10, "end-to-end compare determinism")
