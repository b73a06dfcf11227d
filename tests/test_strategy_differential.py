"""Differential tests: the decision tree as one mask table and the fold
as one unit array (`quantrange.strategy`) against the scalar tree and the
row-wise fold in `reference_strategy`, on inputs that sit on every
boundary of the tree: NaN and infinite values, RSI exactly 30 or 70, ATR
exactly at either end of its band, and price exactly at the scaled band."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_strategy as ref
from quantrange.config import IndicatorConfig
from quantrange.strategy import TRADE_DTYPE, positions_from_signals, signals

NON_FINITE = [math.nan, math.inf, -math.inf]

configs = st.builds(
    IndicatorConfig,
    atr_low=st.sampled_from([0.002, 0.01]),
    atr_high=st.sampled_from([0.03, 0.05]),
    threshold=st.sampled_from([0.9, 1.0, 1.1]),
)


def either(special, low, high):
    return st.one_of(st.sampled_from(special),
                     st.floats(low, high, allow_nan=False))


@st.composite
def bar_inputs(draw, config):
    lower = draw(either([*NON_FINITE, 100.0], 50.0, 150.0))
    upper = draw(either([*NON_FINITE, lower], lower, lower + 20.0)
                 if math.isfinite(lower) else st.sampled_from(NON_FINITE))
    price = draw(either([math.nan, config.threshold * lower,
                         config.threshold * upper], 40.0, 170.0))
    atr = draw(either([math.nan, config.atr_low, config.atr_high],
                      0.0, 0.06))
    rsi = draw(either([math.nan, 30.0, 70.0, 0.0, 100.0], 0.0, 100.0))
    return price, atr, lower, upper, rsi


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signals_match_the_scalar_tree(data):
    config = data.draw(configs, label="config")
    sell_vs_upper_band = data.draw(st.booleans(), label="sell_vs_upper_band")
    rows = data.draw(st.lists(bar_inputs(config), min_size=1, max_size=200),
                     label="rows")
    got = signals(*map(np.array, zip(*rows)), config, sell_vs_upper_band)
    want = [ref.generate_signal(price, atr, lower, rsi, config, upper,
                                sell_vs_upper_band)
            for price, atr, lower, upper, rsi in rows]
    assert got.reason.tolist() == [s.reason for s in want]
    assert got.kind.tolist() == [ref.KIND_UNITS[s.kind] for s in want]


@settings(max_examples=100, deadline=None)
@given(kinds=st.lists(st.sampled_from([-1, 0, 0, 0, 1]), min_size=1,
                      max_size=200),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fold_matches_the_row_wise_fold(kinds, seed):
    # the fold only moves prices around, so any distinct prices will do
    rng = np.random.default_rng(seed)
    opens, closes = rng.uniform(1.0, 200.0, (2, len(kinds))).tolist()
    held, trades = positions_from_signals(np.array(kinds, dtype=np.int8),
                                          opens, closes)
    by_units = {units: kind for kind, units in ref.KIND_UNITS.items()}
    positions, want = ref.positions_from_signals(
        [ref.Signal(by_units[k], "") for k in kinds], opens, closes)
    assert held.dtype == np.int8
    assert held.tolist() == [p.side for p in positions]
    assert trades.dtype == TRADE_DTYPE
    assert trades.tolist() == want
