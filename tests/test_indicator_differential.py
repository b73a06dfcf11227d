"""The shared Wilder smoother against the per-bar loops in
`reference_indicators`: `rsi` and `atr_percent` must give the same bytes
on every drawn series, including flat, monotone and tied ones, where the
average loss or the true range is exactly zero, and at every period from
1 to one less than the series length. Prices are finite and positive, as
the tick parser guarantees."""

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_indicators as ref
from quantrange.indicators import atr_percent, rsi
from quantrange.market_data import BAR_DTYPE

PRICES = st.floats(1.0, 1000.0)
STEPS = st.floats(0.0, 5.0)


@st.composite
def close_series(draw):
    n = draw(st.integers(2, 60))
    shape = draw(st.sampled_from(["flat", "rising", "falling", "tied",
                                  "free"]))
    if shape == "flat":
        return np.full(n, draw(PRICES))
    if shape == "tied":
        return np.array(draw(st.lists(
            st.sampled_from([99.0, 99.5, 100.0, 100.25]),
            min_size=n, max_size=n)))
    if shape == "free":
        return np.array(draw(st.lists(PRICES, min_size=n, max_size=n)))
    steps = np.array(draw(st.lists(STEPS, min_size=n, max_size=n)))
    sign = 1.0 if shape == "rising" else -1.0
    return 500.0 + sign * np.cumsum(steps)


@st.composite
def series_and_period(draw):
    closes = draw(close_series())
    return closes, draw(st.integers(1, closes.size - 1))


@settings(max_examples=150, deadline=None)
@given(series_and_period())
def test_rsi_matches_the_loop(case):
    closes, period = case
    assert rsi(closes, period).tobytes() == ref.rsi(closes, period).tobytes()


@settings(max_examples=150, deadline=None)
@given(series_and_period(), st.integers(0, 2 ** 32 - 1))
def test_atr_percent_matches_the_loop(case, seed):
    closes, period = case
    n = closes.size
    # wicks above and below each bar's body, zero on about 40 % of bars
    rng = np.random.default_rng(seed)
    up, down = np.where(rng.random((2, n)) < 0.4, 0.0,
                        rng.uniform(0.0, 5.0, (2, n)))
    opens = np.append(closes[:1], closes[:-1])
    bars = np.rec.fromarrays(
        [np.arange(n) * 30.0, opens, np.maximum(opens, closes) + up,
         np.minimum(opens, closes) - down, closes, np.ones(n, dtype=int)],
        dtype=BAR_DTYPE)
    got, want = atr_percent(bars, period), ref.atr_percent(bars, period)
    assert got.tobytes() == want.tobytes()
