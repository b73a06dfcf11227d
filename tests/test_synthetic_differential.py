"""The column renderer and the Python-float generator of
`quantrange.synthetic` against the per-tick reference: every drawn price
path must render to the same text, and every drawn spec must step to the
same float64 bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_synthetic as ref
from quantrange.config import SYNTHETIC_KINDS as KINDS
from quantrange.config import SyntheticSpec
from quantrange.synthetic import generate, to_tick_text

# exact ties of %.6f: k/128 has seven or more decimals and ends in 5
TIES = st.integers(0, 2 ** 14).map(lambda k: k / 128) | st.integers(
    -12800, 12800).map(lambda k: 100 + k / 128)
# one ulp either side of a tie of the sixth decimal
NEAR_TIES = st.builds(
    lambda x, side: float(np.nextafter(round(x, 6) + 5e-7, side)),
    st.floats(0, 1e6), st.sampled_from([math.inf, -math.inf]))
EDGES = st.sampled_from([
    127.9999996, 9.9999995, 999999.9999995, 0.0, -0.0, 1e-7, 4.5e9,
    2 ** 52 / 1e6, 1e20, 1e300, math.nan, math.inf, -math.inf])
PRICES = st.one_of(
    TIES, NEAR_TIES, EDGES,
    st.floats(0, 0.5, exclude_min=True),        # the bid is negative
    st.floats(0, 1e4), st.floats(4.5e9, 1e12), st.floats())


@settings(max_examples=200, deadline=None)
@given(st.lists(PRICES, max_size=30))
def test_rendering_is_byte_equal(values):
    prices = np.array(values, dtype=float)
    assert to_tick_text(prices) == ref.to_tick_text(prices)


@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_short_paths(length):
    prices = np.array([100.0078125, 0.25, 9.9999995][:length])
    assert to_tick_text(prices) == ref.to_tick_text(prices)


def test_block_boundary():
    # 65536 rows make a block; ties, near-ties and a negative bid sit
    # either side of the first boundary
    rng = np.random.default_rng(0)
    prices = 100.0 + rng.standard_normal(65537)
    prices[65532:] = [100.0078125, 0.25, 9.9999995, 127.9999996, 0.5]
    lines = ref.to_tick_text(prices).splitlines(keepends=True)
    for length in (65535, 65536, 65537):
        assert to_tick_text(prices[:length]) == "".join(lines[:length + 1])


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), phi=st.floats(-0.99, 0.99),
       sigma0=st.floats(1e-3, 10.0), k=st.floats(0.0, 2.0),
       shift=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1),
       length=st.integers(2, 400))
def test_generate_is_bit_equal(kind, phi, sigma0, k, shift, seed, length):
    spec = SyntheticSpec(kind=kind, length=length, seed=seed, phi=phi,
                         sigma0=sigma0, vol_sensitivity=k,
                         regime_shift=shift)
    prices, _ = generate(spec)
    with np.errstate(all="ignore"):     # a heteroscedastic path overflows
        expected = ref.generate_prices(spec)
    assert prices.tobytes() == expected.tobytes()
