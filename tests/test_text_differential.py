"""The byte-table renderers of `quantrange.text` against Python's own
formatting: each rendered cell must equal `repr(float(v))`, `"%.6f" % v`
or `str(n)`, on both sides of repr_field's fast path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantrange.text import digits, fixed6_field, repr_field


def from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def ulps(x: float, k: int) -> float:
    """x moved k doubles up (k < 0: down); x > 0."""
    return float(np.array(np.float64(x).view(np.int64) + k).view(np.float64))


# a decimal text of 0-9 places read as a double, at 1e-7 to 1e12
DECIMALS = st.builds(
    lambda sign, mantissa, exponent, places:
        float(f"{sign * mantissa * 10.0 ** exponent:.{places}f}"),
    st.sampled_from([1, 1, 1, -1]), st.floats(1, 10, exclude_max=True),
    st.integers(-7, 12), st.integers(0, 9))
# the fast path's bounds, a few doubles either side, six-decimal values
# either side of 1e-4, below which repr has an exponent, and six-decimal
# texts near 2**33, where a spacing of a double passes 1e-6
EDGES = st.one_of(
    st.builds(ulps, st.sampled_from([1e-4, 2.0 ** 33]), st.integers(-64, 64)),
    st.integers(1, 10 ** 3).map(lambda k: k / 1e6),
    st.integers(-10 ** 5, 10 ** 5).map(
        lambda k: float(f"{2 ** 33 + k / 1e6:.6f}")),
    st.integers(-10 ** 4, 10 ** 4).map(
        lambda k: float(f"{1e-4 + k / 1e9:.9f}")))
SPECIALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, 2.2250738585072009e-308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.integers(0, 2 ** 64 - 1).map(from_bits))
VALUES = st.lists(st.one_of(DECIMALS, EDGES, SPECIALS), min_size=1,
                  max_size=40)


def cells(field: np.ndarray) -> list[str]:
    """Each row of a 0-padded field as text."""
    return [row[row != 0].tobytes().decode("ascii") for row in field]


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_repr_field_is_repr(values):
    assert cells(repr_field(np.array(values))) == [repr(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_fixed6_field_is_percent_f(values):
    assert cells(fixed6_field(np.array(values))) == ["%.6f" % v
                                                     for v in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=40),
       st.integers(1, 8))
def test_digits_are_str(values, keep):
    assert cells(digits(np.array(values, dtype=np.int64), keep)) == [
        str(n).zfill(keep) for n in values]


# either side of each edge of a group of four digits, to the largest int64
GROUP_EDGES = [0, 9, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8, 10 ** 12,
               2 ** 63 - 1]


@pytest.mark.parametrize("keep", [1, 7])
@pytest.mark.parametrize("top", GROUP_EDGES)
def test_digits_at_group_edges(top, keep):
    # `top` is the column's largest value, so it sets the number of groups,
    # and every smaller edge below it leaves groups above its own blank
    values = [n for n in GROUP_EDGES if n <= top]
    assert cells(digits(np.array(values, dtype=np.int64), keep)) == [
        str(n).zfill(keep) for n in values]
