"""The columnar `parse_ticks`/`resample` against the row-wise reference:
every drawn tick stream must give bit-identical tick and bar arrays, or
the same exception type, message and line number."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_market_data as ref
from quantrange.errors import NonMonotoneTimestamp, QuantRangeError
from quantrange.market_data import TICK_FIELDS, parse_ticks, resample

# cells the row parser reads differently from a well-formed number, or
# not at all; "1_0" and "٣" parse in Python but not in numpy, and the long
# number is cut short where np.loadtxt reads UpdateTime as bytes
BAD_CELLS = ["x", "", "1.5", "1e3", "1_0", "٣", " 7 ", "-0", "nan", "inf",
             "-inf", "NaN", "Infinity",
             "1:2", "12:00:00.5", "9:30", "+4", "0x1", "1,5",
             "1" + "0" * 25 + ".5"]


def outcome(fn):
    try:
        return "ok", fn()
    except QuantRangeError as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line_number", None))


@st.composite
def tick_streams(draw):
    order = draw(st.permutations(TICK_FIELDS))
    extra = draw(st.booleans())
    header = list(order) + (["Exchange"] if extra else [])
    delimiter = draw(st.sampled_from([",", ",", ";", "\t"]))
    clock = draw(st.sampled_from(["hms", "hms", "short-hms", "seconds",
                                  "mixed"]))
    newline = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    second, volume = 9 * 3600, 0
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")                                  # blank line
        # equal timestamps, small steps and multi-interval gaps
        second += draw(st.sampled_from([0, 0, 1, 2, 7, 30, 95, 400]))
        millis = draw(st.sampled_from([0, 0, 250, 500, 999]))
        volume += draw(st.sampled_from([0, 1, 3, -2]))
        price = draw(st.sampled_from([100.0, 100.25, 101.5, 99.75]))
        if draw(st.integers(0, 29)) == 0:               # out of range
            millis, price = draw(st.sampled_from(
                [(1000, price), (-1, price), (millis, 0.0), (1000, 0.0)]))
        bid, ask = price - 0.5, price + 0.5
        sentinel = draw(st.integers(0, 7))
        if sentinel == 0:
            bid = 0
        elif sentinel == 1:
            ask = 0.0
        elif sentinel == 2:
            bid, ask = ask, bid                              # crossed book
        style = clock if clock != "mixed" else draw(
            st.sampled_from(["hms", "seconds"]))
        h, rest = divmod(second, 3600)
        if style == "hms":
            time = f"{h:02d}:{rest // 60:02d}:{rest % 60:02d}"
        elif style == "short-hms":
            time = f"{h}:{rest // 60}:{rest % 60}"
        else:
            time = repr(float(second)) if second % 2 else str(second)
        cells = {"UpdateTime": time, "UpdateMillisec": str(millis),
                 "LastPrice": repr(price), "Volume": str(volume),
                 "BidPrice1": str(bid), "BidVolume1": "3",
                 "AskPrice1": str(ask), "AskVolume1": "5"}
        row = [cells[name] for name in order] + (["SHFE"] if extra else [])
        if draw(st.integers(0, 14)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(BAD_CELLS))
        if draw(st.integers(0, 39)) == 0:
            row.append("1")                                 # field count
        lines.append(delimiter.join(row))
    return newline.join(lines) + newline, delimiter


@pytest.mark.slow
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tick_streams(), st.sampled_from([1.0, 10.0, 30.0]))
def test_matches_row_parser(stream, interval):
    text, delimiter = stream
    got = outcome(lambda: parse_ticks(text, delimiter))
    want = outcome(lambda: ref.parse_ticks(text, delimiter))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    ticks, (records, dropped) = got[1].records, want[1]
    assert got[1].dropped_rows == dropped
    assert ticks.dtype == ref.TICK_DTYPE
    assert ticks.tobytes() == ref.tick_array(records).tobytes()
    if not records:
        return
    bars = resample(ticks, interval)
    assert bars.tobytes() == ref.bar_array(ref.resample(records, interval)
                                           ).tobytes()


@pytest.mark.parametrize("times", [[0.0, float("nan")], [float("inf"), 1.0],
                                   [2.0, 1.0]])
def test_resample_needs_finite_ordered_times(times):
    rows = [(t, 0, 100.0, 1, 99.0, 1, 101.0, 1, t) for t in times]
    with pytest.raises(NonMonotoneTimestamp):
        resample(np.rec.array(rows, dtype=ref.TICK_DTYPE), 30.0)


def test_integer_beyond_int64_is_unparsable():
    # the row-wise parser kept such a Volume as a Python int; an int64
    # column cannot hold it, so it is now an unparsable value
    text = (",".join(TICK_FIELDS)
            + "\n09:30:00,0,100.0,99999999999999999999,99.0,1,101.0,1\n")
    with pytest.raises(QuantRangeError) as exc:
        parse_ticks(text)
    assert exc.value.line_number == 2
    assert "unparsable value" in str(exc.value)
