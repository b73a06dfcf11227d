import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantrange.errors import (
    DegenerateFeature,
    EmptyInput,
    InsufficientData,
    MalformedRow,
    MissingField,
    NonMonotoneTimestamp,
)
from quantrange.market_data import (
    BAR_DTYPE,
    TICK_DTYPE,
    apply_minmax,
    fit_minmax,
    invert_minmax,
    load_dataset,
    make_windows,
    parse_ticks,
    resample,
    save_dataset,
)

HEADER = ("UpdateTime,UpdateMillisec,LastPrice,Volume,"
          "BidPrice1,BidVolume1,AskPrice1,AskVolume1")


def make_stream(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestParseTicks:
    def test_single_row(self):
        stream = make_stream(["09:30:00,500,5742.0,120,5741.0,3,5743.0,5"])
        result = parse_ticks(stream)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.last_price == 5742.0
        assert rec.bid_price1 == 5741.0
        assert rec.ask_price1 == 5743.0
        assert rec.update_millisec == 500

    def test_crossed_book_rejected(self):
        stream = make_stream(["09:30:00,0,100.0,1,101.0,1,99.0,1"])
        with pytest.raises(MalformedRow):
            parse_ticks(stream)

    def test_empty_after_header(self):
        result = parse_ticks(HEADER + "\n")
        assert len(result.records) == 0
        assert result.dropped_rows == 0

    def test_missing_field(self):
        with pytest.raises(MissingField):
            parse_ticks("UpdateTime,LastPrice\n09:30:00,100\n")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow) as exc:
            parse_ticks(make_stream(["09:30:00,0,100.0,1,99.0"]))
        assert exc.value.line_number == 2

    def test_unparsable_number(self):
        stream = make_stream(["09:30:00,0,oops,1,99.0,1,101.0,1"])
        with pytest.raises(MalformedRow):
            parse_ticks(stream)

    def test_timestamp_regression(self):
        rows = [
            "09:30:01,0,100.0,1,99.0,1,101.0,1",
            "09:30:00,999,100.0,2,99.0,1,101.0,1",
        ]
        with pytest.raises(NonMonotoneTimestamp):
            parse_ticks(make_stream(rows))

    def test_equal_timestamps_keep_order(self):
        rows = [
            "09:30:00,0,100.0,1,99.0,1,101.0,1",
            "09:30:00,0,101.0,2,100.0,1,102.0,1",
        ]
        result = parse_ticks(make_stream(rows))
        assert [r.last_price for r in result.records] == [100.0, 101.0]

    def test_zero_sentinel_dropped_with_counter(self):
        rows = [
            "09:30:00,0,100.0,1,99.0,1,101.0,1",
            "09:30:01,0,100.0,2,0,0,101.0,1",
            "09:30:02,0,100.5,3,99.5,1,101.5,1",
        ]
        result = parse_ticks(make_stream(rows))
        assert len(result.records) == 2
        assert result.dropped_rows == 1

    def test_header_any_order(self):
        header = ("LastPrice,UpdateTime,UpdateMillisec,Volume,"
                  "AskPrice1,AskVolume1,BidPrice1,BidVolume1")
        stream = header + "\n5742.0,09:30:00,500,120,5743.0,5,5741.0,3\n"
        rec = parse_ticks(stream).records[0]
        assert rec.last_price == 5742.0
        assert rec.ask_price1 == 5743.0

    def test_long_time_cell(self):
        # longer than the bytes np.loadtxt keeps of an UpdateTime cell
        time = "0" * 20 + "34200.25"
        stream = make_stream([f"{time},500,100.0,1,99.0,1,101.0,1"])
        rec = parse_ticks(stream).records[0]
        assert rec.update_time == 34200.25
        assert rec.timestamp == 34200.75

    def test_total_order_preserved(self):
        rows = [f"09:30:{i:02d},0,{100 + i}.0,{i + 1},99.0,1,200.0,1"
                for i in range(20)]
        result = parse_ticks(make_stream(rows))
        prices = [r.last_price for r in result.records]
        assert prices == sorted(prices)
        assert len(result.records) + result.dropped_rows == 20


def tick(ts, price, volume=0):
    return (ts, 0, price, volume, price - 1, 1, price + 1, 1, ts)


def tick_array(rows):
    return np.rec.array(rows, dtype=TICK_DTYPE)


class TestResample:
    def test_single_interval_ohlc(self):
        ticks = tick_array([tick(0.0, 5), tick(1.0, 7), tick(2.0, 6)])
        bars = resample(ticks, 30.0)
        assert len(bars) == 1
        b = bars[0]
        assert (b.open, b.high, b.low, b.close) == (5, 7, 5, 6)

    def test_single_tick(self):
        bars = resample(tick_array([tick(0.0, 10)]), 30.0)
        assert (bars[0].open, bars[0].high, bars[0].low, bars[0].close) == \
            (10, 10, 10, 10)

    def test_gap_forward_filled(self):
        ticks = tick_array([tick(0.0, 10), tick(65.0, 12)])
        bars = resample(ticks, 30.0)
        assert len(bars) == 3
        filler = bars[1]
        assert (filler.open, filler.high, filler.low, filler.close) == \
            (10, 10, 10, 10)
        assert filler.volume_delta == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            resample([], 30.0)

    def test_volume_conservation(self):
        ticks = tick_array([tick(float(i) * 10, 100 + i, volume=5 * i)
                            for i in range(12)])
        bars = resample(ticks, 30.0)
        total = sum(b.volume_delta for b in bars)
        assert total == ticks[-1].volume - ticks[0].volume


class TestMinMax:
    def test_extrema(self):
        params = fit_minmax(np.array([0.0, 5.0, 10.0]))
        assert params.x_min[0] == 0.0
        assert params.x_max[0] == 10.0

    def test_constant_feature_rejected(self):
        with pytest.raises(DegenerateFeature):
            fit_minmax(np.array([3.0, 3.0, 3.0]))

    def test_independent_per_feature(self):
        data = np.array([[0.0, 100.0], [5.0, 150.0], [10.0, 120.0]])
        params = fit_minmax(data)
        assert list(params.x_min) == [0.0, 100.0]
        assert list(params.x_max) == [10.0, 150.0]

    def test_apply_basic(self):
        params = fit_minmax(np.array([0.0, 5.0, 10.0]))
        out = apply_minmax(np.array([0.0, 5.0, 10.0]), params)
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_out_of_range_extrapolates(self):
        params = fit_minmax(np.array([0.0, 10.0]))
        assert apply_minmax(np.array([12.0]), params)[0] == pytest.approx(1.2)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=50))
    def test_round_trip(self, values):
        values = np.asarray(values)
        if values.max() - values.min() < 1e-6:
            return
        params = fit_minmax(values)
        back = invert_minmax(apply_minmax(values, params), params)
        assert np.allclose(back, values, rtol=1e-12, atol=1e-9)


def bar_series(n, start_price=100.0):
    return np.rec.array([(30.0 * i, start_price + i, start_price + i + 0.5,
                          start_price + i - 0.5, start_price + i, 1)
                         for i in range(n)], dtype=BAR_DTYPE)


def windows(bars, window_in=5, stride=1):
    return make_windows(bars, fit_minmax(bars.close), window_in, stride)


class TestMakeWindows:
    def test_counting(self):
        ds = windows(bar_series(7))
        assert ds.num_samples == 2

    def test_boundary(self):
        bars = bar_series(6)
        ds = windows(bars)
        assert ds.num_samples == 1
        assert ds.targets.shape == (1, 1)
        assert invert_minmax(ds.targets[0, 0], ds.norm) == bars[5].close

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            windows(bar_series(5))

    def test_no_leakage(self):
        bars = bar_series(30)
        ds = windows(bars)
        times = np.array([b.open_time for b in bars])
        for i in range(ds.num_samples):
            input_max_time = times[i + 4]
            assert input_max_time < ds.target_times[i]

    def test_stride(self):
        ds = windows(bar_series(11), stride=2)
        assert ds.num_samples == 3

    def test_inputs_and_targets_are_scaled_closes(self):
        bars = bar_series(12)
        ds = windows(bars, window_in=3, stride=2)
        scaled = apply_minmax(bars.close, ds.norm)
        starts = range(0, 9, 2)
        assert np.array_equal(ds.inputs[:, :, 0],
                              [scaled[s:s + 3] for s in starts])
        assert np.array_equal(ds.targets[:, 0], [scaled[s + 3] for s in starts])
        assert np.array_equal(ds.target_times,
                              [bars.open_time[s + 3] for s in starts])


class TestDatasetArtifact:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = windows(bar_series(20))
        path = str(tmp_path / "d.wds")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.target_times, ds.target_times)
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.norm.x_min, ds.norm.x_min)
        assert np.array_equal(back.norm.x_max, ds.norm.x_max)


def long_stream(bad_row, rows=3000, blank_before=1500):
    """A valid HH:MM:SS file of `rows` rows with a blank line before row
    `blank_before`, where row `bad_row` (0-based) is replaced."""
    lines = [HEADER]
    for i in range(rows):
        if i == blank_before:
            lines.append("")
        sec = 9 * 3600 + i // 2
        row = (f"{sec // 3600:02d}:{sec % 3600 // 60:02d}:{sec % 60:02d},"
               f"{500 * (i % 2)},{100 + i % 7}.25,{i + 1},99.0,1,110.0,1")
        lines.append(bad_row.get(i, row))
    return "\n".join(lines) + "\n"


class TestErrorLocation:
    """Each error kind placed at line 1503 of a 3000-row file, after a
    blank line: both parsers must name that line, with the same message."""

    @pytest.mark.parametrize("bad, error, message", [
        ("10:00:00,0,100.0,1,99.0,1,110.0", MalformedRow,
         "expected 8 fields, got 7"),
        ("10:00:00,0,1O0.0,1,99.0,1,110.0,1", MalformedRow,
         "unparsable value (could not convert string to float: '1O0.0')"),
        ("10:00:00,0,100.0,1.5,99.0,1,110.0,1", MalformedRow,
         "unparsable value (invalid literal for int() with base 10: '1.5')"),
        ("10:00:00,1000,100.0,1,99.0,1,110.0,1", MalformedRow,
         "UpdateMillisec outside [0, 999]"),
        ("10:00:00,0,0,1,99.0,1,110.0,1", MalformedRow,
         "LastPrice must be positive"),
        ("10:00:00,0,nan,1,99.0,1,110.0,1", MalformedRow,
         "LastPrice must be finite"),
        ("10:00:00,0,inf,1,99.0,1,110.0,1", MalformedRow,
         "LastPrice must be finite"),
        ("nan,0,100.0,1,99.0,1,110.0,1", MalformedRow,
         "UpdateTime must be finite"),
        ("inf,0,100.0,1,99.0,1,110.0,1", MalformedRow,
         "UpdateTime must be finite"),
        ("10:00:00,0,100.0,1,-inf,1,110.0,1", MalformedRow,
         "BidPrice1 must be finite"),
        ("10:00:00,0,100.0,1,99.0,1,nan,1", MalformedRow,
         "AskPrice1 must be finite"),
        ("10:00:00,0,100.0,1,99.0,1,98.0,1", MalformedRow,
         "crossed book: AskPrice1 < BidPrice1"),
        ("09:00:00,0,100.0,1,99.0,1,110.0,1", NonMonotoneTimestamp,
         "timestamp 32400.0 < previous 33149.5"),
        # several faults in one row: the first check in row order names it
        ("09:00:00,1000,0,1,99.0,1,98.0,1", MalformedRow,
         "UpdateMillisec outside [0, 999]"),
        ("09:00:00,0,0,1,99.0,1,98.0,1", MalformedRow,
         "LastPrice must be positive"),
        ("09:00:00,0,100.0,1,99.0,1,98.0,1", MalformedRow,
         "crossed book: AskPrice1 < BidPrice1"),
    ])
    def test_reports_the_reference_line(self, bad, error, message):
        import reference_market_data as ref

        text = long_stream({1500: bad})
        with pytest.raises(error) as got:
            parse_ticks(text)
        with pytest.raises(error) as want:
            ref.parse_ticks(text)
        assert got.value.line_number == want.value.line_number == 1503
        assert str(got.value) == str(want.value) == f"line 1503: {message}"

    def test_first_of_two_errors_wins(self):
        # a crossed book before an unparsable cell: the row check comes
        # first, although only the cell stops np.loadtxt
        text = long_stream({1400: "09:11:40,0,100.0,1,99.0,1,98.0,1",
                            2000: "09:16:40,0,oops,1,99.0,1,110.0,1"})
        with pytest.raises(MalformedRow) as exc:
            parse_ticks(text)
        assert exc.value.line_number == 1402
        assert "crossed book" in str(exc.value)

    def test_dropped_rows_counted_in_long_file(self):
        text = long_stream({10: "09:00:05,0,100.0,11,0,0,110.0,1",
                            2500: "09:20:50,0,100.0,2501,99.0,1,0.0,1"})
        result = parse_ticks(text)
        assert result.dropped_rows == 2
        assert len(result.records) == 2998
