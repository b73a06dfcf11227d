"""Tick files read in blocks of PARSE_BLOCK characters: with blocks of a
few lines, so that blank lines, CRLF, dropped rows, errors, equal
timestamps and multi-bar gaps fall on block edges, every result must be
bit-identical to the row-wise reference, and every error the same."""

import io
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_market_data as ref
import test_market_data
from quantrange import market_data as md
from quantrange.cli import main
from quantrange.errors import EmptyInput
from quantrange.market_data import (
    TICK_DTYPE, BarParts, parse_ticks, read_bars, resample,
)
from test_cli import SRC, write_config
from test_parse_differential import outcome, tick_streams


@pytest.mark.slow
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tick_streams(), st.sampled_from([1.0, 10.0, 30.0]),
       st.integers(1, 200))
def test_blocks_match_row_parser(stream, interval, block):
    text, delimiter = stream
    with mock.patch.object(md, "PARSE_BLOCK", block):
        got = outcome(lambda: parse_ticks(text, delimiter))
        read = outcome(lambda: read_bars(io.StringIO(text), delimiter,
                                         interval))
    want = outcome(lambda: ref.parse_ticks(text, delimiter))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1] == read[1]
        return
    (records, dropped), result = want[1], got[1]
    assert result.dropped_rows == dropped
    assert result.records.tobytes() == ref.tick_array(records).tobytes()
    if not records:
        assert read == ("error", (EmptyInput, "no ticks to resample", None))
        return
    bars = ref.bar_array(ref.resample(records, interval))
    t0 = records[0].timestamp
    populated = len({(r.timestamp - t0) // interval for r in records})
    assert read[0] == "ok"
    assert read[1].bars.tobytes() == bars.tobytes()
    assert (read[1].ticks, read[1].dropped_rows, read[1].filled) == (
        len(records), dropped, len(bars) - populated)


class TestErrorLocationInBlocks(test_market_data.TestErrorLocation):
    """TestErrorLocation with blocks of about three lines."""

    @pytest.fixture(autouse=True, params=[100])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(md, "PARSE_BLOCK", request.param)


@st.composite
def split_ticks(draw):
    """A tick array with equal timestamps, multi-bar gaps and falling
    volume, and the indices that cut it into blocks."""
    n = draw(st.integers(1, 60))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.5, 30.0,
                                           95.0, 400.0]),
                          min_size=n, max_size=n))
    ticks = np.zeros(n, TICK_DTYPE).view(np.recarray)
    ticks.timestamp = 9 * 3600.0 + np.cumsum(steps)
    ticks.last_price = draw(st.lists(
        st.sampled_from([99.75, 100.0, 100.25, 101.5]), min_size=n,
        max_size=n))
    ticks.volume = np.cumsum(draw(st.lists(st.sampled_from([0, 1, 3, -2]),
                                           min_size=n, max_size=n)))
    cuts = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=n,
                         unique=True)) if n > 1 else []
    return ticks, sorted(cuts)


@given(split_ticks(), st.sampled_from([1.0, 10.0, 30.0]))
def test_blocks_of_a_tick_array_give_its_bars(case, interval):
    ticks, cuts = case
    want = resample(ticks, interval)
    *head, tail = np.split(ticks, cuts)
    parts = BarParts(interval)
    for block in head:
        parts.add(block)
    got = resample(tail, interval, after=parts)
    assert got.tobytes() == want.tobytes()
    # the ticks, bars and forward-filled bars `ingest` prints, the last as
    # it counted them from every tick
    bucket = (ticks.timestamp - ticks.timestamp[0]) // interval
    populated = np.count_nonzero(np.diff(bucket)) + 1
    assert (parts.ticks, len(got), len(got) - parts.populated) == (
        len(ticks), len(want), len(want) - populated)


class Pipe(io.TextIOBase):
    """A text stream that cannot seek, as a pipe cannot; it keeps the size
    of every read."""

    def __init__(self, text):
        self._text = io.StringIO(text)
        self.reads = []

    def readable(self):
        return True

    def read(self, size=-1):
        self.reads.append(size)
        return self._text.read(size)


def test_non_seekable_stream_is_read_in_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(md, "PARSE_BLOCK", 4096)
    path = tmp_path / "ticks.csv"
    path.write_text(test_market_data.long_stream(
        {10: "09:00:05,0,100.0,11,0,0,110.0,1"}))
    with open(path, encoding="utf-8") as fh:
        want = parse_ticks(fh)
    pipe = Pipe(path.read_text())
    assert not pipe.seekable()
    got = parse_ticks(pipe)
    assert got.records.tobytes() == want.records.tobytes()
    assert (got.dropped_rows, got.header, got.next_line, got.last_timestamp
            ) == (want.dropped_rows, want.header, want.next_line,
                  want.last_timestamp) == (1, test_market_data.HEADER.split(
                      ","), 3003, 9 * 3600 + 1499.5)
    # never read whole: the ~110 kB of text came in 4096-character reads
    assert len(pipe.reads) > 20
    assert all(0 < size <= 4096 for size in pipe.reads)


# a parent without numpy, so that ru_maxrss is the ingest process's own
PEAK_HELPER = """\
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_ingest_peak_memory_does_not_grow_with_the_file(tmp_path):
    peaks = []
    for length in (20_000, 200_000):   # 1 and 11 MB of ticks.csv
        config = write_config(tmp_path, f"""\
[run]
seed = 1

[data]
bar_interval = 10.0
window_in = 5

[synthetic]
length = {length}
phi = 0.999
sigma0 = 0.5
""")
        out = str(tmp_path / str(length))
        assert main(["synth", "--config", config, "--out", out]) == 0
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_HELPER, sys.executable, "-m",
             "quantrange.cli", "ingest", "--config", config, "--out", out],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": SRC})
        peaks.append(int(proc.stdout) / 1024)
    # parsing the whole file at once took about 170 bytes per tick: 30 MB
    # more for the larger file
    assert peaks[1] - peaks[0] < 4.0, peaks
