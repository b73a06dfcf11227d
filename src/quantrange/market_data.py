"""Tick parsing, bar resampling, min-max normalization, and windowing.

Ticks and bars are numpy record arrays, one row per tick or bar, with the
fields of `TICK_DTYPE` and `BAR_DTYPE`. A tick file is read in blocks of
PARSE_BLOCK characters, and each block's ticks are reduced to partial
bars (`BarParts`) at once, so memory does not grow with the file.
"""

from __future__ import annotations

import io
import itertools
import struct
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import io_utils
from .errors import (
    DegenerateFeature,
    EmptyInput,
    InsufficientData,
    MalformedRow,
    MissingArtifact,
    MissingField,
    NonMonotoneTimestamp,
)

# resample refuses an interval that would forward-fill more bars than this
_MAX_FILLED_BARS = 2 ** 24
# characters of tick text parsed at a time: ingest's memory is a block of
# ticks and one partial bar per populated bar, however long the file
PARSE_BLOCK = 1 << 18

TICK_FIELDS = ("UpdateTime", "UpdateMillisec", "LastPrice", "Volume",
               "BidPrice1", "BidVolume1", "AskPrice1", "AskVolume1")
# the TICK_FIELDS in order: UpdateTime in seconds (within day or epoch,
# feed dependent), Volume cumulative; then update_time + millisec / 1000
TICK_DTYPE = np.dtype([
    ("update_time", "f8"), ("update_millisec", "i8"), ("last_price", "f8"),
    ("volume", "i8"), ("bid_price1", "f8"), ("bid_volume1", "i8"),
    ("ask_price1", "f8"), ("ask_volume1", "i8"), ("timestamp", "f8")])
BAR_DTYPE = np.dtype([(name, "f8") for name in
                      ("open_time", "open", "high", "low", "close")]
                     + [("volume_delta", "i8")])
# np.loadtxt reads UpdateTime as bytes of this width; a cell that fills
# it may have been cut short, and sends the block to the row parser
_TIME_WIDTH = 24


@dataclass(frozen=True)
class NormalizationParams:
    x_min: np.ndarray  # per-feature minimum, shape (F,)
    x_max: np.ndarray  # per-feature maximum, shape (F,)


@dataclass
class WindowedDataset:
    inputs: np.ndarray          # (N, T, F), min-max scaled by norm
    targets: np.ndarray         # (N, 1): the scaled value one step ahead
    feature_names: list[str]
    norm: NormalizationParams
    target_times: np.ndarray    # (N,): open_time of each target bar

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ParseResult:
    records: np.recarray  # TICK_DTYPE: the rows kept, in file order
    dropped_rows: int  # rows with a zero bid/ask sentinel, skipped non-fatally
    # where the text ended, for `parse_ticks(..., after=this)`:
    header: list[str]      # the header's field names
    next_line: int         # line number of the line after the text
    last_timestamp: float  # of the last tick kept so far; -inf before one


def _parse_time(text: str) -> float:
    """Accepts 'HH:MM:SS' (seconds within day) or a plain number of seconds."""
    parts = text.split(":")
    if len(parts) == 3:
        h, m, s = (int(p) for p in parts)
        return float(h * 3600 + m * 60 + s)
    return float(text)


def _read_fast(lines: list[str], columns: list[int], ncols: int,
               delimiter: str):
    """The ticks of one np.loadtxt pass over the lines, UpdateTime read as
    bytes and decoded by array arithmetic if HH:MM:SS, else by
    `_parse_time`; None if a cell does not parse or may have been cut."""
    dtype = [(f"unused{j}", "U1") for j in range(ncols)]
    for j, name in zip(columns, TICK_DTYPE.names):
        dtype[j] = (name, TICK_DTYPE[name])
    dtype[columns[0]] = ("update_time", f"S{_TIME_WIDTH}")
    try:
        raw = np.loadtxt(lines, dtype=dtype, delimiter=delimiter,
                         comments=None, ndmin=1)
    except ValueError:
        return None
    ticks = np.empty(len(raw), TICK_DTYPE)
    for name in TICK_DTYPE.names[1:8]:
        ticks[name] = raw[name]
    cells = np.ascontiguousarray(raw["update_time"])
    del raw
    byte = cells.view(np.uint8).reshape(len(cells), _TIME_WIDTH)
    digits = byte[:, [0, 1, 3, 4, 6, 7]] - ord("0")   # a non-digit is >= 10
    other = ~((digits <= 9).all(axis=1) & ~byte[:, 8:].any(axis=1)
              & (byte[:, [2, 5]] == ord(":")).all(axis=1))
    ticks["update_time"] = (digits[:, 0::2] * 10 + digits[:, 1::2]).astype(
        np.int64) @ [3600, 60, 1]
    if byte[other, -1].any():
        return None
    try:
        ticks["update_time"][other] = [
            _parse_time(cell.decode("latin-1").strip()) for cell in cells[other]]
    except ValueError:
        return None
    return ticks


def _read_rows(lines, columns: list[int], ncols: int, delimiter: str):
    """The row parser, for text np.loadtxt cannot read: (the ticks before
    the first line with a wrong field count or a cell that does not parse,
    that line's error or None)."""
    convert = [float if TICK_DTYPE[i].kind == "f"
               else lambda v: np.int64(int(v)) for i in range(1, 8)]
    rows, error = [], None
    for lineno, line in lines:
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != ncols:
            error = MalformedRow(
                lineno, f"expected {ncols} fields, got {len(parts)}")
            break
        try:
            rows.append((_parse_time(parts[columns[0]].strip()),
                         *[to(parts[j]) for to, j in zip(convert, columns[1:])]))
        except (ValueError, OverflowError) as exc:
            error = MalformedRow(lineno, f"unparsable value ({exc})")
            break
    return np.array([(*row, 0.0) for row in rows], TICK_DTYPE), error


def _checked(ticks: np.ndarray, error: MalformedRow | None, line_of,
             previous: float) -> tuple[np.recarray, int, float]:
    """Fills in the timestamps and raises the first failing row check (the
    checks are masks over all rows, taken in the order a row-by-row parse
    meets them; `previous` is the timestamp of the last tick kept before
    these rows), then `error`, the failure of the row after the last.
    Returns the rows kept, the rows dropped and the last kept timestamp."""
    ticks = ticks.view(np.recarray)
    ts = ticks.timestamp = ticks.update_time + ticks.update_millisec / 1000.0
    ms, bid, ask = ticks.update_millisec, ticks.bid_price1, ticks.ask_price1
    drop = (bid == 0) | (ask == 0)
    kept = np.flatnonzero(~drop)
    before = np.append(previous, ts[kept])   # before[j]: kept row j's previous
    back = np.zeros(len(ticks), bool)
    back[kept] = ts[kept] < before[:-1]
    checks = {"UpdateMillisec outside [0, 999]": (ms < 0) | (ms > 999),
              **{f"{name} must be finite": ~np.isfinite(col) for name, col
                 in (("UpdateTime", ts), ("LastPrice", ticks.last_price),
                     ("BidPrice1", bid), ("AskPrice1", ask))},
              "LastPrice must be positive": ticks.last_price <= 0,
              "crossed book: AskPrice1 < BidPrice1":
                  (ask > 0) & (bid > 0) & (ask < bid)}
    bad = np.flatnonzero(np.logical_or.reduce([*checks.values(), back]))
    if bad.size:
        i = int(bad[0])
        for message, mask in checks.items():
            if mask[i]:
                raise MalformedRow(line_of(i), message)
        prev = before[np.searchsorted(kept, i)]
        raise NonMonotoneTimestamp(
            line_of(i), f"timestamp {float(ts[i])} < previous {float(prev)}")
    if error is not None:
        raise error
    return (ticks[~drop] if drop.any() else ticks, int(drop.sum()),
            float(before[-1]))


def _text_blocks(stream):
    """The text of `stream` (a str or a text stream) in blocks of at most
    PARSE_BLOCK characters, each cut after its last newline; a line longer
    than that is one block. Only the last block may lack the final
    newline; an empty stream is one empty block."""
    if isinstance(stream, str):
        text, end = stream, 0

        def read(size: int) -> str:
            nonlocal end
            end += size
            return text[end - size:end]
    else:
        read = stream.read
    block, empty = "", True
    while piece := read(max(PARSE_BLOCK - len(block), len(block))):
        empty, block = False, block + piece
        cut = block.rfind("\n") + 1
        if cut:
            yield block[:cut]
            block = block[cut:]
    if block or empty:
        yield block


def _parse_block(text: str, delimiter: str,
                 after: ParseResult | None) -> ParseResult:
    """The ticks of one block of text, which continues the text `after`
    was parsed from, or starts with the header if `after` is None."""
    if after is None:
        if not text:
            raise MissingField("stream is empty; header row required")
        header_line, _, text = text.partition("\n")
        # a byte-order mark, as Excel and Windows exports write, is no field
        header_line = header_line.removeprefix("\ufeff")
        header = [h.strip() for h in header_line.split(delimiter)]
        for name in TICK_FIELDS:
            if name not in header:
                raise MissingField(f"header lacks required field {name!r}")
        after = ParseResult(np.recarray(0, TICK_DTYPE), 0, header, 2,
                            -np.inf)
    header, first = after.header, after.next_line
    columns = [header.index(name) for name in TICK_FIELDS]

    def line_of(row: int) -> int:
        lines = enumerate(text.split("\n"), first)
        return next(itertools.islice((n for n, line in lines if line),
                                     row, None))

    ticks, error, newlines = None, None, text.count("\n")
    # np.loadtxt would split a line at a lone carriage return and stop at
    # a NUL, where the row parser does not
    if (len(delimiter) == 1 and delimiter not in "\r\n" and "\r" not in text
            and "\0" not in text and len(text) > newlines):
        ticks = _read_fast(text.split("\n"), columns, len(header), delimiter)
    if ticks is None:
        ticks, error = _read_rows(enumerate(text.split("\n"), first),
                                  columns, len(header), delimiter)
    records, dropped, last = _checked(ticks, error, line_of,
                                      after.last_timestamp)
    return ParseResult(records, dropped, header, first + newlines, last)


def parse_ticks(
    stream: io.TextIOBase | str,
    delimiter: str = ",",
    *,
    after: ParseResult | None = None,
) -> ParseResult:
    """Parse delimiter-separated tick rows into a TICK_DTYPE record array.

    The first row must be a header naming all eight tick fields (any
    order), after a UTF-8 byte-order mark if there is one.
    Rows with a zero BidPrice1 or AskPrice1 are dropped and counted; any
    other violation, such as a non-finite time or price, raises with the
    offending line number. The text is read PARSE_BLOCK characters at a
    time. np.loadtxt reads a block unless numpy would split or read it
    differently from the row parser (a lone carriage return, a NUL); the
    row parser runs only if np.loadtxt cannot.

    With `after`, the result of parsing the text just before this one,
    `stream` continues that text: it has no header, its lines are numbered
    on from there, and its first kept tick must not go back in time from
    the last one kept there.
    """
    parts = []
    for text in _text_blocks(stream):
        after = _parse_block(text, delimiter, after)
        parts.append(after)
    if len(parts) == 1:
        return after
    records = np.concatenate([p.records for p in parts]).view(np.recarray)
    return replace(after, records=records,
                   dropped_rows=sum(p.dropped_rows for p in parts))


class BarParts:
    """The partial bars of ticks added block by block, in time order, on
    the grid through the first tick: for each populated bucket its index
    (exact as float64 until the 2^24 rule has passed), its first, highest,
    lowest and last price, and its last cumulative volume. Memory holds
    these, not the ticks."""

    # BAR_DTYPE's layout, so that bars can take the partial bars' memory
    DTYPE = np.dtype([("bucket", "f8"), ("open", "f8"), ("high", "f8"),
                      ("low", "f8"), ("close", "f8"), ("volume", "i8")])

    def __init__(self, interval: float):
        if not interval > 0:
            raise ValueError(f"interval must be positive, not {interval}")
        self.interval, self.ticks, self.end = interval, 0, -np.inf
        # the partial bars no later tick can reach, and the last one, which
        # one can; a bytearray grows in place, without copying them all
        self.closed, self.last = bytearray(), None

    def add(self, ticks: np.recarray) -> None:
        ts, price = ticks.timestamp, ticks.last_price
        if not self.ticks:
            self.origin, self.first_volume = ts[0], ticks.volume[0]
        self.ticks += len(ticks)
        self.end = ts[-1]
        bucket = (ts - self.origin) // self.interval
        first = np.flatnonzero(np.diff(bucket, prepend=-np.inf))  # opens one
        last = np.append(first[1:], len(ticks)) - 1
        parts = np.recarray(len(first), self.DTYPE)
        parts.bucket = bucket[first]
        parts.open = price[first]
        parts.high = np.maximum.reduceat(price, first)
        parts.low = np.minimum.reduceat(price, first)
        parts.close = price[last]
        parts.volume = ticks.volume[last]
        if self.last is not None and self.last.bucket == parts.bucket[0]:
            edge = parts[0]     # a bar on both sides of the edge
            edge.open = self.last.open
            edge.high = max(self.last.high, edge.high)
            edge.low = min(self.last.low, edge.low)
        elif self.last is not None:
            self.closed += self.last.tobytes()
        self.closed += parts[:-1].tobytes()
        self.last = parts[-1]

    def bars(self) -> np.recarray:
        """The bars, once every tick is in: each empty bucket before the
        last is forward-filled with the previous close (o=h=l=c,
        volume_delta 0), and volume deltas are differenced and clamped at
        0. Ticks that would forward-fill more than _MAX_FILLED_BARS are
        refused, judged from their span and count before any bar exists."""
        span, interval = float(self.end - self.origin), self.interval
        if span // interval >= self.ticks + _MAX_FILLED_BARS:
            raise ValueError(f"{interval!r} s bars over the {span!r} s of "
                             f"{self.ticks} ticks would forward-fill more "
                             f"than {_MAX_FILLED_BARS} bars")
        self.closed += self.last.tobytes()
        parts = np.frombuffer(self.closed, self.DTYPE)
        self.populated = n = len(parts)
        deltas = np.maximum(0, np.diff(parts["volume"],
                                       prepend=self.first_volume))
        if parts["bucket"][-1] == n - 1:    # no empty bucket: bars in place
            bars = parts.view(BAR_DTYPE).view(np.recarray)
            bars.volume_delta = deltas
        else:
            n = int(parts["bucket"][-1]) + 1
            populated = parts["bucket"].astype(np.int64)
            owner = np.searchsorted(populated, np.arange(n), side="right") - 1
            filled = populated[owner] != np.arange(n)   # copies bar owner
            bars = np.recarray(n, BAR_DTYPE)
            bars.close = parts["close"][owner]
            for name in ("open", "high", "low"):
                bars[name] = np.where(filled, bars.close, parts[name][owner])
            bars.volume_delta = np.where(filled, 0, deltas[owner])
        bars.open_time = self.origin + np.arange(n) * interval
        return bars


def resample(ticks: np.recarray, interval: float = 30.0, *,
             after: BarParts | None = None) -> np.recarray:
    """Aggregate ticks (in time order) into fixed-interval OHLC bars on the
    grid through the first tick (see `BarParts.bars`).

    With `after`, the partial bars of the ticks just before these, `after`
    takes these ticks in too, and the bars are those of all of them."""
    if not len(ticks):
        raise EmptyInput("no ticks to resample")
    parts = BarParts(interval) if after is None else after
    ts = ticks.timestamp
    if not (np.isfinite(ts).all()
            and (np.diff(ts, prepend=parts.end) >= 0).all()):
        raise NonMonotoneTimestamp(
            0, "resample needs finite timestamps in non-decreasing order")
    parts.add(ticks)
    return parts.bars()


@dataclass
class TickBars:
    bars: np.recarray   # BAR_DTYPE
    ticks: int          # ticks kept
    dropped_rows: int   # rows with a zero bid/ask sentinel
    filled: int         # bars forward-filled


def read_bars(stream: io.TextIOBase, delimiter: str,
              interval: float) -> TickBars:
    """The bars of `resample(parse_ticks(stream, delimiter).records,
    interval)`, with the same errors for a positive interval, in memory
    that does not grow with the file: each PARSE_BLOCK characters of text
    are parsed and reduced to partial bars at once."""
    parts, block, parsed, dropped = BarParts(interval), None, None, 0
    for text in _text_blocks(stream):
        parsed = parse_ticks(text, delimiter, after=parsed)
        dropped += parsed.dropped_rows
        if len(parsed.records):
            if block is not None:
                parts.add(block)
            block = parsed.records
    # the last block goes through resample, which the benchmark's tracer
    # wraps; no block of ticks raises EmptyInput there
    bars = resample(parsed.records if block is None else block, interval,
                    after=parts)
    return TickBars(bars, parts.ticks, dropped, len(bars) - parts.populated)


def fit_minmax(series: np.ndarray) -> NormalizationParams:
    """Column extrema of a (n, F) array; rejects zero-range features."""
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series.reshape(-1, 1)
    x_min = series.min(axis=0)
    x_max = series.max(axis=0)
    degenerate = np.nonzero(x_max <= x_min)[0]
    if degenerate.size:
        raise DegenerateFeature(
            f"feature index {degenerate[0]} has zero range ({x_min[degenerate[0]]})"
        )
    return NormalizationParams(x_min=x_min, x_max=x_max)


def apply_minmax(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """x -> (x - x_min) / (x_max - x_min); out-of-range values map outside [0,1]."""
    values = np.asarray(values, dtype=float)
    return (values - params.x_min) / (params.x_max - params.x_min)


def invert_minmax(normalized: np.ndarray, params: NormalizationParams) -> np.ndarray:
    normalized = np.asarray(normalized, dtype=float)
    return normalized * (params.x_max - params.x_min) + params.x_min


def make_windows(bars: np.recarray, norm: NormalizationParams,
                 window_in: int, stride: int) -> WindowedDataset:
    """Slide a window over contiguous bars, one window every stride bars:
    the one input feature is the close scaled by norm, the target the
    scaled close of the bar after each window."""
    n = len(bars)
    if n <= window_in:
        raise InsufficientData(
            f"{n} bars cannot supply window_in={window_in} + 1 target bar")
    scaled = apply_minmax(bars.close, norm)
    inputs = sliding_window_view(scaled[:-1], window_in)[::stride]
    return WindowedDataset(
        inputs=inputs[:, :, None].copy(),
        targets=scaled[window_in::stride, None].copy(),
        feature_names=["close"],
        norm=norm,
        target_times=bars.open_time[window_in::stride].copy(),
    )


# --- dataset artifact (binary, byte-exact; see README for the layout) ---

_MAGIC = b"QRWDSv1\x00"   # 8-byte magic
_VERSION = 1


def save_dataset(ds: WindowedDataset, path: str) -> None:
    names = "\x1f".join(ds.feature_names).encode("utf-8")
    header = (_MAGIC + struct.pack("<I", _VERSION)
              + struct.pack("<IIII", *ds.inputs.shape, 1)
              + struct.pack("<I", len(names)) + names
              + struct.pack("<BB", 1, 1))   # normalization, target times
    with io_utils.atomic_writer(path) as fh:
        fh.write(header)
        for values in (ds.norm.x_min, ds.norm.x_max, ds.target_times,
                       ds.inputs, ds.targets):
            fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def load_dataset(path: str) -> WindowedDataset:
    with io_utils.reading(path, "dataset") as fh:
        data = fh.read()
        if data[:8] != _MAGIC:
            raise MissingArtifact(f"{path}: not a dataset file")
        off = 8
        (version,) = struct.unpack_from("<I", data, off); off += 4
        if version != _VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        n, t, f, wout = struct.unpack_from("<IIII", data, off); off += 16
        (nlen,) = struct.unpack_from("<I", data, off); off += 4
        names = data[off:off + nlen].decode("utf-8").split("\x1f"); off += nlen
        flags = struct.unpack_from("<BB", data, off); off += 2
        if (wout, *flags) != (1, 1, 1):
            raise MissingArtifact(
                f"{path}: window_out {wout}, flags {flags}: not a one-step "
                "dataset with its normalization and target times")
        x_min = np.frombuffer(data, "<f8", f, off).copy(); off += 8 * f
        x_max = np.frombuffer(data, "<f8", f, off).copy(); off += 8 * f
        norm = NormalizationParams(x_min=x_min, x_max=x_max)
        times = np.frombuffer(data, "<f8", n, off).copy(); off += 8 * n
        inputs = np.frombuffer(data, "<f8", n * t * f, off).reshape(n, t, f).copy()
        off += 8 * n * t * f
        targets = np.frombuffer(data, "<f8", n, off).reshape(n, 1).copy()
        extra = len(data) - off - 8 * n     # a header smaller than its data
        if extra:
            raise ValueError(f"{extra} bytes after the targets")
        return WindowedDataset(inputs=inputs, targets=targets, feature_names=names,
                               norm=norm, target_times=times)
