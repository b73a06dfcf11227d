"""Tick parsing, bar resampling, min-max normalization, and windowing.

Ticks and bars are numpy record arrays, one row per tick or bar, with the
fields of `TICK_DTYPE` and `BAR_DTYPE`. All functions here are pure: they
take immutable inputs and return new objects, so they are safe to call
from multiple threads.
"""

from __future__ import annotations

import io
import itertools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateFeature,
    EmptyInput,
    InsufficientData,
    MalformedRow,
    MissingArtifact,
    MissingField,
    NonMonotoneTimestamp,
)

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
# it may have been cut short, and sends the file to the row parser
_TIME_WIDTH = 24


@dataclass(frozen=True)
class NormalizationParams:
    x_min: np.ndarray  # per-feature minimum, shape (F,)
    x_max: np.ndarray  # per-feature maximum, shape (F,)


@dataclass
class WindowedDataset:
    inputs: np.ndarray          # (N, T, F)
    targets: np.ndarray         # (N, window_out)
    feature_names: list[str]
    norm: NormalizationParams | None = None
    target_times: np.ndarray | None = None   # open_time of each target bar

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ParseResult:
    records: np.recarray  # TICK_DTYPE: the rows kept, in file order
    dropped_rows: int  # rows with a zero bid/ask sentinel, skipped non-fatally


def _parse_time(text: str) -> float:
    """Accepts 'HH:MM:SS' (seconds within day) or a plain number of seconds."""
    parts = text.split(":")
    if len(parts) == 3:
        h, m, s = (int(p) for p in parts)
        return float(h * 3600 + m * 60 + s)
    return float(text)


def _read_fast(stream, columns: list[int], ncols: int, delimiter: str):
    """The ticks of one np.loadtxt pass over the open file, UpdateTime read
    as bytes and decoded by array arithmetic if HH:MM:SS, else by
    `_parse_time`; None if a cell does not parse or may have been cut."""
    dtype = [(f"unused{j}", "U1") for j in range(ncols)]
    for j, name in zip(columns, TICK_DTYPE.names):
        dtype[j] = (name, TICK_DTYPE[name])
    dtype[columns[0]] = ("update_time", f"S{_TIME_WIDTH}")
    try:
        raw = np.loadtxt(stream, dtype=dtype, delimiter=delimiter,
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
    """The row parser, for a file np.loadtxt cannot read: (the ticks before
    the first line with a wrong field count or a cell that does not parse,
    that line's error or None)."""
    convert = [float if TICK_DTYPE[i].kind == "f"
               else lambda v: np.int64(int(v)) for i in range(1, 8)]
    rows, error = [], None
    for lineno, line in lines:
        line = line.rstrip("\n")
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


def _checked(ticks: np.ndarray, error: MalformedRow | None,
             line_of) -> ParseResult:
    """Fills in the timestamps and raises the first failing row check (the
    checks are masks over all rows, taken in the order a row-by-row parse
    meets them), then `error`, the failure of the row after the last."""
    ticks = ticks.view(np.recarray)
    ts = ticks.timestamp = ticks.update_time + ticks.update_millisec / 1000.0
    ms, bid, ask = ticks.update_millisec, ticks.bid_price1, ticks.ask_price1
    drop = (bid == 0) | (ask == 0)
    kept = np.flatnonzero(~drop)
    back = np.zeros(len(ticks), bool)
    back[kept[1:]] = ts[kept[1:]] < ts[kept[:-1]]
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
        prev = ts[kept[np.searchsorted(kept, i) - 1]]
        raise NonMonotoneTimestamp(
            line_of(i), f"timestamp {float(ts[i])} < previous {float(prev)}")
    if error is not None:
        raise error
    return ParseResult(ticks[~drop] if drop.any() else ticks, int(drop.sum()))


def parse_ticks(
    stream: io.TextIOBase | str,
    delimiter: str = ",",
) -> ParseResult:
    """Parse delimiter-separated tick rows into a TICK_DTYPE record array.

    The first row must be a header naming all eight tick fields (any order).
    Rows with a zero BidPrice1 or AskPrice1 are dropped and counted; any
    other violation, such as a non-finite time or price, raises with the
    offending line number. np.loadtxt reads the body unless numpy would
    split or read it differently from the row parser (a lone carriage
    return, a NUL); the row parser runs only if np.loadtxt cannot. A
    stream that cannot seek is read into memory.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    elif not stream.seekable():
        stream = io.StringIO(stream.read())
    header_line = stream.readline()
    if not header_line:
        raise MissingField("stream is empty; header row required")
    header = [h.strip() for h in header_line.rstrip("\n").split(delimiter)]
    for name in TICK_FIELDS:
        if name not in header:
            raise MissingField(f"header lacks required field {name!r}")
    columns = [header.index(name) for name in TICK_FIELDS]
    start = stream.tell()

    def line_of(row: int) -> int:
        stream.seek(start)
        data = (n for n, line in enumerate(stream, 2) if line.rstrip("\n"))
        return next(itertools.islice(data, row, None))

    fast, has_rows = len(delimiter) == 1 and delimiter not in "\r\n", False
    for chunk in iter(lambda: stream.read(1 << 20), ""):
        fast = fast and "\r" not in chunk and "\0" not in chunk
        has_rows = has_rows or bool(chunk.strip("\n"))
    stream.seek(start)
    if fast and has_rows:
        ticks = _read_fast(stream, columns, len(header), delimiter)
        if ticks is not None:
            return _checked(ticks, None, line_of)
        stream.seek(start)
    return _checked(*_read_rows(enumerate(stream, 2), columns, len(header),
                                delimiter), line_of)


def resample(ticks: np.recarray, interval: float = 30.0) -> np.recarray:
    """Aggregate ticks (in time order) into fixed-interval OHLC bars.

    Empty intervals between populated ones are forward-filled with the
    previous close (o=h=l=c, volume_delta 0). Volume is cumulative; per-bar
    deltas are differenced and clamped at 0."""
    if not len(ticks):
        raise EmptyInput("no ticks to resample")
    if not interval > 0:
        raise ValueError(f"interval must be positive, not {interval}")
    ts, price = ticks.timestamp, ticks.last_price
    if not (np.isfinite(ts).all() and (np.diff(ts) >= 0).all()):
        raise NonMonotoneTimestamp(
            0, "resample needs finite timestamps in non-decreasing order")
    bucket = ((ts - ts[0]) // interval).astype(np.int64)
    first = np.flatnonzero(np.diff(bucket, prepend=-1))  # tick opening a bar
    last = np.append(first[1:], len(ticks)) - 1
    n = int(bucket[-1]) + 1
    populated = bucket[first]
    owner = np.searchsorted(populated, np.arange(n), side="right") - 1
    filled = populated[owner] != np.arange(n)   # no tick: copies bar owner
    bars = np.recarray(n, BAR_DTYPE)
    bars.open_time = ts[0] + np.arange(n) * interval
    bars.close = price[last][owner]
    for name, values in (("open", price[first]),
                         ("high", np.maximum.reduceat(price, first)),
                         ("low", np.minimum.reduceat(price, first))):
        bars[name] = np.where(filled, bars.close, values[owner])
    deltas = np.maximum(0, np.diff(ticks.volume[last],
                                   prepend=ticks.volume[0]))
    bars.volume_delta = np.where(filled, 0, deltas[owner])
    return bars


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


def make_windows(
    bars: np.recarray,
    window_in: int = 5,
    window_out: int = 1,
    stride: int = 1,
) -> WindowedDataset:
    """Slide a window over contiguous bars: the one input feature is the
    close, the target the close window_out steps after each window."""
    n = len(bars)
    num = (n - window_in - window_out) // stride + 1 if n >= window_in + window_out else 0
    if num < 1:
        raise InsufficientData(
            f"{n} bars cannot supply window_in={window_in} + window_out={window_out}"
        )
    inputs = sliding_window_view(bars.close, window_in)[::stride][:num]
    targets = sliding_window_view(bars.close[window_in:], window_out)
    return WindowedDataset(
        inputs=inputs[:, :, None].copy(),
        targets=targets[::stride][:num].copy(),
        feature_names=["close"],
        target_times=bars.open_time[window_in + window_out - 1::stride][:num].copy(),
    )


# --- dataset artifact (binary, byte-exact; see README for the layout) ---

_MAGIC = b"QRWDSv1\x00"   # 8-byte magic
_VERSION = 1


def save_dataset(ds: WindowedDataset, path: str) -> None:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    n, t, f = ds.inputs.shape
    wout = ds.targets.shape[1]
    buf.write(struct.pack("<IIII", n, t, f, wout))
    names = "\x1f".join(ds.feature_names).encode("utf-8")
    buf.write(struct.pack("<I", len(names)))
    buf.write(names)
    has_norm = ds.norm is not None
    has_times = ds.target_times is not None
    buf.write(struct.pack("<BB", int(has_norm), int(has_times)))
    if has_norm:
        buf.write(np.ascontiguousarray(ds.norm.x_min, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(ds.norm.x_max, dtype="<f8").tobytes())
    if has_times:
        buf.write(np.ascontiguousarray(ds.target_times, dtype="<f8").tobytes())
    buf.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())
    buf.write(np.ascontiguousarray(ds.targets, dtype="<f8").tobytes())
    from .io_utils import atomic_write_bytes
    atomic_write_bytes(path, buf.getvalue())


def load_dataset(path: str) -> WindowedDataset:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise MissingArtifact(f"{path}: not a dataset file")
    try:
        off = 8
        (version,) = struct.unpack_from("<I", data, off); off += 4
        if version != _VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        n, t, f, wout = struct.unpack_from("<IIII", data, off); off += 16
        (nlen,) = struct.unpack_from("<I", data, off); off += 4
        names = data[off:off + nlen].decode("utf-8").split("\x1f"); off += nlen
        has_norm, has_times = struct.unpack_from("<BB", data, off); off += 2
        norm = None
        if has_norm:
            x_min = np.frombuffer(data, "<f8", f, off).copy(); off += 8 * f
            x_max = np.frombuffer(data, "<f8", f, off).copy(); off += 8 * f
            norm = NormalizationParams(x_min=x_min, x_max=x_max)
        times = None
        if has_times:
            times = np.frombuffer(data, "<f8", n, off).copy(); off += 8 * n
        inputs = np.frombuffer(data, "<f8", n * t * f, off).reshape(n, t, f).copy()
        off += 8 * n * t * f
        targets = np.frombuffer(data, "<f8", n * wout, off).reshape(n, wout).copy()
        return WindowedDataset(inputs=inputs, targets=targets, feature_names=names,
                               norm=norm, target_times=times)
    except (struct.error, ValueError) as exc:
        raise MissingArtifact(
            f"{path}: truncated or corrupt dataset ({exc})") from exc
