"""Row-wise reference parser and resampler for the differential tests.

This is the per-row implementation `quantrange.market_data` used before
ticks and bars became numpy record arrays: one frozen `TickRecord` per
row and one `Bar` per interval. The tests compare the columnar code with
it value for value, and error for error; nothing in the package imports it.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from quantrange.errors import (
    EmptyInput,
    MalformedRow,
    MissingField,
    NonMonotoneTimestamp,
)
from quantrange.market_data import BAR_DTYPE, TICK_DTYPE, TICK_FIELDS


@dataclass(frozen=True)
class TickRecord:
    update_time: float
    update_millisec: int
    last_price: float
    volume: int
    bid_price1: float
    bid_volume1: int
    ask_price1: float
    ask_volume1: int

    @property
    def timestamp(self) -> float:
        return self.update_time + self.update_millisec / 1000.0


@dataclass(frozen=True)
class Bar:
    open_time: float
    open: float
    high: float
    low: float
    close: float
    volume_delta: int


def _parse_time(text: str) -> float:
    parts = text.split(":")
    if len(parts) == 3:
        h, m, s = (int(p) for p in parts)
        return float(h * 3600 + m * 60 + s)
    return float(text)


def parse_ticks(stream, delimiter: str = ","):
    """Returns (records, dropped_rows)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = iter(enumerate(stream, start=1))
    try:
        _, header_line = next(lines)
    except StopIteration:
        raise MissingField("stream is empty; header row required")
    header = [h.strip() for h in header_line.rstrip("\n").split(delimiter)]
    for name in TICK_FIELDS:
        if name not in header:
            raise MissingField(f"header lacks required field {name!r}")
    col = {name: header.index(name) for name in TICK_FIELDS}

    records: list[TickRecord] = []
    dropped = 0
    prev_ts: float | None = None
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != len(header):
            raise MalformedRow(
                lineno, f"expected {len(header)} fields, got {len(parts)}"
            )
        try:
            rec = TickRecord(
                update_time=_parse_time(parts[col["UpdateTime"]].strip()),
                update_millisec=int(parts[col["UpdateMillisec"]]),
                last_price=float(parts[col["LastPrice"]]),
                volume=int(parts[col["Volume"]]),
                bid_price1=float(parts[col["BidPrice1"]]),
                bid_volume1=int(parts[col["BidVolume1"]]),
                ask_price1=float(parts[col["AskPrice1"]]),
                ask_volume1=int(parts[col["AskVolume1"]]),
            )
        except ValueError as exc:
            raise MalformedRow(lineno, f"unparsable value ({exc})")
        if not 0 <= rec.update_millisec <= 999:
            raise MalformedRow(lineno, "UpdateMillisec outside [0, 999]")
        for name, value in (("UpdateTime", rec.timestamp),
                            ("LastPrice", rec.last_price),
                            ("BidPrice1", rec.bid_price1),
                            ("AskPrice1", rec.ask_price1)):
            if not math.isfinite(value):
                raise MalformedRow(lineno, f"{name} must be finite")
        if rec.last_price <= 0:
            raise MalformedRow(lineno, "LastPrice must be positive")
        if rec.bid_price1 == 0 or rec.ask_price1 == 0:
            dropped += 1
            continue
        if rec.ask_price1 > 0 and rec.bid_price1 > 0 and rec.ask_price1 < rec.bid_price1:
            raise MalformedRow(lineno, "crossed book: AskPrice1 < BidPrice1")
        if prev_ts is not None and rec.timestamp < prev_ts:
            raise NonMonotoneTimestamp(
                lineno, f"timestamp {rec.timestamp} < previous {prev_ts}"
            )
        prev_ts = rec.timestamp
        records.append(rec)
    return records, dropped


def resample(ticks: Sequence[TickRecord], interval: float = 30.0) -> list[Bar]:
    if not ticks:
        raise EmptyInput("no ticks to resample")
    t0 = ticks[0].timestamp
    buckets: dict[int, list[TickRecord]] = {}
    for t in ticks:
        buckets.setdefault(int((t.timestamp - t0) // interval), []).append(t)

    bars: list[Bar] = []
    prev_close: float | None = None
    prev_cum_volume = ticks[0].volume
    last_bucket = max(buckets)
    for b in range(last_bucket + 1):
        open_time = t0 + b * interval
        group = buckets.get(b)
        if group is None:
            assert prev_close is not None
            bars.append(Bar(open_time, prev_close, prev_close, prev_close,
                            prev_close, 0))
            continue
        prices = [t.last_price for t in group]
        cum = group[-1].volume
        vd = max(0, cum - prev_cum_volume) if bars else max(0, cum - ticks[0].volume)
        prev_cum_volume = cum
        bars.append(Bar(open_time, prices[0], max(prices), min(prices),
                        prices[-1], vd))
        prev_close = prices[-1]
    return bars


def tick_array(records: Sequence[TickRecord]) -> np.ndarray:
    """The records as a TICK_DTYPE array, timestamp included."""
    return np.array([astuple(r) + (r.timestamp,) for r in records],
                    dtype=TICK_DTYPE)


def bar_array(bars: Sequence[Bar]) -> np.ndarray:
    return np.array([astuple(b) for b in bars], dtype=BAR_DTYPE)
