"""Quantile forecast containers, crossing repair, interval extraction, and
the forecast file that ties a forecast to the files it was computed from."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import MissingLevel
from ..io_utils import atomic_write_bytes

DEFAULT_LEVELS = (0.05, 0.10, 0.50, 0.90, 0.95)

_LEVEL_TOL = 1e-9


@dataclass(frozen=True)
class QuantileLevels:
    levels: tuple[float, ...] = DEFAULT_LEVELS

    def __post_init__(self):
        lv = tuple(float(x) for x in self.levels)
        if any(not 0.0 < x < 1.0 for x in lv):
            raise ValueError("quantile levels must lie in (0, 1)")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        object.__setattr__(self, "levels", lv)

    def __len__(self) -> int:
        return len(self.levels)

    def index_of(self, level: float) -> int:
        for i, x in enumerate(self.levels):
            if abs(x - level) <= _LEVEL_TOL:
                return i
        raise MissingLevel(f"level {level} not among {self.levels}")


@dataclass
class QuantileForecast:
    values: np.ndarray          # (N, Q)
    levels: QuantileLevels

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.levels):
            raise ValueError(
                f"forecast values must be (N, {len(self.levels)}), "
                f"got {self.values.shape}"
            )


def repair_monotonic(forecast: QuantileForecast) -> QuantileForecast:
    """Sort each sample's quantile values ascending. Idempotent; rows that
    are already monotone come back bit-identical."""
    return QuantileForecast(values=np.sort(forecast.values, axis=1),
                            levels=forecast.levels)


def interval_bounds(
    forecast: QuantileForecast, beta: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Central (1 - beta) intervals from the beta/2 and 1 - beta/2 levels,
    after monotonic repair, as (lower, upper) arrays."""
    lo = forecast.levels.index_of(beta / 2.0)
    hi = forecast.levels.index_of(1.0 - beta / 2.0)
    repaired = repair_monotonic(forecast)
    return repaired.values[:, lo], repaired.values[:, hi]


_MAGIC = b"QRFCSTv1"


def _digest(sources, payload: bytes) -> bytes:
    """sha256 over the sha256 of each source file's bytes, then `payload`."""
    # imported here: hashlib loads OpenSSL (2–3 MB of RSS and 3–6 ms),
    # which only the stages that write or read a forecast file need
    import hashlib
    outer = hashlib.sha256()
    for source in sources:
        with open(source, "rb") as fh:
            outer.update(hashlib.sha256(fh.read()).digest())
    outer.update(payload)
    return outer.digest()


def save_forecast(path: str, forecast: QuantileForecast, sources) -> None:
    """Write `forecast` with a digest of itself and of the bytes of the
    `sources` files it was computed from."""
    n, q = forecast.values.shape
    payload = (struct.pack("<II", n, q)
               + np.asarray(forecast.levels.levels, "<f8").tobytes()
               + np.ascontiguousarray(forecast.values, "<f8").tobytes())
    atomic_write_bytes(path, _MAGIC + _digest(sources, payload) + payload)


def load_forecast(path: str, sources) -> QuantileForecast | None:
    """The forecast `save_forecast` wrote to `path` from `sources` with the
    bytes they hold now, or None when the file is missing, truncated or
    corrupt, or the sources have changed since."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    payload = data[40:]
    if data[:8] != _MAGIC or data[8:40] != _digest(sources, payload):
        return None
    try:
        n, q = struct.unpack_from("<II", payload)
        levels = QuantileLevels(tuple(np.frombuffer(payload, "<f8", q, 8)))
        values = np.frombuffer(payload, "<f8", offset=8 + 8 * q)
        return QuantileForecast(values.reshape(n, q).copy(), levels)
    except (struct.error, ValueError):
        return None
