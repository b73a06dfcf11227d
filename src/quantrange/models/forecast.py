"""Quantile forecast containers, crossing repair, interval extraction, and
the forecast file that ties a forecast to the files it was computed from."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..config import QuantileLevels
from ..errors import MissingArtifact
from ..io_utils import atomic_write_bytes, reading


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
    # CPython's own sha256 (`_sha2` from 3.12, `_sha256` before): hashlib
    # would load OpenSSL, 2–3 MB of RSS and 3–6 ms
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    outer = sha256()
    for source in sources:
        with reading(source, "forecast source") as fh:
            outer.update(sha256(fh.read()).digest())
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
    bytes they hold now, or None when it or a source cannot be read, it is
    truncated or corrupt, or the sources have changed since."""
    try:
        with reading(path, "forecast") as fh:
            data = fh.read()
            payload = data[40:]
            if data[:8] != _MAGIC or data[8:40] != _digest(sources, payload):
                return None
            n, q = struct.unpack_from("<II", payload)
            levels = QuantileLevels(tuple(np.frombuffer(payload, "<f8", q, 8)))
            values = np.frombuffer(payload, "<f8", offset=8 + 8 * q)
            return QuantileForecast(values.reshape(n, q).copy(), levels)
    except MissingArtifact:
        return None
