"""Quantile forecast containers, crossing repair, and interval extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MissingLevel

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
