"""Prediction-interval quality metrics: PICP, PINAW, CWC, mean pinball
loss per level, and the pre-repair quantile crossing rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MetricConfig
from .errors import EmptyInput, LengthMismatch, ZeroRange
from .models.forecast import QuantileForecast, interval_bounds
from .models.layers import Workspace
from .models.losses import pinball

@dataclass
class MetricsReport:
    picp: float
    pinaw: float
    cwc: float
    cwc_variant: str
    mean_pinball: dict[float, float]   # level -> mean pinball loss
    crossing_rate: float
    n: int
    delta_y: float

    def to_text(self) -> str:
        lines = [
            f"n = {self.n}",
            f"picp = {self.picp!r}",
            f"pinaw = {self.pinaw!r}",
            f"cwc = {self.cwc!r}",
            f"cwc_variant = {self.cwc_variant}",
            f"crossing_rate = {self.crossing_rate!r}",
            f"delta_y = {self.delta_y!r}",
        ]
        for level in sorted(self.mean_pinball):
            lines.append(f"pinball_{level} = {self.mean_pinball[level]!r}")
        return "\n".join(lines) + "\n"


def _checked(actuals, intervals, metric: str):
    """(actuals, lower, upper) 1-D arrays from N actuals of any shape, such
    as (N,) or (N, 1), and N (lower, upper) pairs."""
    y = np.asarray(actuals, dtype=float)
    bounds = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if y.size == 0:
        raise EmptyInput(f"{metric} needs at least one sample")
    if y.size != len(bounds):
        raise LengthMismatch(f"{y.size} actuals vs {len(bounds)} intervals")
    return y.reshape(-1), bounds[:, 0], bounds[:, 1]


def picp(actuals, intervals) -> float:
    """Fraction of actuals inside their closed intervals [L, U]."""
    y, lower, upper = _checked(actuals, intervals, "picp")
    covered = (lower <= y) & (y <= upper)
    return float(covered.mean())


def pinaw(actuals, intervals) -> float:
    """Mean interval width normalized by the evaluated actuals' range."""
    y, lower, upper = _checked(actuals, intervals, "pinaw")
    delta_y = float(y.max() - y.min())
    if delta_y <= 0.0:
        raise ZeroRange("actuals have zero range; PINAW undefined")
    return float((upper - lower).mean() / delta_y)


def cwc(picp_value: float, pinaw_value: float, config: MetricConfig) -> float:
    """Coverage-width criterion; both variants keep (1 - PINAW) out front.

    as-printed:        (1-PINAW) * exp(-eta * (PICP - (1-beta)^2))
    squared-deviation: (1-PINAW) * exp(-eta * (PICP - (1-beta))^2)

    A value past float64's range (a large eta) is +-inf.
    """
    nominal = 1.0 - config.beta
    if config.cwc_variant == "as-printed":
        exponent = -config.eta * (picp_value - nominal ** 2)
    else:
        exponent = -config.eta * (picp_value - nominal) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        return float((1.0 - pinaw_value) * np.exp(exponent))


def crossing_rate(raw_forecast: QuantileForecast) -> float:
    """Fraction of samples with any strictly decreasing adjacent level pair."""
    values = raw_forecast.values
    if values.shape[0] == 0:
        raise EmptyInput("crossing_rate needs at least one sample")
    crossed = (np.diff(values, axis=1) < 0.0).any(axis=1)
    return float(crossed.mean())


def evaluate(
    actuals,
    forecast: QuantileForecast,
    config: MetricConfig = MetricConfig(),
) -> MetricsReport:
    """Assemble all interval metrics; intervals come from the beta/2 and
    1 - beta/2 levels after monotonic repair."""
    y = np.asarray(actuals, dtype=float).reshape(-1)
    lower, upper = interval_bounds(forecast, config.beta)
    if y.size != lower.size:
        raise LengthMismatch(f"{y.size} actuals vs {lower.size} forecast rows")
    intervals = np.stack([lower, upper], axis=1)
    picp_value = picp(y, intervals)
    pinaw_value = pinaw(y, intervals)
    levels = forecast.levels.levels
    per_level = pinball(forecast.values, y, levels, Workspace())[1]
    return MetricsReport(
        picp=picp_value,
        pinaw=pinaw_value,
        cwc=cwc(picp_value, pinaw_value, config),
        cwc_variant=config.cwc_variant,
        mean_pinball=dict(zip(levels, map(float, per_level))),
        crossing_rate=crossing_rate(forecast),
        n=int(y.size),
        delta_y=float(y.max() - y.min()),
    )


def comparison_row(model_name: str, report: MetricsReport) -> str:
    """One delimited row for the model-comparison table (Model, PICP, CWC)."""
    return f"{model_name}\t{report.picp!r}\t{report.cwc!r}"
