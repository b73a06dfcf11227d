"""Per-tick reference renderer and generator for the differential tests.

`to_tick_text` is the f-string renderer `quantrange.synthetic` used before
ticks were rendered as byte columns, and `generate_prices` is the loop that
stepped the path over numpy float64 scalars. The tests compare the package
with them byte for byte; nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from quantrange.config import SyntheticSpec
from quantrange.synthetic import _drift, _sigma


def generate_prices(spec: SyntheticSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    x = np.empty(spec.length)
    x[0] = 0.0
    noise = rng.standard_normal(spec.length - 1)
    for t in range(1, spec.length):
        prev = x[t - 1]
        x[t] = _drift(spec, prev) + _sigma(spec, prev) * noise[t - 1]
    prices = spec.base_price + x
    return prices


def to_tick_text(prices: np.ndarray) -> str:
    """Render a price path in the tick text format so the whole ingestion
    pipeline runs unchanged on synthetic input. One tick per price every
    0.5 s from 09:00:00; spread of one price unit around last; cumulative
    volume grows by one."""
    lines = ["UpdateTime,UpdateMillisec,LastPrice,Volume,"
             "BidPrice1,BidVolume1,AskPrice1,AskVolume1"]
    for i, p in enumerate(prices):
        hh, rem = divmod(9 * 3600 + i // 2, 3600)
        mm, ss = divmod(rem, 60)
        lines.append(
            f"{hh:02d}:{mm:02d}:{ss:02d},{500 * (i % 2)},{p:.6f},{i + 1},"
            f"{p - 0.5:.6f},1,{p + 0.5:.6f},1"
        )
    return "\n".join(lines) + "\n"
