"""Dependency-free SVG line chart (a hand-emitted polyline)."""

from __future__ import annotations

import numpy as np


def polyline_chart(values: np.ndarray, label: str, title: str) -> str:
    """One labelled series, scaled to its own range, on an 800x300 canvas
    with a 40-pixel margin."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1.0
    n = len(values)
    xs = 40 + 720 * (np.arange(n) / max(n - 1, 1))
    ys = 40 + 220 * (1.0 - (values - lo) / (hi - lo))
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="300" '
        'viewBox="0 0 800 300">',
        '<rect width="800" height="300" fill="white"/>',
        '<text x="400" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{points}"/>',
        '<text x="40" y="54" fill="#1f77b4" font-family="sans-serif" '
        f'font-size="12">{label}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
