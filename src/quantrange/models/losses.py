"""Pinball (quantile) loss and its subgradient: the one objective every
model kind minimizes, and the one implementation of it."""

from __future__ import annotations

import numpy as np

from ..errors import EmptyInput, LengthMismatch
from .layers import Workspace


def pinball(pred, y, levels, ws: Workspace):
    """The pinball loss of quantile predictions pred, (N, Q), at `levels`
    against N targets y of any shape, such as (N,) or (N, 1): the mean over
    levels, each level's mean over samples, and the subgradient of that
    mean wrt pred, (N, Q). A level's loss is (1-beta)(q-y) if q >= y else
    beta(y-q), from one difference per level, in buffers of the workspace
    ws; the kink at q == y takes the q >= y branch."""
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    n, q = pred.shape
    if y.size != n:
        raise LengthMismatch(f"{y.size} targets vs {n} predictions")
    if n == 0:
        raise EmptyInput("the pinball loss needs at least one sample")
    y = y.reshape(-1)
    diff, loss, col = ws.empty((n,)), ws.empty((n,)), ws.empty((n,))
    above = ws.empty((n,), bool)
    grad = ws.empty((n, q))
    per_level = []
    for j, beta in enumerate(levels):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"level {beta!r} must lie in (0, 1)")
        np.subtract(pred[:, j], y, out=diff)
        np.greater_equal(diff, 0.0, out=above)
        np.multiply(diff, -beta, out=loss)
        np.putmask(loss, above, np.multiply(diff, 1.0 - beta, out=col))
        per_level.append(loss.sum() / n)        # loss.mean()
        # the where() of 1 - beta and -beta, divided by n * q
        col.fill(-beta / (n * q))
        np.putmask(col, above, (1.0 - beta) / (n * q))
        grad[:, j] = col
    return sum(per_level) / len(per_level), per_level, grad


def mean_pinball(pred, y, levels) -> float:
    """pinball's mean over samples and levels, on a fresh workspace."""
    return pinball(pred, y, levels, Workspace())[0]
