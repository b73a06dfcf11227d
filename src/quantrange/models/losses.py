"""Pinball (quantile) loss and its subgradient: the one objective every
model kind minimizes."""

from __future__ import annotations

import numpy as np

from ..errors import LengthMismatch


def pinball_loss(q_hat, y, beta: float):
    """Elementwise pinball loss: (1-beta)(q-y) if q >= y else beta(y-q)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    q_hat = np.asarray(q_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = q_hat - y
    return np.where(diff >= 0.0, (1.0 - beta) * diff, -beta * diff)


def mean_pinball(pred: np.ndarray, y: np.ndarray, levels) -> float:
    """Mean over samples and levels of the pinball loss.

    pred: (N, Q) quantile predictions; y: N targets of any shape, such as
    (N,) or (N, 1).
    """
    y = np.asarray(y, dtype=float)
    if y.size != len(pred):
        raise LengthMismatch(f"{y.size} targets vs {len(pred)} predictions")
    y = y.reshape(-1)
    total = 0.0
    for j, beta in enumerate(levels):
        total += pinball_loss(pred[:, j], y, beta).mean()
    return total / len(levels)


def mean_pinball_and_grad(pred: np.ndarray, y: np.ndarray, levels, ws):
    """mean_pinball(pred, y, levels) and its subgradient wrt pred, (N, Q),
    from one difference per level, in buffers of the workspace ws. The kink
    at pred == y takes the pred >= y branch."""
    n, q = pred.shape
    if y.size != n:
        raise LengthMismatch(f"{y.size} targets vs {n} predictions")
    y = y.reshape(-1)
    diff, loss, col = ws.empty((n,)), ws.empty((n,)), ws.empty((n,))
    above = ws.empty((n,), bool)
    grad = ws.empty((n, q))
    total = 0.0
    for j, beta in enumerate(levels):
        np.subtract(pred[:, j], y, out=diff)
        np.greater_equal(diff, 0.0, out=above)
        np.multiply(diff, -beta, out=loss)
        np.putmask(loss, above, np.multiply(diff, 1.0 - beta, out=col))
        total += loss.sum() / n                 # loss.mean()
        # the where() of 1 - beta and -beta, divided by n * q
        col.fill(-beta / (n * q))
        np.putmask(col, above, (1.0 - beta) / (n * q))
        grad[:, j] = col
    return total / len(levels), grad
