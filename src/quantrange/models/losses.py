"""Pinball (quantile) loss and its subgradient: the one objective every
model kind minimizes."""

from __future__ import annotations

import numpy as np


def pinball_loss(q_hat, y, beta: float):
    """Elementwise pinball loss: (1-beta)(q-y) if q >= y else beta(y-q)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    q_hat = np.asarray(q_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = q_hat - y
    return np.where(diff >= 0.0, (1.0 - beta) * diff, -beta * diff)


def pinball_grad(q_hat, y, beta: float):
    """Subgradient wrt q_hat; the kink at q == y takes the q >= y branch."""
    diff = np.asarray(q_hat, dtype=float) - np.asarray(y, dtype=float)
    return np.where(diff >= 0.0, 1.0 - beta, -beta)


def mean_pinball(pred: np.ndarray, y: np.ndarray, levels) -> float:
    """Mean over samples and levels of the pinball loss.

    pred: (N, Q) quantile predictions; y: (N,) targets.
    """
    total = 0.0
    for j, beta in enumerate(levels):
        total += pinball_loss(pred[:, j], y, beta).mean()
    return total / len(levels)


def mean_pinball_grad(pred: np.ndarray, y: np.ndarray, levels) -> np.ndarray:
    """d(mean_pinball)/d(pred), shape (N, Q)."""
    n, q = pred.shape
    grad = np.empty_like(pred)
    for j, beta in enumerate(levels):
        grad[:, j] = pinball_grad(pred[:, j], y, beta)
    return grad / (n * q)

