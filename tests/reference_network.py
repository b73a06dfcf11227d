"""Verification-only views of the network: the central-difference gradient
checker and one encoder block run on its own.

Pinball loss and ReLU are piecewise linear; a parameter whose perturbation
moves any activation or residual across a kink makes the central difference
meaningless. The checker detects such parameters by comparing the ReLU
activation patterns and residual signs at +h and -h, read from the caches
of `forward_raw`, and excludes them. Nothing in the package imports this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantrange.config import ModelSpec
from quantrange.models.layers import Workspace
from quantrange.models.losses import mean_pinball
from quantrange.models.network import (
    ParameterSet,
    _block_forward,
    forward_raw,
    loss_and_grads,
)


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    skipped_kinks: int


def relu_masks(caches) -> list[np.ndarray]:
    """Every ReLU's activation pattern in the caches of `forward_raw`: each
    encoder block's feed-forward ReLU, then the dense head's hidden layers."""
    body, head = caches
    # a futurequant body caches (input, blocks, pooling), and each block
    # holds its relu_mask at index 5; the head caches (linear, mask) pairs
    blocks = [] if body is None else body[1]
    return ([block[5] for block in blocks]
            + [mask for _, mask in head if mask is not None])


def loss_and_signature(spec, params: ParameterSet, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, bytes]:
    """Eval-mode mean pinball loss plus the kink signature of the point:
    each ReLU's activation pattern, then the residual signs, bit-packed."""
    out, caches = forward_raw(spec, params, x, None, Workspace())
    value = float(mean_pinball(out, y, spec.levels.levels))
    signature = b"".join(np.packbits(m.ravel()).tobytes()
                         for m in [*relu_masks(caches), out >= y[:, None]])
    return value, signature


def central_difference(spec, params: ParameterSet, x: np.ndarray,
                       y: np.ndarray, i: int, h: float) -> tuple[float, bool]:
    """The central difference of the loss along flat coordinate i, and
    whether +h and -h see the same kink signature. Leaves params as given."""
    original = params.flat[i]
    params.flat[i] = original + h
    lp, sig_p = loss_and_signature(spec, params, x, y)
    params.flat[i] = original - h
    lm, sig_m = loss_and_signature(spec, params, x, y)
    params.flat[i] = original
    return (lp - lm) / (2.0 * h), sig_p == sig_m


def gradient_check(
    spec,
    params: ParameterSet,
    x: np.ndarray,
    y: np.ndarray,
    num_params: int = 200,
    h: float = 1e-5,
    seed: int = 0,
) -> GradCheckResult:
    """Compare analytic gradients to central differences on a random
    subsample of parameter coordinates. Pure: params are left unchanged."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    _, grads = loss_and_grads(spec, params, x, y, None, Workspace())
    analytic = np.concatenate([grads[name].ravel() for name in params.arrays])

    rng = np.random.default_rng(seed)
    count = params.flat.size
    picks = rng.choice(count, size=min(num_params, count), replace=False)

    max_rel = 0.0
    checked = 0
    skipped = 0
    for i in picks:
        numeric, smooth = central_difference(spec, params, x, y, i, h)
        if not smooth:
            skipped += 1
            continue
        ana = analytic[i]
        # the 1e-6 floor keeps sub-roundoff gradients (difference of two
        # nearly equal losses) from registering as spurious mismatches
        rel = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-6)
        max_rel = max(max_rel, rel)
        checked += 1
    return GradCheckResult(max_rel_error=max_rel, checked=checked,
                           skipped_kinks=skipped)


def encoder_block(
    x: np.ndarray,
    params: ParameterSet,
    spec: ModelSpec,
    block_index: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One encoder block on a (T, d) or (N, T, d) array; shape-preserving."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    y, _ = _block_forward(x, params, f"block{block_index}_", spec, rng,
                          Workspace())
    return y[0] if squeeze else y
