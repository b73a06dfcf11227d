"""Central-finite-difference validation of the analytic gradients.

Pinball loss and ReLU are piecewise linear; a parameter whose perturbation
moves any activation or residual across a kink makes the central difference
meaningless. Such parameters are detected by comparing the activation/
residual sign patterns at +h and -h and excluded from the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ParameterSet, loss_and_grads, loss_value


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    skipped_kinks: int


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
    _, grads = loss_and_grads(spec, params, x, y)
    analytic = np.concatenate([grads[name].ravel() for name in params.arrays])

    rng = np.random.default_rng(seed)
    count = params.flat.size
    picks = rng.choice(count, size=min(num_params, count), replace=False)

    max_rel = 0.0
    checked = 0
    skipped = 0
    for i in picks:
        original = params.flat[i]
        params.flat[i] = original + h
        lp, sig_p = loss_value(spec, params, x, y)
        params.flat[i] = original - h
        lm, sig_m = loss_value(spec, params, x, y)
        params.flat[i] = original
        if sig_p != sig_m:
            skipped += 1
            continue
        numeric = (lp - lm) / (2.0 * h)
        ana = analytic[i]
        # the 1e-6 floor keeps sub-roundoff gradients (difference of two
        # nearly equal losses) from registering as spurious mismatches
        rel = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-6)
        max_rel = max(max_rel, rel)
        checked += 1
    return GradCheckResult(max_rel_error=max_rel, checked=checked,
                           skipped_kinks=skipped)
