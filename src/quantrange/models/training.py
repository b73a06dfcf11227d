"""Training of any model kind with Adam.

Runs are deterministic for a given (spec, dataset, seed): fixed init,
fixed shuffle order, serial batch reduction, float64 throughout.
"""

from __future__ import annotations

import numpy as np

from ..config import TrainConfig
from ..errors import NonFiniteLoss
from .layers import Workspace
from .network import ParameterSet, init_params, loss_and_grads, loss_value

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Optimizer:
    """One Adam step on a ParameterSet, in place over its flat vector.
    m, v and flat change in place, through two scratch vectors, with every
    product and sum of the plain update expressions in its order."""

    def __init__(self, config: TrainConfig, params: ParameterSet):
        self.config = config
        self.lr = config.learning_rate
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = np.empty((2, params.flat.size))

    def step(self, params: ParameterSet, grads: dict) -> None:
        cfg = self.config
        self.t += 1
        g, tmp = self.scratch
        np.concatenate([grads[name].ravel() for name in params.arrays], out=g)
        if cfg.gradient_clip is not None:
            # the norm sums per array, in the order the backward pass gave
            total = np.sqrt(sum(float(np.square(a.ravel(), out=tmp[:a.size])
                                      .sum()) for a in grads.values()))
            if total > cfg.gradient_clip:
                g *= cfg.gradient_clip / total
        self.m *= ADAM_BETA1                # b1 * m + (1 - b1) * g
        self.m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
        self.v *= ADAM_BETA2                # b2 * v + (1 - b2) * g * g
        np.multiply(g, 1 - ADAM_BETA2, out=tmp)
        self.v += np.multiply(tmp, g, out=tmp)
        # lr * mhat / (sqrt(vhat) + eps)
        np.divide(self.m, 1 - ADAM_BETA1 ** self.t, out=tmp)
        tmp *= self.lr
        np.sqrt(np.divide(self.v, 1 - ADAM_BETA2 ** self.t, out=g), out=g)
        g += ADAM_EPSILON
        params.flat -= np.divide(tmp, g, out=tmp)


def _rows(a: np.ndarray, idx, ws: Workspace) -> np.ndarray:
    """a[idx] in a buffer of ws, or all of a when idx is None; the indices
    are in range, so mode "clip" only spares numpy a copy of out."""
    return a if idx is None else np.take(
        a, idx, axis=0, out=ws.empty((len(idx), *a.shape[1:])), mode="clip")


def train(
    spec,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig,
) -> tuple[ParameterSet, list[float]]:
    """Minimize the mean pinball loss over all quantile levels, for a spec
    of any kind.

    inputs: (N, T, F), or (N, P) for the linear and MLP kinds; targets:
    (N,) or (N, 1). Returns the trained parameters and the loss curve:
    entry 0 is the full-set eval-mode loss at initialisation, entry e the
    mean of epoch e's mini-batch losses.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = inputs.shape[0]
    if n == 0:
        raise NonFiniteLoss("empty dataset")

    rng = np.random.default_rng(config.seed)
    params = init_params(spec, rng)
    opt = Optimizer(config, params)
    dropout_rng = np.random.default_rng(config.seed + 1)

    history = [loss_value(spec, params, inputs, targets)]
    ws = Workspace()    # every step's buffers, sized by the first batch
    for epoch in range(config.epochs):
        if config.batch_size is None:
            opt.lr = config.learning_rate / np.sqrt(1.0 + epoch)
            batches = [None]            # all of the data, not a copy
        else:
            opt.lr = config.learning_rate * config.lr_decay ** epoch
            order = rng.permutation(n)
            batches = [order[start:start + config.batch_size]
                       for start in range(0, n, config.batch_size)]
        losses = []
        for idx in batches:
            ws.reset()
            value, grads = loss_and_grads(spec, params, _rows(inputs, idx, ws),
                                          _rows(targets, idx, ws), dropout_rng,
                                          ws)
            opt.step(params, grads)
            losses.append(value)
        if not params.all_finite():
            raise NonFiniteLoss(f"training diverged at epoch {epoch}")
        history.append(sum(losses) / len(losses))
    return params, history
