"""Training of any model kind with pluggable optimizers.

Runs are deterministic for a given (spec, dataset, seed): fixed init,
fixed shuffle order, serial batch reduction, float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss
from .network import ParameterSet, init_params, loss_and_grads, loss_value

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

LR_SCHEDULES = ("exponential", "inverse-sqrt")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int | None = 32    # None: one full batch per epoch, in order
    seed: int = 0
    optimizer: str = "adam"        # "sgd" | "momentum" | "adam"
    # step size in epoch e: "exponential" lr * lr_decay**e,
    # "inverse-sqrt" lr / sqrt(1 + e)
    lr_schedule: str = "exponential"
    lr_decay: float = 1.0
    momentum: float = 0.9
    gradient_clip: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {LR_SCHEDULES}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.gradient_clip is not None and not self.gradient_clip > 0:
            raise ValueError("gradient_clip must be positive")


class Optimizer:
    """Updates a ParameterSet in place, as one step over its flat vector."""

    def __init__(self, config: TrainConfig, params: ParameterSet):
        self.config = config
        self.lr = config.learning_rate
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params: ParameterSet, grads: dict) -> None:
        cfg = self.config
        self.t += 1
        g = np.concatenate([grads[name].ravel() for name in params.arrays])
        if cfg.gradient_clip is not None:
            # the norm sums per array, in the order the backward pass gave
            total = np.sqrt(sum(float((a ** 2).sum()) for a in grads.values()))
            if total > cfg.gradient_clip:
                g *= cfg.gradient_clip / total
        if cfg.optimizer == "sgd":
            params.flat -= self.lr * g
        elif cfg.optimizer == "momentum":
            self.m = cfg.momentum * self.m + g
            params.flat -= self.lr * self.m
        else:  # adam
            self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * g
            self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * g * g
            mhat = self.m / (1 - ADAM_BETA1 ** self.t)
            vhat = self.v / (1 - ADAM_BETA2 ** self.t)
            params.flat -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPSILON)


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

    history: list[float] = []
    initial, _ = loss_value(spec, params, inputs, targets)
    history.append(initial)
    for epoch in range(config.epochs):
        if config.lr_schedule == "inverse-sqrt":
            opt.lr = config.learning_rate / np.sqrt(1.0 + epoch)
        else:
            opt.lr = config.learning_rate * config.lr_decay ** epoch
        if config.batch_size is None:
            batches = [slice(None)]     # a view: no copy of the data
        else:
            order = rng.permutation(n)
            batches = [order[start:start + config.batch_size]
                       for start in range(0, n, config.batch_size)]
        losses = []
        for idx in batches:
            value, grads = loss_and_grads(
                spec, params, inputs[idx], targets[idx],
                mode="train", rng=dropout_rng,
            )
            opt.step(params, grads)
            losses.append(value)
        if not params.all_finite():
            raise NonFiniteLoss(f"training diverged at epoch {epoch}")
        history.append(sum(losses) / len(losses))
    return params, history
