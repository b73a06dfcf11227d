from .forecast import (
    DEFAULT_LEVELS,
    QuantileForecast,
    QuantileLevels,
    interval_bounds,
    load_forecast,
    repair_monotonic,
    save_forecast,
)
from .losses import mean_pinball, pinball_loss
from .network import (
    KINDS,
    LinearSpec,
    MLPSpec,
    ModelKind,
    ModelSpec,
    ParameterSet,
    forward,
    init_params,
    loss_and_grads,
    zero_params,
)
from .training import TrainConfig, train
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "DEFAULT_LEVELS", "QuantileForecast", "QuantileLevels",
    "interval_bounds", "load_forecast", "repair_monotonic", "save_forecast",
    "mean_pinball", "pinball_loss",
    "KINDS", "LinearSpec", "MLPSpec", "ModelKind", "ModelSpec",
    "ParameterSet", "forward", "init_params",
    "loss_and_grads", "zero_params",
    "TrainConfig", "train", "load_checkpoint", "save_checkpoint",
]
