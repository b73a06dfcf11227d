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
    encoder_block,
    forward,
    init_params,
    loss_and_grads,
    zero_params,
)
from .training import TrainConfig, train
from .gradcheck import GradCheckResult, gradient_check
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "DEFAULT_LEVELS", "QuantileForecast", "QuantileLevels",
    "interval_bounds", "load_forecast", "repair_monotonic", "save_forecast",
    "mean_pinball", "pinball_loss",
    "KINDS", "LinearSpec", "MLPSpec", "ModelKind", "ModelSpec",
    "ParameterSet", "encoder_block", "forward", "init_params",
    "loss_and_grads", "zero_params",
    "TrainConfig", "train", "GradCheckResult", "gradient_check",
    "load_checkpoint", "save_checkpoint",
]
