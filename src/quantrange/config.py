"""Typed key-value run configuration with per-module sections.

Unknown sections or keys are hard errors so experiment-config typos fail
fast instead of silently falling back to defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError, InvalidSpec, MissingLevel
from .indicators import IndicatorConfig
from .interval_metrics import MetricConfig
from .models.forecast import QuantileLevels
from .models.network import KINDS
from .models.training import TrainConfig
from .strategy import StrategyConfig
from .synthetic import SyntheticSpec

_SCHEMA: dict[str, dict[str, str]] = {
    "run": {"out_dir": "str", "seed": "int"},
    "data": {
        "source": "str", "delimiter": "str", "bar_interval": "float",
        "split_train": "float", "split_val": "float", "split_test": "float",
        "window_in": "int", "window_out": "int", "stride": "int",
    },
    "synthetic": {
        "kind": "str", "length": "int", "phi": "float", "sigma0": "float",
        "vol_sensitivity": "float", "regime_shift": "float",
        "base_price": "float",
    },
    "model": {
        "kind": "str", "num_blocks": "int", "num_heads": "int",
        "key_dim": "int", "conv_channels": "int", "conv_kernel": "int",
        "dense_units": "ints", "dropout_rate": "float", "levels": "floats",
        "hidden": "ints",
    },
    "train": {
        "learning_rate": "float", "epochs": "int", "batch_size": "int",
        "optimizer": "str", "momentum": "float", "gradient_clip": "float",
    },
    "metrics": {"beta": "float", "eta": "float", "cwc_variant": "str"},
    "indicators": {
        "rsi_period": "int", "atr_period": "int", "atr_low": "float",
        "atr_high": "float", "threshold": "float",
    },
    "strategy": {"sell_vs_upper_band": "bool", "transaction_cost": "float"},
    "backtest": {"initial_capital": "float", "horizons": "str"},
}


def _convert(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key]
    try:
        if kind == "int":
            return int(raw)
        if kind in ("float", "floats"):
            values = ([float(raw)] if kind == "float"
                      else [float(x) for x in raw.split(",")])
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"[{section}] {key} must be finite, "
                                  f"not {raw!r}")
            return values[0] if kind == "float" else tuple(values)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(x) for x in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}")


def _build(section: str, cls, **kwargs):
    """cls(**kwargs), with a value the class rejects reported as a
    ConfigError naming the section."""
    try:
        return cls(**kwargs)
    except (ValueError, InvalidSpec) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


@dataclass
class RunConfig:
    out_dir: str = "out"
    seed: int = 0
    source: str = "synthetic"
    delimiter: str = ","
    bar_interval: float = 30.0
    split_train: float = 0.7
    split_val: float = 0.15
    split_test: float = 0.15
    window_in: int = 5
    stride: int = 1
    model_kind: str = "futurequant"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    # the spec of every model kind, each built from the [model] keys its
    # spec class has
    specs: dict[str, object] = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    initial_capital: float = 1_000_000.0
    horizons: dict[str, int] = field(default_factory=dict)


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        items = {name: parser.items(name) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    values: dict[str, dict] = {}
    for section, pairs in items.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in pairs:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _convert(section, key, raw)

    def sec(name: str) -> dict:
        return values.get(name, {})

    cfg = RunConfig()
    run = sec("run")
    cfg.out_dir = out_override or run.get("out_dir", cfg.out_dir)
    cfg.seed = seed_override if seed_override is not None \
        else run.get("seed", cfg.seed)
    if cfg.seed < 0:
        where = "--seed" if seed_override is not None else "[run] seed"
        raise ConfigError(f"{where} {cfg.seed} is not >= 0")

    data = dict(sec("data"))
    window_out = data.pop("window_out", 1)
    for name, value in data.items():
        setattr(cfg, name, value)
    splits = cfg.split_train + cfg.split_val + cfg.split_test
    if abs(splits - 1.0) > 1e-9:
        raise ConfigError(f"split fractions sum to {splits}, expected 1")
    if not cfg.delimiter:
        raise ConfigError("[data] delimiter is empty")
    if not cfg.bar_interval > 0:
        raise ConfigError(f"[data] bar_interval {cfg.bar_interval} is not > 0")
    if cfg.stride < 1:
        raise ConfigError(f"[data] stride {cfg.stride} is not >= 1")
    if window_out != 1:
        raise ConfigError("[data] window_out: the models predict one step "
                          f"ahead, so it must be 1, not {window_out}")

    cfg.synthetic = _build("synthetic", SyntheticSpec, seed=cfg.seed,
                           **sec("synthetic"))

    model = dict(sec("model"))
    cfg.model_kind = model.pop("kind", cfg.model_kind)
    if cfg.model_kind not in KINDS:
        raise ConfigError(f"model kind must be one of {tuple(KINDS)}")
    if "levels" in model:
        model["levels"] = _build("model", QuantileLevels, levels=model["levels"])
    # one feature (the close) per bar
    model.update(window_in=cfg.window_in, num_features=1,
                 num_inputs=cfg.window_in)
    for kind, entry in KINDS.items():
        names = {f.name for f in fields(entry.spec_class)}
        cfg.specs[kind] = _build("model", entry.spec_class, **{
            k: v for k, v in model.items() if k in names})

    cfg.train = _build("train", TrainConfig, seed=cfg.seed, **sec("train"))
    cfg.metrics = _build("metrics", MetricConfig, **sec("metrics"))
    levels, beta = cfg.specs[cfg.model_kind].levels, cfg.metrics.beta
    for level, needs in ((beta / 2, f"[metrics] beta = {beta}"),
                         (1 - beta / 2, f"[metrics] beta = {beta}"),
                         (0.05, "the backtest's lower band"),
                         (0.95, "the backtest's upper band")):
        try:
            levels.index_of(level)
        except MissingLevel:
            raise ConfigError(f"[model] levels {levels.levels} lack "
                              f"{level!r}, which {needs} needs") from None
    cfg.indicators = _build("indicators", IndicatorConfig, **sec("indicators"))
    cfg.strategy = _build("strategy", StrategyConfig, **sec("strategy"))

    bt = sec("backtest")
    cfg.initial_capital = bt.get("initial_capital", cfg.initial_capital)
    if not cfg.initial_capital > 0:
        raise ConfigError("[backtest] initial_capital "
                          f"{cfg.initial_capital} is not > 0")
    horizons_raw = bt.get("horizons", "")
    horizons: dict[str, int] = {}
    for item in filter(None, (s.strip() for s in horizons_raw.split(","))):
        name, _, bars = item.partition(":")
        if not name or not bars.strip().isdecimal():
            raise ConfigError(f"[backtest] horizons: bad entry {item!r}, "
                              "expected name:bars with bars >= 0")
        if name in horizons:
            raise ConfigError(f"[backtest] horizons: {name!r} appears twice")
        horizons[name] = int(bars)
    cfg.horizons = horizons
    return cfg
