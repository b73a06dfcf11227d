"""Typed key-value run configuration with per-module sections.

Each section's keys are the fields of its dataclass, read by the fields'
annotations. Unknown sections or keys are hard errors so experiment-config
typos fail fast instead of silently falling back to defaults.
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


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"      # "synthetic" (synth's ticks.csv) or a path
    delimiter: str = ","
    bar_interval: float = 30.0     # seconds
    split_train: float = 0.7
    split_val: float = 0.15
    split_test: float = 0.15
    window_in: int = 5
    window_out: int = 1
    stride: int = 1

    def __post_init__(self):
        splits = self.split_train + self.split_val + self.split_test
        if abs(splits - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {splits}, expected 1")
        if not self.delimiter:
            raise ValueError("delimiter is empty")
        if not self.bar_interval > 0:
            raise ValueError(f"bar_interval {self.bar_interval} is not > 0")
        if self.window_in < 1:
            raise ValueError(f"window_in {self.window_in} is not >= 1")
        if self.stride < 1:
            raise ValueError(f"stride {self.stride} is not >= 1")
        if self.window_out != 1:
            raise ValueError("window_out: the models predict one step ahead, "
                             f"so it must be 1, not {self.window_out}")


@dataclass(frozen=True)
class BacktestConfig:
    initial_capital: float = 1_000_000.0
    horizons: dict[str, int] = field(default_factory=dict)  # name -> bars

    def __post_init__(self):
        if not self.initial_capital > 0:
            raise ValueError(
                f"initial_capital {self.initial_capital} is not > 0")


def _horizons(raw: str) -> dict[str, int]:
    horizons: dict[str, int] = {}
    for item in filter(None, (s.strip() for s in raw.split(","))):
        name, _, bars = item.partition(":")
        if not name or not bars.strip().isdecimal() or name in horizons:
            raise ValueError(f"bad entry {item!r}: expected name:bars with a "
                             "new name and bars >= 0")
        horizons[name] = int(bars)
    return horizons


def _bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"not one of {', '.join(states)}")
    return states[raw.lower()]


# readers by field annotation (postponed, so a string); `int | None` and
# `float | None` fields take a number, never None
_PARSE = {
    "int": int, "int | None": int, "float": float, "float | None": float,
    "str": str, "bool": _bool,
    "tuple[int, int]": lambda v: tuple(map(int, v.split(","))),
    "QuantileLevels": lambda v: QuantileLevels(v.split(",")),
    "dict[str, int]": _horizons,
}


def parse_value(annotation: str, raw: str):
    """`raw`, a config value or a checkpoint header value, read as the field
    annotation `annotation`. A value it cannot read, or a non-finite float,
    raises a ValueError whose text follows the key's name."""
    try:
        value = _PARSE[annotation](raw)
    except ValueError as exc:
        raise ValueError(f"must be {annotation}, not {raw!r} ({exc})") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"must be finite, not {raw!r}")
    return value


# the dataclass of each section but [run], [data] and [model]
_SECTIONS = {"synthetic": SyntheticSpec, "train": TrainConfig,
             "metrics": MetricConfig, "indicators": IndicatorConfig,
             "strategy": StrategyConfig, "backtest": BacktestConfig}
# fields that no key sets: the loader fills the first four from [run] and
# [data], and the rest keep their defaults
_UNSET = ("seed", "window_in", "num_features", "num_inputs", "ln_epsilon",
          "lr_schedule", "lr_decay")


def _keys(*classes, unset=_UNSET) -> dict[str, str]:
    return {f.name: f.type for cls in classes for f in fields(cls)
            if f.name not in unset}


# each section's keys and their annotations; [model] is `kind` and the
# fields of every kind's spec class
_SCHEMA = {
    "run": {"out_dir": "str", "seed": "int"},
    "data": _keys(DataConfig, unset=()),
    "model": {"kind": "str", **_keys(*(e.spec_class for e in KINDS.values()))},
    **{section: _keys(cls) for section, cls in _SECTIONS.items()},
}


def _build(section: str, cls, values: dict):
    """cls from the `values` that name its fields, with a value the class
    rejects reported as a ConfigError naming the section."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in values.items() if k in names})
    except (ValueError, InvalidSpec) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    seed: int
    model_kind: str
    specs: dict[str, object]    # every kind's, from the [model] keys it has
    data: DataConfig
    synthetic: SyntheticSpec
    train: TrainConfig
    metrics: MetricConfig
    indicators: IndicatorConfig
    strategy: StrategyConfig
    backtest: BacktestConfig


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        items = {name: parser.items(name) for name in parser.sections()}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section, pairs in items.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in pairs:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = parse_value(_SCHEMA[section][key], raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} {exc}") from None

    run = values["run"]
    seed = seed_override if seed_override is not None else run.get("seed", 0)
    if seed < 0:
        where = "--seed" if seed_override is not None else "[run] seed"
        raise ConfigError(f"{where} {seed} is not >= 0")
    data = _build("data", DataConfig, values["data"])
    kind = values["model"].pop("kind", "futurequant")
    if kind not in KINDS:
        raise ConfigError(f"[model] kind must be one of {tuple(KINDS)}")
    # the _UNSET fields from [run] and [data]; one feature (the close) a bar
    filled = {"seed": seed, "window_in": data.window_in, "num_features": 1,
              "num_inputs": data.window_in}
    cfg = RunConfig(
        out_dir=out_override or run.get("out_dir", "out"), seed=seed,
        model_kind=kind, data=data,
        specs={name: _build("model", entry.spec_class,
                            {**filled, **values["model"]})
               for name, entry in KINDS.items()},
        **{section: _build(section, cls, {**filled, **values[section]})
           for section, cls in _SECTIONS.items()})
    levels, beta = cfg.specs[kind].levels, cfg.metrics.beta
    for level, needs in ((beta / 2, f"[metrics] beta = {beta}"),
                         (1 - beta / 2, f"[metrics] beta = {beta}"),
                         (0.05, "the backtest's lower band"),
                         (0.95, "the backtest's upper band")):
        try:
            levels.index_of(level)
        except MissingLevel:
            raise ConfigError(f"[model] levels {levels.levels} lack "
                              f"{level!r}, which {needs} needs") from None
    return cfg
