"""Typed key-value run configuration: the dataclass of every section, and
the loader that builds them from a config file.

Each section's keys are the fields of its dataclass, read by the fields'
annotations. A field declares the values it allows beside its default
(`allow`), and `Section.__post_init__` checks every declaration the same
way; a class writes out only what a range or a list of choices cannot
say, its rules across fields and the delimiter's rules (not empty; `\\t`
is a tab). Unknown sections or keys are hard errors so experiment-config
typos fail fast instead of silently falling back to defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError, InvalidSpec, MissingLevel


class Range:
    """The numbers in an interval written as text, "(0, 1)" or "[0, 1)",
    or above a bound, "> 0" or ">= 1". `in` tests a number; NaN and the
    infinities lie in no range."""

    def __init__(self, text: str):
        self.text = text
        if text[0] in "([":
            low, high = text[1:-1].split(",")
            self.closed = text[0] + text[-1]
        else:
            op, low = text.split()
            high, self.closed = "inf", ("[" if op == ">=" else "(") + ")"
        self.low, self.high = float(low), float(high)

    def __contains__(self, value) -> bool:
        low, high = self.closed
        return ((self.low < value or low == "[" and value == self.low)
                and (value < self.high or high == "]" and value == self.high))

    def __str__(self) -> str:
        return self.text if self.text[0] == ">" else f"in {self.text}"


def allow(allowed, default=MISSING, key: bool = True):
    """A dataclass field whose value, or each entry of a tuple value, is
    None or in `allowed`: a Range's text, or a tuple of choices. `key`
    False: no config key sets it (the loader fills it, or it keeps its
    default)."""
    if isinstance(allowed, str):
        allowed = Range(allowed)
    return field(default=default, metadata={"allowed": allowed, "key": key})


class Section:
    """Base of the section dataclasses: checks each field against the
    values its `allow` declares, naming the field, what it allows and the
    value. A subclass's __post_init__ adds its rules across fields."""

    def __post_init__(self):
        for f in fields(self):
            allowed, value = f.metadata.get("allowed"), getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if allowed is not None and v is not None and v not in allowed:
                    what = allowed if isinstance(allowed, Range) \
                        else f"one of {allowed}"
                    raise InvalidSpec(f"{f.name} must be {what}, not {v!r}")


# --- [synthetic] ---

SYNTHETIC_KINDS = ("gaussian-ar1", "heteroscedastic-ar1", "regime-switch")


@dataclass(frozen=True)
class SyntheticSpec(Section):
    kind: str = allow(SYNTHETIC_KINDS, "gaussian-ar1")
    length: int = allow(">= 2", 5000)
    seed: int = allow(">= 0", 0, key=False)
    phi: float = allow("(-1, 1)", 0.95)         # AR coefficient
    sigma0: float = allow("> 0", 1.0)           # base noise scale
    # heteroscedastic kind: sigma_t = sigma0*(1 + k*|x|)
    vol_sensitivity: float = allow(">= 0", 0.5)
    regime_shift: float = 0.5    # regime-switch kind: drift +/- shift by sign of x
    base_price: float = allow("> 0", 100.0)     # the price at x = 0: tick 0's


# --- [model]: the quantile levels and each kind's spec ---

DEFAULT_LEVELS = (0.05, 0.10, 0.50, 0.90, 0.95)

_LEVEL_TOL = 1e-9


@dataclass(frozen=True)
class QuantileLevels(Section):
    levels: tuple[float, ...] = allow("(0, 1)", DEFAULT_LEVELS)

    def __post_init__(self):
        lv = tuple(float(x) for x in self.levels)
        object.__setattr__(self, "levels", lv)
        super().__post_init__()
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise InvalidSpec("quantile levels must be strictly increasing")

    def __len__(self) -> int:
        return len(self.levels)

    def index_of(self, level: float) -> int:
        for i, x in enumerate(self.levels):
            if abs(x - level) <= _LEVEL_TOL:
                return i
        raise MissingLevel(f"level {level} not among {self.levels}")


@dataclass(frozen=True)
class ModelSpec(Section):
    window_in: int = allow(">= 1", 5, key=False)
    num_features: int = allow(">= 1", 1, key=False)
    num_blocks: int = allow(">= 1", 4)
    num_heads: int = allow(">= 1", 2)
    key_dim: int = allow(">= 1", 8)
    conv_channels: int = allow(">= 1", 16)
    conv_kernel: int = allow(">= 1", 3)
    dense_units: tuple[int, int] = allow(">= 1", (32, 16))
    dropout_rate: float = allow("[0, 1)", 0.1)
    levels: QuantileLevels = field(default_factory=QuantileLevels)
    ln_epsilon: float = allow("> 0", 1e-5, key=False)

    # (weight, bias) parameter names of the dense head, input side first
    head = (("dense1_w", "dense1_b"), ("dense2_w", "dense2_b"),
            ("out_w", "out_b"))

    def __post_init__(self):
        super().__post_init__()
        if self.conv_kernel > self.window_in:
            raise InvalidSpec(f"conv_kernel {self.conv_kernel} exceeds "
                              f"window_in {self.window_in}")

    @property
    def model_dim(self) -> int:
        return self.num_heads * self.key_dim

    @property
    def head_widths(self) -> tuple[int, ...]:
        return (self.model_dim, *self.dense_units, len(self.levels))


@dataclass(frozen=True)
class LinearSpec(Section):
    # flattened window size; 0 = intercept only
    num_inputs: int = allow(">= 0", key=False)
    levels: QuantileLevels = field(default_factory=QuantileLevels)

    head = (("w", "b"),)

    @property
    def head_widths(self) -> tuple[int, ...]:
        return (self.num_inputs, len(self.levels))


@dataclass(frozen=True)
class MLPSpec(Section):
    num_inputs: int = allow(">= 0", key=False)
    hidden: tuple[int, int] = allow(">= 1", (32, 16))
    levels: QuantileLevels = field(default_factory=QuantileLevels)

    head = (("w1", "b1"), ("w2", "b2"), ("w3", "b3"))

    @property
    def head_widths(self) -> tuple[int, ...]:
        return (self.num_inputs, *self.hidden, len(self.levels))


# the spec class of each model kind, by the name `[model] kind` gives it
MODEL_KINDS = {"futurequant": ModelSpec, "quantile-linear": LinearSpec,
               "quantile-mlp": MLPSpec}


# --- the other sections ---

@dataclass(frozen=True)
class TrainConfig(Section):
    learning_rate: float = allow("> 0", 1e-3)
    epochs: int = allow(">= 0", 200)
    # step size in epoch e: lr * lr_decay**e on shuffled mini-batches;
    # None: lr / sqrt(1 + e) on one full batch per epoch, in order
    batch_size: int | None = allow(">= 1", 32)
    seed: int = allow(">= 0", 0, key=False)
    lr_decay: float = allow("> 0", 1.0, key=False)
    gradient_clip: float | None = allow("> 0", None)


CWC_VARIANTS = ("as-printed", "squared-deviation")


@dataclass(frozen=True)
class MetricConfig(Section):
    beta: float = allow("(0, 1)", 0.1)
    eta: float = allow("> 0", 30.0)
    cwc_variant: str = allow(CWC_VARIANTS, "as-printed")


@dataclass(frozen=True)
class IndicatorConfig(Section):
    rsi_period: int = allow(">= 1", 14)
    atr_period: int = allow(">= 1", 14)
    atr_low: float = allow("> 0", 0.01)
    atr_high: float = allow("> 0", 0.03)
    threshold: float = allow("> 0", 1.0)

    def __post_init__(self):
        super().__post_init__()
        if not self.atr_low < self.atr_high:
            raise InvalidSpec(f"atr_low {self.atr_low} is not below "
                              f"atr_high {self.atr_high}")


@dataclass(frozen=True)
class StrategyConfig(Section):
    sell_vs_upper_band: bool = False   # compare the sell branch to the upper band
    transaction_cost: float = allow(">= 0", 0.0)    # per unit traded, currency


@dataclass(frozen=True)
class DataConfig(Section):
    source: str = "synthetic"      # "synthetic" (synth's ticks.csv) or a path
    delimiter: str = ","          # the two characters \t spell a tab
    bar_interval: float = allow("> 0", 30.0)     # seconds
    split_train: float = allow("[0, 1]", 0.7)
    split_val: float = allow("[0, 1]", 0.15)
    split_test: float = allow("[0, 1]", 0.15)
    window_in: int = allow(">= 1", 5)
    stride: int = allow(">= 1", 1)

    def __post_init__(self):
        super().__post_init__()
        if self.delimiter == "\\t":  # configparser strips a literal tab
            object.__setattr__(self, "delimiter", "\t")
        splits = self.split_train + self.split_val + self.split_test
        if abs(splits - 1.0) > 1e-9:
            raise InvalidSpec(f"split fractions sum to {splits}, expected 1")
        if not self.delimiter:
            raise InvalidSpec("delimiter is empty (write \\t for a tab)")


@dataclass(frozen=True)
class BacktestConfig(Section):
    initial_capital: float = allow("> 0", 1_000_000.0)


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    seed: int
    model_kind: str
    specs: dict[str, object]    # every kind's, from the [model] keys it has
    # one field per section but [run] and [model], named as the section
    data: DataConfig
    synthetic: SyntheticSpec
    train: TrainConfig
    metrics: MetricConfig
    indicators: IndicatorConfig
    strategy: StrategyConfig
    backtest: BacktestConfig


# --- reading the file ---

def _bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"not one of {', '.join(states)}")
    return states[raw.lower()]


def _pair(raw: str) -> tuple[int, int]:
    first, second = map(int, raw.split(","))
    return first, second


# readers by field annotation (postponed, so a string); `int | None` and
# `float | None` fields take a number, never None
_PARSE = {
    "int": int, "int | None": int, "float": float, "float | None": float,
    "str": str, "bool": _bool, "tuple[int, int]": _pair,
    "QuantileLevels": lambda v: QuantileLevels(v.split(",")),
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


# the dataclass of each section RunConfig holds as a field of that name
_SECTION_CLASSES = {f.name: globals()[f.type] for f in fields(RunConfig)
                    if f.type in globals()}


def _keys(*classes) -> dict[str, str]:
    return {f.name: f.type for cls in classes for f in fields(cls)
            if f.metadata.get("key", True)}


# each section's keys and their annotations; [model] is `kind` and the
# fields of every kind's spec class
_SCHEMA = {
    "run": {"out_dir": "str", "seed": "int"},
    "model": {"kind": "str", **_keys(*MODEL_KINDS.values())},
    **{section: _keys(cls) for section, cls in _SECTION_CLASSES.items()},
}


def _build(section: str, cls, values: dict):
    """cls from the `values` that name its fields, with a value the class
    rejects reported as a ConfigError naming the section."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in values.items() if k in names})
    except InvalidSpec as exc:
        raise ConfigError(f"[{section}] {exc}") from None


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
    sections = {section: _build(section, cls,
                                {"seed": seed, **values[section]})
                for section, cls in _SECTION_CLASSES.items()}
    kind = values["model"].pop("kind", "futurequant")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"[model] kind must be one of {tuple(MODEL_KINDS)}")
    # the fields no [model] key sets; one feature (the close) a bar
    window_in = sections["data"].window_in
    filled = {"window_in": window_in, "num_features": 1,
              "num_inputs": window_in}
    cfg = RunConfig(
        out_dir=out_override or run.get("out_dir", "out"), seed=seed,
        model_kind=kind, **sections,
        specs={name: _build("model", cls, {**filled, **values["model"]})
               for name, cls in MODEL_KINDS.items()})
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
