"""The config dataclasses: every section class is defined in `config`,
every numeric field declares the values it allows or is listed here as
deliberately unbounded, and one check enforces the declarations, naming
the field, what it allows and the value."""

import ast
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from quantrange import config
from quantrange.config import Range, Section
from quantrange.errors import InvalidSpec

SRC = Path(__file__).resolve().parent.parent / "src"

SECTION_CLASSES = [obj for obj in vars(config).values()
                   if isinstance(obj, type) and is_dataclass(obj)
                   and obj is not config.RunConfig]

NUMERIC = ("int", "float", "int | None", "float | None", "tuple[int, int]",
           "tuple[float, ...]")

# "Class.field" -> why its field declares no range
UNBOUNDED = {
    "SyntheticSpec.regime_shift":
        "a drift of either sign: the regime-switch kind adds +shift above "
        "x = 0 and -shift below, and a negative shift is a valid process",
}

# values for the fields that have no default
REQUIRED = {"num_inputs": 1}


def test_every_section_class_is_a_section():
    assert {cls.__name__ for cls in SECTION_CLASSES} == {
        "SyntheticSpec", "QuantileLevels", "ModelSpec", "LinearSpec",
        "MLPSpec", "TrainConfig", "MetricConfig", "IndicatorConfig",
        "StrategyConfig", "DataConfig", "BacktestConfig"}
    assert all(issubclass(cls, Section) for cls in SECTION_CLASSES)


def test_no_section_class_outside_config():
    """No other module defines a dataclass named as a section class is."""
    for path in SRC.rglob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.decorator_list:
                assert not node.name.endswith(("Config", "Spec", "Levels")), (
                    f"{path.name} defines {node.name}")


def test_every_numeric_field_declares_its_range():
    """A new numeric key cannot land unchecked: it declares its range, or
    it is added to UNBOUNDED with the reason."""
    undeclared = [f"{cls.__name__}.{f.name}" for cls in SECTION_CLASSES
                  for f in fields(cls) if f.type in NUMERIC
                  and f.metadata.get("allowed") is None]
    assert sorted(undeclared) == sorted(UNBOUNDED)


def just_outside(annotation: str, allowed: Range):
    """The nearest value of `annotation` below `allowed`'s lower bound."""
    if allowed.closed[0] == "(":
        return allowed.low
    if "int" in annotation:
        return int(allowed.low) - 1
    return math.nextafter(allowed.low, -math.inf)


RANGED = [(cls, f) for cls in SECTION_CLASSES for f in fields(cls)
          if isinstance(f.metadata.get("allowed"), Range)]


@pytest.mark.parametrize("cls, f", RANGED,
                         ids=[f"{c.__name__}.{f.name}" for c, f in RANGED])
def test_check_names_field_range_and_value(cls, f):
    allowed = f.metadata["allowed"]
    bad = just_outside(f.type, allowed)
    value = (bad, bad) if f.type.startswith("tuple") else bad
    args = {k: v for k, v in REQUIRED.items()
            if k in {g.name for g in fields(cls)}}
    with pytest.raises(InvalidSpec) as exc:
        cls(**{**args, f.name: value})
    assert str(exc.value) == f"{f.name} must be {allowed}, not {bad!r}"


def test_choice_error_lists_the_choices():
    with pytest.raises(InvalidSpec) as exc:
        config.MetricConfig(cwc_variant="bogus")
    assert str(exc.value) == ("cwc_variant must be one of ('as-printed', "
                              "'squared-deviation'), not 'bogus'")


@pytest.mark.parametrize("text, inside, outside, shown", [
    ("[0, 1]", [0.0, 0.5, 1.0], [-5e-324, 1.0000000000000002], "in [0, 1]"),
    ("[0, 1)", [0.0, 0.9999999999999999], [-5e-324, 1.0], "in [0, 1)"),
    ("(-1, 1)", [-0.9999999999999999, 0.0], [-1.0, 1.0], "in (-1, 1)"),
    ("(0, 1)", [5e-324, 0.5], [0.0, 1.0], "in (0, 1)"),
    ("> 0", [5e-324, 1e308], [0.0, -1.0], "> 0"),
    (">= 1", [1, 2, 10**20], [0, -1], ">= 1"),
])
def test_range(text, inside, outside, shown):
    allowed = Range(text)
    assert str(allowed) == shown
    assert all(v in allowed for v in inside)
    # NaN and the infinities lie in no range
    assert not any(v in allowed
                   for v in [*outside, math.nan, math.inf, -math.inf])
