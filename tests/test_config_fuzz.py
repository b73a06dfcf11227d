"""Fuzz over every key of the config schema, which `config._SCHEMA` derives
from the section dataclasses: each key gets valid, edge and garbage text,
and the bounds of the range its field declares with the numbers next to
them.
Loading must return a config or raise a ConfigError, and a few whole runs
(synth -> ingest -> train -> eval -> backtest) must exit 0 or 1 with no
traceback."""

import math
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quantrange.cli import main
from quantrange.config import MODEL_KINDS as KINDS
from quantrange.config import (
    CWC_VARIANTS, SYNTHETIC_KINDS, _SCHEMA, QuantileLevels, Range, RunConfig,
    load_config,
)
from quantrange.errors import ConfigError

KEYS = [(section, key, annotation) for section, keys in _SCHEMA.items()
        for key, annotation in keys.items()]

# text at an edge of some annotation, or of none
EDGES = ["0", "-0", "1", "-1", "2", "3", "-2.5", "0.5", "1e-300", "1e300",
         "nan", "-nan", "inf", "-inf", "", "abc", "1,2", "0,0", "-1,4",
         "0.95,0.05", "day:3", "day:-1", ":3", "day:3,day:4", "yes", "maybe",
         "1_0", "0x10", "%%", "1.5"]

# valid text by annotation, kept small enough for a whole run
CHOICES = {
    "int": ["1", "2", "3", "4", "5", "7"],
    "float": ["0.05", "0.1", "0.3", "0.5", "0.9", "2.0", "30.0"],
    "str": ["synthetic", ",", *SYNTHETIC_KINDS, *KINDS, "sgd", "momentum",
            "adam", *CWC_VARIANTS],
    "bool": ["true", "false", "on", "off", "1", "0"],
    "tuple[int, int]": ["1,1", "4,4", "8,2"],
    "QuantileLevels": ["0.05,0.1,0.5,0.9,0.95", "0.05,0.25,0.5,0.75,0.95",
                       "0.05,0.95"],
}
CHOICES["int | None"] = CHOICES["int"]
CHOICES["float | None"] = CHOICES["float"]

# any one line of text: configparser would read a line break as structure
GARBAGE = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\n\r"), max_size=12)

# the dataclasses whose fields each section's keys set
CLASSES = {"model": list(KINDS.values()),
           **{name: [cls] for name, cls in get_type_hints(RunConfig).items()
              if name in _SCHEMA}}


def declared(section: str, key: str) -> Range | None:
    """The range the field a [section] key sets declares, if any; for
    `levels`, the range QuantileLevels declares for each level."""
    for cls in CLASSES.get(section, ()):
        for f in fields(cls):
            if f.name == key:
                if f.type == "QuantileLevels":
                    f, = fields(QuantileLevels)
                allowed = f.metadata.get("allowed")
                return allowed if isinstance(allowed, Range) else None
    return None


def bound_edges(annotation: str, allowed: Range) -> list[tuple[str, bool]]:
    """(text, inside) for each finite bound of `allowed` and the numbers
    next to it on either side, as a value of `annotation`. `inside` is read
    from the bound's bracket, not from `Range`'s own test."""
    edges = []
    for bound in (allowed.low, allowed.high):
        if math.isinf(bound):
            continue
        if "int" in annotation:
            near = [int(bound) - 1, int(bound), int(bound) + 1]
        else:
            near = [math.nextafter(bound, -math.inf), bound,
                    math.nextafter(bound, math.inf)]
        for v in near:
            inside = (allowed.low < v < allowed.high
                      or v == allowed.low and allowed.closed[0] == "["
                      or v == allowed.high and allowed.closed[1] == "]")
            text = repr(v)
            edges.append((f"{text},{text}" if annotation.startswith("tuple")
                          else text, inside))
    return edges


BOUNDS = {(section, key): bound_edges(annotation, allowed)
          for section, key, annotation in KEYS
          if (allowed := declared(section, key)) is not None}


def bound_texts(section: str, key: str) -> list[str]:
    return [text for text, _ in BOUNDS.get((section, key), [])]


def values(section: str, key: str, annotation: str):
    """Valid, edge, bound and garbage text for a [section] key of
    `annotation`."""
    numbers = st.one_of(st.integers(-10**20, 10**20).map(str),
                        st.floats().map(repr))
    return st.one_of(st.sampled_from(CHOICES[annotation] + EDGES
                                     + bound_texts(section, key)), numbers,
                     numbers.map(lambda x: f"{x},{x}"), GARBAGE)


def ini(sections: dict[str, dict[str, str]]) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n"
                                             for k, v in keys.items())
                   for section, keys in sections.items())


def loads_or_config_error(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text, encoding="utf-8")
        try:
            load_config(str(path))
        except ConfigError:
            pass


@pytest.mark.parametrize("section, key, annotation", KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in KEYS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_each_key_loads_or_raises_config_error(section, key, annotation,
                                               data):
    raw = data.draw(values(section, key, annotation), label="raw")
    loads_or_config_error(ini({section: {key: raw}}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_many_keys_load_or_raise_config_error(data):
    chosen = data.draw(st.lists(st.sampled_from(KEYS), min_size=2,
                                max_size=8, unique=True), label="keys")
    sections: dict[str, dict[str, str]] = {}
    for section, key, annotation in chosen:
        sections.setdefault(section, {})[key] = data.draw(
            values(section, key, annotation), label=f"[{section}] {key}")
    loads_or_config_error(ini(sections))


EDGE_CASES = [(section, key, text, inside)
              for (section, key), edges in BOUNDS.items()
              for text, inside in edges]


def test_bounds_are_read_from_the_declarations():
    # a lookup that found no range would leave EDGE_CASES empty
    assert BOUNDS[("data", "split_train")][:3] == [
        ("-5e-324", False), ("0.0", True), ("5e-324", True)]
    assert BOUNDS[("model", "levels")][3:] == [
        ("0.9999999999999999", True), ("1.0", False),
        ("1.0000000000000002", False)]
    assert BOUNDS[("model", "dense_units")] == [
        ("0,0", False), ("1,1", True), ("2,2", True)]


@pytest.mark.parametrize("section, key, text, inside", EDGE_CASES,
                         ids=[f"{s}.{k}={t}" for s, k, t, _ in EDGE_CASES])
def test_declared_bound_edges(section, key, text, inside):
    """A value just outside a key's declared range is refused with an
    error naming the section and key; a value inside is not refused for
    its range (a rule across keys may still refuse it)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(ini({section: {key: text}}), encoding="utf-8")
        try:
            load_config(str(path))
            error = ""
        except ConfigError as exc:
            error = str(exc)
    assert error.startswith(f"[{section}] {key} must be ") != inside, error


# a run small enough that one pipeline takes a fraction of a second
TINY = {
    "synthetic": {"length": "1200", "phi": "0.9"},
    "data": {"bar_interval": "2.0", "split_train": "0.5", "split_val": "0.2",
             "split_test": "0.3"},
    "model": {"num_blocks": "1", "key_dim": "4", "conv_channels": "4",
              "dense_units": "4,4", "hidden": "4,4"},
    "train": {"epochs": "2", "batch_size": "32"},
    "indicators": {"rsi_period": "3", "atr_period": "3", "atr_low": "0.0001",
                   "atr_high": "0.5"},
}
# [run] out_dir is overridden by --out, and the tiny run sets no source file
PIPELINE_KEYS = [(section, key, annotation) for section, key, annotation
                 in KEYS if (section, key) not in {("run", "out_dir"),
                                                    ("data", "source")}]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_whole_run_exits_cleanly(tmp_path_factory, capsys, data):
    sections = {section: dict(keys) for section, keys in TINY.items()}
    for section, key, annotation in data.draw(
            st.lists(st.sampled_from(PIPELINE_KEYS), min_size=1, max_size=3,
                     unique=True), label="keys"):
        # valid text half the time, so that some runs reach the backtest
        sections.setdefault(section, {})[key] = data.draw(
            st.sampled_from(CHOICES[annotation])
            | st.sampled_from(EDGES + bound_texts(section, key)),
            label=f"[{section}] {key}")
    tmp = tmp_path_factory.mktemp("run")
    config = tmp / "run.ini"
    config.write_text(ini(sections), encoding="utf-8")
    for command in ("synth", "ingest", "train", "eval", "backtest"):
        code = main([command, "--config", str(config), "--out",
                     str(tmp / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1), command
        assert "Traceback" not in err, (command, err)
        if code:
            assert err.startswith("error: "), (command, err)
            break
