"""Fuzz over every key of the config schema, which `config._SCHEMA` derives
from the section dataclasses: each key gets valid, edge and garbage text.
Loading must return a config or raise a ConfigError, and a few whole runs
(synth -> ingest -> train -> eval -> backtest) must exit 0 or 1 with no
traceback."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quantrange import synthetic
from quantrange.cli import main
from quantrange.config import _SCHEMA, load_config
from quantrange.errors import ConfigError
from quantrange.interval_metrics import CWC_VARIANTS
from quantrange.models.network import KINDS

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
    "str": ["synthetic", ",", *synthetic.KINDS, *KINDS, "sgd", "momentum",
            "adam", *CWC_VARIANTS],
    "bool": ["true", "false", "on", "off", "1", "0"],
    "tuple[int, int]": ["1,1", "4,4", "8,2"],
    "QuantileLevels": ["0.05,0.1,0.5,0.9,0.95", "0.05,0.25,0.5,0.75,0.95",
                       "0.05,0.95"],
    "dict[str, int]": ["", "day:3", "day:3,week:10", "now:0"],
}
CHOICES["int | None"] = CHOICES["int"]
CHOICES["float | None"] = CHOICES["float"]

# any one line of text: configparser would read a line break as structure
GARBAGE = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\n\r"), max_size=12)


def values(annotation: str):
    """Valid, edge and garbage text for a key of `annotation`."""
    numbers = st.one_of(st.integers(-10**20, 10**20).map(str),
                        st.floats().map(repr))
    return st.one_of(st.sampled_from(CHOICES[annotation] + EDGES), numbers,
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
    raw = data.draw(values(annotation), label="raw")
    loads_or_config_error(ini({section: {key: raw}}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_many_keys_load_or_raise_config_error(data):
    chosen = data.draw(st.lists(st.sampled_from(KEYS), min_size=2,
                                max_size=8, unique=True), label="keys")
    sections: dict[str, dict[str, str]] = {}
    for section, key, annotation in chosen:
        sections.setdefault(section, {})[key] = data.draw(
            values(annotation), label=f"[{section}] {key}")
    loads_or_config_error(ini(sections))


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
            st.sampled_from(CHOICES[annotation]) | st.sampled_from(EDGES),
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
