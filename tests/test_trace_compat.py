"""The benchmark's tracer (`perfbench/tracing.py`) wraps package functions
from outside and reads their arguments and results. This runs a small
traced pipeline, so a change under `src/` that breaks `--trace 1` fails
here first."""

import importlib
import importlib.util
import os

import pytest

from quantrange import backtest, cli, strategy
from quantrange.cli import main
from quantrange.models import training
from test_cli import GAPPED_CONFIG, gapped_tick_csv, write_config

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # install() rebinds these attributes; monkeypatch puts them back after
    for _, module_name, attr, _ in module.TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))
    commands = importlib.import_module("quantrange.cli").COMMANDS
    for stage in module.STAGES:
        monkeypatch.setitem(commands, stage, commands[stage])
    return module


def test_traced_pipeline_counts(tmp_path, tracing):
    source = gapped_tick_csv(tmp_path / "ticks.csv")
    config = write_config(tmp_path, GAPPED_CONFIG.format(source=source))
    out = str(tmp_path / "out")
    recorder = tracing.Recorder()
    tracing.install(recorder)
    for command in ("ingest", "train", "eval", "backtest"):
        assert main([command, "--config", config, "--out", out]) == 0, command
    with open(os.path.join(out, "bars.tsv"), encoding="utf-8") as fh:
        bars = len(fh.readlines()) - 1
    summary = tracing.summarise(recorder.spans)
    assert summary["market_data.parse_ticks.rows"] == 1197
    assert summary["market_data.parse_ticks.rows_dropped"] == 3
    assert summary["market_data.resample.bars"] == bars == 44
    assert summary["market_data.resample.bars_filled"] == 3
    for stage in ("ingest", "train", "eval", "backtest"):
        assert summary[f"cli.{stage}.calls"] == 1
    # the backtest's counters, as recorded at the per-bar object code
    assert summary["backtest.run_backtest.trades"] == 0
    reasons = {key.removeprefix("strategy.Signal."): value
               for key, value in summary.items()
               if key.startswith("strategy.Signal.")}
    assert reasons == {"no-forecast": 5, "price-above-band": 3,
                       "atr-out-of-band": 2, "rsi-neutral": 1}


def test_traced_synth_counts(tmp_path, tracing):
    # the tracer wraps generate and to_tick_text at quantrange.cli, where
    # cmd_synth must look them up
    config = write_config(tmp_path, "[synthetic]\nlength = 50\n")
    recorder = tracing.Recorder()
    tracing.install(recorder)
    assert main(["synth", "--config", config,
                 "--out", str(tmp_path / "out")]) == 0
    summary = tracing.summarise(recorder.spans)
    assert summary["cli.synth.calls"] == 1
    assert summary["synthetic.generate.calls"] == 1
    assert summary["synthetic.to_tick_text.calls"] == 1


def test_tracer_aliases_name_the_functions_they_stand_for():
    # the tracer wraps these two names, which nothing calls; each stays an
    # alias of the function its span is named after until the tracer goes
    assert backtest.generate_signal is strategy.signals
    assert cli.train_linear is training.train
