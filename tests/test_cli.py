import glob
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantrange import synthetic
from quantrange.cli import main
from quantrange.config import MODEL_KINDS as KINDS
from quantrange.config import SYNTHETIC_KINDS, SyntheticSpec, load_config
from quantrange.errors import ConfigError
from test_acceptance import ACCEPTANCE_CONFIG

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

SMALL_CONFIG = """\
[run]
seed = 11

[data]
source = synthetic
bar_interval = 30.0
window_in = 5

[synthetic]
kind = gaussian-ar1
length = 15000
phi = 0.9

[model]
kind = futurequant
num_blocks = 1
dropout_rate = 0.0

[train]
learning_rate = 0.002
epochs = 3
batch_size = 32

[backtest]
initial_capital = 1000000
horizons = day:10
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestConfigLoading:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.seed == 11
        assert cfg.synthetic.seed == 11
        assert cfg.specs["futurequant"].window_in == 5
        assert cfg.backtest.horizons == {"day": 10}

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[mystery]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[run]\nbanana = 1\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[run]\nseed = lots\n"))

    def test_bad_splits(self, tmp_path):
        text = "[data]\nsplit_train = 0.5\nsplit_val = 0.1\nsplit_test = 0.1\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize("section, text", [
        ("indicators", "[indicators]\natr_low = 0.0\n"),
        ("train", "[train]\noptimizer = bogus\n"),
        ("train", "[train]\nbatch_size = 0\n"),
        # a clip of 0 never moves the model, a negative one ascends
        ("train", "[train]\ngradient_clip = 0.0\n"),
        ("train", "[train]\ngradient_clip = -1.0\n"),
        ("train", "[train]\nmomentum = -5\n"),
        ("train", "[train]\nmomentum = 1.0\n"),
        ("model", "[model]\nnum_blocks = 0\n"),
        ("model", "[model]\nhidden = 8\n"),
        ("data", "[data]\nwindow_out = 2\n"),
        # stride 0 raised a raw ValueError; -1 wrote a misaligned dataset
        ("data", "[data]\nstride = 0\n"),
        ("data", "[data]\nstride = -1\n"),
        # SyntheticSpec's errors did not name their section
        ("synthetic", "[synthetic]\nphi = 1.0\n"),
        ("synthetic", "[synthetic]\nsigma0 = 0.0\n"),
        ("synthetic", "[synthetic]\nkind = bogus\n"),
        ("synthetic", "[synthetic]\nlength = 1\n"),
        # a nan split passed the sum check, then ingest raised a ValueError
        ("data", "[data]\nsplit_train = nan\n"),
        ("data", "[data]\nbar_interval = inf\n"),
        # nan and inf ran through to nan metrics and equity
        ("metrics", "[metrics]\neta = nan\n"),
        ("train", "[train]\nlearning_rate = nan\n"),
        ("backtest", "[backtest]\ninitial_capital = nan\n"),
        ("backtest", "[backtest]\ninitial_capital = -inf\n"),
        # a capital of 0 wrote volatility = nan and a RuntimeWarning
        ("backtest", "[backtest]\ninitial_capital = 0\n"),
        ("backtest", "[backtest]\nhorizons = :5\n"),
        ("backtest", "[backtest]\nhorizons = day:-1\n"),
        # a repeated name silently kept the last
        ("backtest", "[backtest]\nhorizons = day:5,day:6\n"),
        # each trained to the end, then eval stopped on the missing level
        ("model", "[model]\nlevels = 0.1,0.5,0.9\n"),
        ("metrics", "[metrics]\nbeta = 0.3\n"),
        # train stopped on a kernel wider than the sequence, naming no key
        ("model", "[model]\nconv_kernel = 9\n"),
        # reported as [model] window_in, a key [model] does not have
        ("data", "[data]\nwindow_in = 0\n"),
        # the splits sum to 1, so ingest put 90 %, 5 % and 5 % of the bars
        # in train, val and test and the run went on
        ("data", "[data]\nsplit_train = -0.1\nsplit_val = 1.05\n"
                 "split_test = 0.05\n"),
        # the backtest paid the strategy 5 a fill and exited 0
        ("strategy", "[strategy]\ntransaction_cost = -5\n"),
    ])
    def test_rejected_value_exits_cleanly(self, tmp_path, capsys, section,
                                          text):
        code = main(["synth", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and f"[{section}]" in err
        assert "Traceback" not in err

    # a declared range's error names the section, key, range and value
    @pytest.mark.parametrize("text, message", [
        ("[data]\nsplit_train = -0.1\nsplit_val = 1.05\nsplit_test = 0.05\n",
         "[data] split_train must be in [0, 1], not -0.1"),
        ("[strategy]\ntransaction_cost = -5\n",
         "[strategy] transaction_cost must be >= 0, not -5.0"),
        ("[synthetic]\nbase_price = 0\n",
         "[synthetic] base_price must be > 0, not 0.0"),
        ("[model]\ndense_units = 4,0\n",
         "[model] dense_units must be >= 1, not 0"),
    ])
    def test_range_error_names_key_range_and_value(self, tmp_path, capsys,
                                                   text, message):
        code = main(["synth", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # each gave a raw configparser traceback; the non-UTF-8 file raised a
    # UnicodeDecodeError, and a directory was reported as not found
    @pytest.mark.parametrize("text", [
        "[run]\nseed = 1\nseed = 2\n",               # duplicate key
        "[run]\nseed = 1\n\n[run]\nseed = 2\n",      # duplicate section
        "seed = 1\n\n[run]\n",                       # key before a section
        "[data]\ndelimiter = %\n",                    # bad interpolation
        "[run]\nout_dir = %(x)s\n",                   # unknown interpolation
        b"[run]\nout_dir = caf\xe9\n",               # not UTF-8
        None,                                        # a directory
    ])
    def test_malformed_file_exits_cleanly(self, tmp_path, capsys, text):
        config = tmp_path / "run.ini"
        if text is None:
            config.mkdir()
        else:
            config.write_bytes(text if isinstance(text, bytes)
                               else text.encode("utf-8"))
        code = main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {config}: ")
        assert "Traceback" not in err

    # fields of the section classes that no key sets: the loader fills them
    # from [run] and [data], or leaves them at their defaults
    @pytest.mark.parametrize("section, key", [
        ("train", "lr_decay"), ("train", "lr_schedule"), ("train", "seed"),
        ("synthetic", "seed"), ("model", "ln_epsilon"), ("model", "window_in"),
        ("model", "num_inputs"), ("model", "num_features"),
    ])
    def test_unset_field_is_an_unknown_key(self, tmp_path, capsys, section,
                                           key):
        config = write_config(tmp_path, f"[{section}]\n{key} = 1\n")
        code = main(["synth", "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: unknown key {key!r} in section [{section}]\n")

    # each raised a raw exception in synth or ingest
    @pytest.mark.parametrize("text, args, named", [
        # fit_minmax on the empty train split
        ("[data]\nsplit_train = 0.0\nsplit_val = 0.5\nsplit_test = 0.5\n", [],
         "[data] split_train"),
        # two ticks make a single bar
        ("[synthetic]\nlength = 2\n", [], "ticks.csv"),
        # the bar index overflowed int64
        ("[data]\nbar_interval = 1e-300\n", [], "[data] bar_interval"),
        ("[data]\ndelimiter =\n", [], "[data] delimiter"),
        # default_rng rejects a negative seed
        ("[run]\nseed = -1\n", [], "[run] seed"),
        ("", ["--seed", "-1"], "--seed"),
        ("[data]\nsource = {tmp}\n", [], "{tmp}"),
        # make_windows on an empty or too short split named neither
        ("[data]\nsplit_val = 0.0\nsplit_test = 0.3\n", [],
         "[data] split_val = 0.0"),
        ("[data]\nsplit_train = 0.84\nsplit_test = 0.01\n", [],
         "[data] split_test = 0.01"),
        # a delimiter the tick file does not use named neither the file
        # nor the delimiter
        ("[data]\ndelimiter = ;\n", [],
         "{tmp}/out/ticks.csv: header lacks required field 'UpdateTime' "
         "(header split on [data] delimiter = ';')"),
    ])
    def test_broken_run_exits_cleanly(self, tmp_path, capsys, text, args,
                                      named):
        tmp = str(tmp_path)
        config = write_config(tmp_path, text.format(tmp=tmp))
        codes = [main([command, "--config", config, "--out", tmp + "/out",
                       *args]) for command in ("synth", "ingest")]
        err = capsys.readouterr().err
        assert codes[-1] == 1    # synth exits 0, or 1 on a config error
        assert err.startswith("error:") and named.format(tmp=tmp) in err
        assert "Traceback" not in err

    def test_readme_example_loads(self, tmp_path):
        with open(README, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        # the comments list every kind there is
        assert "; " + " | ".join(SYNTHETIC_KINDS) + "\n" in block
        assert "; " + " | ".join(KINDS) + "\n" in block
        config = write_config(tmp_path, block)
        cfg = load_config(config)
        assert cfg.synthetic.kind == "gaussian-ar1"
        assert cfg.model_kind == "futurequant"
        assert cfg.data.source == "synthetic"
        assert cfg.metrics.cwc_variant == "as-printed"
        out = str(tmp_path / "out")
        assert main(["synth", "--config", config, "--out", out]) == 0

    def test_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path), seed_override=99,
                          out_override="elsewhere")
        assert cfg.seed == 99
        assert cfg.synthetic.seed == 99
        assert cfg.out_dir == "elsewhere"


def readme_config(tmp_path, **overrides):
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    for key, value in overrides.items():
        block, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", block,
                               flags=re.M)
        assert count == 1, key
    return write_config(tmp_path, block)


def gapped_tick_csv(path):
    """1200 ticks, one a second, with no tick from 600 s to 699 s and a zero
    BidPrice1 at 10, 20 and 30 s: 1197 kept, and in 30 s bars 44 bars, of
    which 3 (600-689 s) are forward-filled."""
    lines = ["UpdateTime,UpdateMillisec,LastPrice,Volume,"
             "BidPrice1,BidVolume1,AskPrice1,AskVolume1"]
    for i, second in enumerate([*range(600), *range(700, 1300)]):
        price = 100.0 + 2.0 * np.sin(second / 50.0) + 0.01 * (second % 7)
        bid = 0.0 if second in (10, 20, 30) else price - 0.5
        t = 9 * 3600 + second
        lines.append(f"{t // 3600:02d}:{t % 3600 // 60:02d}:{t % 60:02d},0,"
                     f"{price:.6f},{i + 1},{bid:.6f},1,{price + 0.5:.6f},1")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


GAPPED_CONFIG = """\
[data]
source = {source}
bar_interval = 30.0
split_train = 0.5
split_val = 0.25
split_test = 0.25
window_in = 5

[model]
kind = quantile-linear

[indicators]
rsi_period = 3
atr_period = 3
"""


@pytest.fixture(scope="module")
def linear_run(tmp_path_factory):
    """The gapped ticks ingested and trained: the config and out dir."""
    tmp_path = tmp_path_factory.mktemp("linear")
    source = gapped_tick_csv(tmp_path / "ticks.csv")
    config = write_config(tmp_path, GAPPED_CONFIG.format(source=source))
    out = tmp_path / "out"
    for command in ("ingest", "train"):
        assert main([command, "--config", config, "--out", str(out)]) == 0
    return config, out


@pytest.mark.parametrize("name", ["model-quantile-linear.ckpt", "test.wds"])
@pytest.mark.parametrize("cut", [4, 10, 30, 60, 100, 150, -8, -1])
def test_truncated_artifact_exits_cleanly(linear_run, tmp_path, capsys,
                                          name, cut):
    config, trained = linear_run
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / name
    path.write_bytes(path.read_bytes()[:cut])
    assert main(["eval", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def c10_linear_run(tmp_path_factory):
    """c10's config synthesised, ingested and trained with the linear kind
    (a 354-byte checkpoint): the config and out dir."""
    tmp_path = tmp_path_factory.mktemp("c10")
    config = write_config(tmp_path, ACCEPTANCE_CONFIG.replace(
        "[model]\n", "[model]\nkind = quantile-linear\n"))
    out = tmp_path / "out"
    for command in ("synth", "ingest", "train"):
        assert main([command, "--config", config, "--out", str(out)]) == 0
    return config, out


# checkpoint: bytes 80 and 88 lie in array names, 310 in a shape;
# test.wds: byte 37 is the normalization flag, 38 the target-times flag
@pytest.mark.parametrize("name, offset", [
    ("model-quantile-linear.ckpt", 80), ("model-quantile-linear.ckpt", 88),
    ("model-quantile-linear.ckpt", 310), ("test.wds", 37), ("test.wds", 38)])
@pytest.mark.parametrize("command", ["eval", "backtest"])
def test_zeroed_byte_exits_cleanly(c10_linear_run, tmp_path, capsys,
                                   command, name, offset):
    config, trained = c10_linear_run
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / name
    data = bytearray(path.read_bytes())
    data[offset] = 0
    path.write_bytes(data)
    assert main([command, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert "Traceback" not in err


# N, T and F one less than written: N = 32 of 33 read target times as
# inputs and exited 0
@pytest.mark.parametrize("offset", [12, 16, 20])
def test_wds_header_smaller_than_data_exits_cleanly(c10_linear_run, tmp_path,
                                                    capsys, offset):
    config, trained = c10_linear_run
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / "test.wds"
    data = bytearray(path.read_bytes())
    data[offset] -= 1
    path.write_bytes(data)
    assert main(["eval", "--config", config, "--out", str(out)]) == 1
    assert f"error: {path}: truncated or corrupt dataset" in \
        capsys.readouterr().err


def to_directory(path):
    path.unlink()
    path.mkdir()


def corrupt_bars_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[-3] = lines[-3].replace("\t", "\tx", 1)
    path.write_text("".join(lines))


def non_utf8_ticks(path):
    data = bytearray(path.read_bytes())
    data[data.index(b"\n", 5000) + 1] = 0xFF
    path.write_bytes(data)


# each but the ticks.csv directory raised a raw exception: IsADirectoryError,
# or a ValueError (a UnicodeDecodeError for the ticks)
@pytest.mark.parametrize("name, command, damage, message", [
    ("ticks.csv", "ingest", to_directory, ""),
    ("bars.tsv", "backtest", to_directory, ""),
    ("train.wds", "train", to_directory, ""),
    ("test.wds", "eval", to_directory, ""),
    ("test.wds", "backtest", to_directory, ""),
    ("model-quantile-linear.ckpt", "eval", to_directory, ""),
    ("model-quantile-linear.ckpt", "backtest", to_directory, ""),
    ("bars.tsv", "backtest", corrupt_bars_row,
     "truncated or corrupt bar table ("),
    ("ticks.csv", "ingest", non_utf8_ticks, "truncated or corrupt tick file (")])
def test_unreadable_input_exits_cleanly(c10_linear_run, tmp_path, capsys,
                                        name, command, damage, message):
    config, trained = c10_linear_run
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / name
    damage(path)
    assert main([command, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert "Traceback" not in err


def cut_test_bars(config, out):
    path = out / "bars.tsv"
    path.write_text("".join(path.read_text().splitlines(True)[:-3]))


def cut_early_test_bars(config, out):
    # the first target bar becomes the first test bar, with none before it
    path = out / "bars.tsv"
    lines = path.read_text().splitlines(True)
    first = next(i for i, line in enumerate(lines) if line.endswith("\ttest\n"))
    path.write_text("".join(lines[:first] + lines[first + 5:]))


def change_stride(config, out):
    config.write_text(config.read_text().replace("stride = 2", "stride = 1"))


def backtest_artifacts(out, kind="quantile-linear"):
    return {name: (out / name).read_bytes()
            for name in (f"backtest-{kind}.txt", f"equity-{kind}.tsv",
                         f"drawdown-{kind}.tsv", f"equity-{kind}.svg")}


# a cut bars.tsv raised a raw IndexError, and now stops naming both files;
# a stride changed after ingest exited 1, and changes nothing now that the
# forecasts go where test.wds's target times put them
@pytest.mark.parametrize("change", [cut_test_bars, cut_early_test_bars,
                                    change_stride])
def test_backtest_checks_forecast_rows_against_bars(tmp_path, capsys, change):
    config = tmp_path / "run.ini"
    config.write_text(ACCEPTANCE_CONFIG.replace(
        "[model]\n", "[model]\nkind = quantile-linear\n").replace(
        "window_in = 5\n", "window_in = 5\nstride = 2\n"))
    out = tmp_path / "out"
    for command in ("synth", "ingest", "train"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    original = config.read_text()
    change(config, out)
    capsys.readouterr()
    code = main(["backtest", "--config", str(config), "--out", str(out)])
    if change is change_stride:
        assert code == 0
        changed = backtest_artifacts(out)
        config.write_text(original)
        assert main(["backtest", "--config", str(config),
                     "--out", str(out)]) == 0
        assert backtest_artifacts(out) == changed
        return
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'bars.tsv'}: no test bar after the "
                          "first opens at target time ")
    assert err.endswith(f" of {out / 'test.wds'} (ingest again)\n")
    assert not (out / "backtest-quantile-linear.txt").exists()


# 6000 ticks in 1 s bars: 3000 bars, 450 of them test bars
LINEAR_1S_CONFIG = """\
[run]
seed = 11

[data]
bar_interval = 1.0
window_in = 5

[synthetic]
length = 6000
phi = 0.9

[model]
kind = quantile-linear
"""


def run_stages(config, out, *commands):
    return [main([command, "--config", str(config), "--out", str(out)])
            for command in commands]


def test_window_in_changed_after_ingest_moves_no_forecast(tmp_path, capsys):
    # backtest recomputed make_windows' targets from the config: with
    # window_in 4 and stride 3 it made as many windows, put each forecast
    # one bar earlier and exited 0 with other trades
    text = LINEAR_1S_CONFIG.replace("window_in = 5\n",
                                    "window_in = 5\nstride = 3\n") + (
        "\n[indicators]\nrsi_period = 3\natr_period = 3\n"
        "atr_low = 0.00001\natr_high = 1.0\n")
    config = tmp_path / "run.ini"
    config.write_text(text)
    out = tmp_path / "out"
    assert run_stages(config, out, "synth", "ingest", "train",
                      "backtest") == [0] * 4
    assert "; 1 trades" in capsys.readouterr().out
    before = backtest_artifacts(out)
    config.write_text(text.replace("window_in = 5", "window_in = 4"))
    assert run_stages(config, out, "backtest") == [0]
    assert backtest_artifacts(out) == before


def test_short_test_split_reaches_the_tree(tmp_path, capsys):
    # 19 test bars, no more than the 14-bar warm-up plus window_in: backtest
    # warned that the split "cannot trade" while 4 of its bars reached the
    # decision tree
    config = tmp_path / "run.ini"
    config.write_text(LINEAR_1S_CONFIG.replace("window_in = 5\n", (
        "window_in = 5\nsplit_val = 0.29366666667\n"
        "split_test = 0.00633333333\n")))
    out = tmp_path / "out"
    assert run_stages(config, out, "synth", "ingest", "train",
                      "backtest") == [0] * 4
    captured = capsys.readouterr()
    signals = next(line for line in captured.out.splitlines()
                   if line.startswith("signals: "))
    assert signals == ("signals: 5 no-forecast, 10 non-finite-input, "
                       "4 rsi-neutral; 0 trades")
    assert "cannot trade" not in captured.err
    assert captured.err == ("warning: the backtest made no trade (signals: "
                            "5 no-forecast, 10 non-finite-input, "
                            "4 rsi-neutral)\n")


def test_indicator_periods_longer_than_the_test_split(tmp_path, capsys):
    # printed "so it cannot trade", then `error: rsi needs 100001 closes,
    # got 450` naming neither the key nor the file
    config = tmp_path / "run.ini"
    config.write_text(LINEAR_1S_CONFIG
                      + "\n[indicators]\nrsi_period = 100000\n")
    out = tmp_path / "out"
    assert run_stages(config, out, "synth", "ingest", "train") == [0] * 3
    capsys.readouterr()
    assert run_stages(config, out, "backtest") == [1]
    assert capsys.readouterr().err == (
        "error: [indicators] rsi_period = 100000 and atr_period = 14 need "
        f"more bars than the 450 test bars in {out / 'bars.tsv'}: rsi needs "
        "100001 closes, got 450\n")
    assert not (out / "backtest-quantile-linear.txt").exists()


def test_zero_range_test_split_names_its_cause(tmp_path, capsys):
    # one window per split: eval gave `error: actuals have zero range;
    # PINAW undefined`, naming neither the dataset nor the stride
    config = tmp_path / "run.ini"
    config.write_text(LINEAR_1S_CONFIG.replace(
        "window_in = 5\n", "window_in = 5\nstride = 100000\n"))
    out = tmp_path / "out"
    assert run_stages(config, out, "synth", "ingest", "train") == [0] * 3
    capsys.readouterr()
    assert run_stages(config, out, "eval") == [1]
    assert capsys.readouterr().err == (
        f"error: {out / 'test.wds'}: actuals have zero range; PINAW "
        "undefined over its 1 window(s) ([data] stride = 100000, "
        "split_test = 0.15)\n")


def test_byte_flip_sweep_raises_no_exception(c10_linear_run, tmp_path):
    # every checkpoint byte and the .wds header set to 0 and to 255; a
    # flipped exponent byte gives values near 1e300, so overflow is allowed
    config, trained = c10_linear_run
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    with np.errstate(all="ignore"):
        for name, count in (("model-quantile-linear.ckpt", None),
                            ("test.wds", 64)):
            path = out / name
            original = path.read_bytes()
            for offset in range(count or len(original)):
                for value in (0, 255):
                    data = bytearray(original)
                    data[offset] = value
                    path.write_bytes(data)
                    code = main(["eval", "--config", config, "--out", str(out)])
                    assert code in (0, 1), (name, offset, value)
            path.write_bytes(original)


class TestPipeline:
    def test_ingest_reports_dropped_and_filled(self, tmp_path, capsys):
        source = gapped_tick_csv(tmp_path / "ticks.csv")
        config = write_config(tmp_path, GAPPED_CONFIG.format(source=source))
        out = str(tmp_path / "out")
        assert main(["ingest", "--config", config, "--out", out]) == 0
        assert "read 1197 ticks (3 rows dropped), 44 bars (3 forward-filled)" \
            in capsys.readouterr().out.splitlines()

    def test_ingest_does_not_import_numpy_ma(self, tmp_path):
        # np.unique on floats imports numpy.ma, 13-35 ms of every ingest
        source = gapped_tick_csv(tmp_path / "ticks.csv")
        config = write_config(tmp_path, GAPPED_CONFIG.format(source=source))
        code = ("import sys\nfrom quantrange.cli import main\n"
                f"assert main(['ingest', '--config', {config!r}, '--out', "
                f"{str(tmp_path / 'out')!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.stdout.splitlines()[-1] == "False"

    def test_closed_stdout_exits_without_traceback(self, tmp_path):
        # as `quantrange ingest ... | head -1` does after its first line
        source = gapped_tick_csv(tmp_path / "ticks.csv")
        config = write_config(tmp_path, GAPPED_CONFIG.format(source=source))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quantrange.cli", "ingest",
                 "--config", config, "--out", str(tmp_path / "out")],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": SRC})
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_backtest_prints_signal_counts(self, tmp_path, capsys):
        source = gapped_tick_csv(tmp_path / "ticks.csv")
        config = write_config(tmp_path, GAPPED_CONFIG.format(source=source))
        out = str(tmp_path / "out")
        for command in ("ingest", "train", "backtest"):
            assert main([command, "--config", config, "--out", out]) == 0
        # one line, reasons in the tree's order, zero counts left out
        assert ("signals: 5 no-forecast, 2 atr-out-of-band, "
                "3 price-above-band, 1 rsi-neutral; 0 trades"
                in capsys.readouterr().out.splitlines())

    def test_readme_example_has_room_to_trade(self, tmp_path, capsys):
        # 250 bars: the 38-bar test split is longer than the 19-bar warm-up
        config = readme_config(tmp_path, out_dir=tmp_path / "out")
        for command in ("synth", "ingest", "train", "backtest"):
            assert main([command, "--config", config]) == 0, command
        # the one warning is that the default indicator settings make no
        # trade on this run
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert err.startswith("warning: the backtest made no trade (signals: ")

    def test_warm_up_warning(self, tmp_path, capsys):
        # 6000 ticks make 100 bars, and a 15-bar test split is no longer
        # than max(rsi_period, atr_period) + window_in = 19: its one warning
        # is the no-trade warning, whose counts show that no bar got past
        # the warm-up
        config = readme_config(tmp_path, out_dir=tmp_path / "out",
                               length=6000)
        for command in ("synth", "ingest", "train"):
            assert main([command, "--config", config]) == 0, command
        capsys.readouterr()
        assert main(["backtest", "--config", config]) == 0
        assert capsys.readouterr().err == (
            "warning: the backtest made no trade (signals: 5 no-forecast, "
            "10 non-finite-input)\n")
        assert (tmp_path / "out" / "backtest-futurequant.txt").exists()

    def test_end_to_end(self, tmp_path):
        config = write_config(tmp_path)
        out = str(tmp_path / "out")
        for command in ("synth", "ingest", "train", "eval", "backtest"):
            code = main([command, "--config", config, "--out", out])
            assert code == 0, command
        for name in ("ticks.csv", "train.wds", "val.wds", "test.wds",
                     "bars.tsv", "model-futurequant.ckpt",
                     "loss-futurequant.tsv", "metrics-futurequant.txt",
                     "forecast-futurequant.tsv", "backtest-futurequant.txt",
                     "equity-futurequant.tsv", "equity-futurequant.svg"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_eval_before_train_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "empty")
        code = main(["eval", "--config", config, "--out", out])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_exit_code_one(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.ini")])
        assert code == 1

    def test_synth_refuses_non_positive_prices(self, tmp_path, capsys):
        # the heteroscedastic path of criterion c05 falls to about -174
        text = ("[run]\nseed = 7\n\n[synthetic]\n"
                "kind = heteroscedastic-ar1\nlength = 5000\n")
        prices, _ = synthetic.generate(SyntheticSpec(
            kind="heteroscedastic-ar1", length=5000, seed=7))
        first = int(np.flatnonzero(prices <= 0.0)[0])
        out = tmp_path / "out"
        code = main(["synth", "--config", write_config(tmp_path, text),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{float(prices[first])!r} at tick {first}" in err
        assert not (out / "ticks.csv").exists()

    # each wrote a tick file of nan (or a reversed oracle) and exited 0
    @pytest.mark.parametrize("key, value", [
        ("phi", "nan"), ("sigma0", "nan"), ("sigma0", "inf"),
        ("base_price", "nan"), ("vol_sensitivity", "-0.5"),
        # each refused at tick 0, naming no key
        ("base_price", "0"), ("base_price", "-1")])
    def test_synth_refuses_bad_spec(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        config = write_config(tmp_path, f"[synthetic]\n{key} = {value}\n")
        code = main(["synth", "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: [synthetic] {key} must be")
        assert "Traceback" not in err
        assert not (out / "ticks.csv").exists()

    def test_synth_refuses_non_finite_prices(self, tmp_path, capsys):
        # a finite spec whose noise scale overflows at the second step
        text = ("[run]\nseed = 1\n\n[synthetic]\nkind = heteroscedastic-ar1"
                "\nsigma0 = 1e200\nlength = 10\n")
        out = tmp_path / "out"
        code = main(["synth", "--config", write_config(tmp_path, text),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: synthetic path reaches the non-finite "
                              "price inf at tick 2;")
        assert not (out / "ticks.csv").exists()

    # the linear kind's table entry fixes its learning rate, so only the
    # other two kinds can be made to diverge from the config
    @pytest.mark.parametrize("kind", ["futurequant", "quantile-mlp"])
    def test_diverging_train_exits_cleanly(self, tmp_path, capsys, kind):
        text = SMALL_CONFIG.replace("kind = futurequant", f"kind = {kind}") \
            .replace("learning_rate = 0.002", "learning_rate = 1e308")
        config = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        for command in ("synth", "ingest"):
            assert main([command, "--config", config, "--out", out]) == 0
        with np.errstate(all="ignore"):
            code = main(["train", "--config", config, "--out", out])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

    def test_every_tsv_cell_is_a_plain_float(self, tmp_path):
        config = write_config(tmp_path, SMALL_CONFIG.replace(
            "kind = futurequant", "kind = quantile-linear"))
        out = str(tmp_path / "out")
        for command in ("synth", "ingest", "compare", "train", "eval",
                        "backtest"):
            assert main([command, "--config", config, "--out", out]) == 0
        paths = sorted(glob.glob(os.path.join(out, "*.tsv")))
        names = [os.path.basename(p) for p in paths]
        assert names == ["bars.tsv", "compare.tsv",
                         "drawdown-quantile-linear.tsv",
                         "equity-quantile-linear.tsv",
                         *(f"forecast-{kind}.tsv" for kind in sorted(KINDS)),
                         *(f"loss-{kind}.tsv" for kind in sorted(KINDS))]
        # files with a header row, and their text columns
        headed = {"bars.tsv": {6}, "compare.tsv": {0},
                  **{f"forecast-{kind}.tsv": set() for kind in KINDS}}
        for path, name in zip(paths, names):
            with open(path, encoding="utf-8") as fh:
                rows = [line.rstrip("\n").split("\t") for line in fh]
            for row in rows[1:] if name in headed else rows:
                for column, cell in enumerate(row):
                    if column not in headed.get(name, ()):
                        float(cell)

    def test_artifacts_deterministic(self, tmp_path):
        config = write_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            for command in ("synth", "ingest", "train", "eval"):
                assert main([command, "--config", config, "--out", out]) == 0
        for name in ("ticks.csv", "model-futurequant.ckpt",
                     "metrics-futurequant.txt", "forecast-futurequant.tsv"):
            a = Path(out_a, name).read_bytes()
            b = Path(out_b, name).read_bytes()
            assert a == b, name


def test_capital_below_one_unit_names_the_key(tmp_path, capsys):
    # the strategy trades one unit whatever the capital: below one bar's
    # price the equity goes below 0, which gave "per-period return <= -100%"
    config = write_config(tmp_path, """\
[run]
seed = 11

[data]
bar_interval = 0.5
window_in = 5

[synthetic]
length = 3000
phi = 0.9

[model]
kind = quantile-linear

[indicators]
atr_low = 0.002
atr_high = 0.05

[backtest]
initial_capital = 0.05
""")
    out = str(tmp_path / "out")
    for command in ("synth", "ingest", "train"):
        assert main([command, "--config", config, "--out", out]) == 0
    capsys.readouterr()
    assert main(["backtest", "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: [backtest] initial_capital = 0.05 cannot carry one unit of "
        "the test split: equity -")
    assert err.endswith(" <= 0 at the close of bar 292 "
                        "(open_time 33821.0)\n")
    assert not os.path.exists(os.path.join(out, "backtest-quantile-linear.txt"))
