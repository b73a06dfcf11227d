"""`backtest` reads the forecast `eval` wrote to forecast-<kind>.bin when the
file's digest matches the checkpoint and test.wds, and computes it again
otherwise. Either way it writes the same bytes."""

import shutil

import pytest

from quantrange import cli
from quantrange.models import network
from test_acceptance import ACCEPTANCE_CONFIG
from test_golden import BACKTEST_INDICATORS

KINDS = ("futurequant", "quantile-linear", "quantile-mlp")


def artifacts(out, kind):
    names = (f"backtest-{kind}.txt", f"equity-{kind}.tsv",
             f"drawdown-{kind}.tsv", f"equity-{kind}.svg")
    return {name: (out / name).read_bytes() for name in names}


def run(command, config, out, *extra):
    assert cli.main([command, "--config", str(config), "--out", str(out),
                     *extra]) == 0, command


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """c10's config with trading indicators, ingested, then trained and
    evaluated with each kind: (one config per kind, the out dir)."""
    tmp = tmp_path_factory.mktemp("cache")
    out = tmp / "out"
    configs = {}
    for kind in KINDS:
        configs[kind] = tmp / f"run-{kind}.ini"
        configs[kind].write_text(
            ACCEPTANCE_CONFIG.replace("[model]\n", f"[model]\nkind = {kind}\n")
            + BACKTEST_INDICATORS)
    for command in ("synth", "ingest"):
        run(command, configs["futurequant"], out)
    for kind in KINDS:
        run("train", configs[kind], out)
        run("eval", configs[kind], out)
    return configs, out


def copy_of(evaluated, tmp_path, name="out"):
    configs, out = evaluated
    copy = tmp_path / name
    shutil.copytree(out, copy)
    return configs, copy


def backtest(config, out, capsys, kind):
    capsys.readouterr()
    run("backtest", config, out)
    lines = capsys.readouterr().out.splitlines()
    return lines[0], artifacts(out, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_hit_and_miss_write_the_same_bytes(evaluated, tmp_path, capsys, kind):
    configs, hit = copy_of(evaluated, tmp_path, "hit")
    _, miss = copy_of(evaluated, tmp_path, "miss")
    (miss / f"forecast-{kind}.bin").unlink()
    source, hit_files = backtest(configs[kind], hit, capsys, kind)
    assert source == f"forecast: read {hit / f'forecast-{kind}.bin'}"
    source, miss_files = backtest(configs[kind], miss, capsys, kind)
    assert source.startswith(f"forecast: computed from "
                             f"{miss / f'model-{kind}.ckpt'} (")
    assert hit_files == miss_files


@pytest.mark.parametrize("kind", KINDS)
def test_hit_runs_no_network(evaluated, tmp_path, capsys, monkeypatch, kind):
    configs, out = copy_of(evaluated, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the network ran on a cache hit")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    monkeypatch.setattr(network, "forward_raw", refuse)
    source, _ = backtest(configs[kind], out, capsys, kind)
    assert source.startswith("forecast: read ")


def stale_by_retraining(configs, out):
    run("train", configs["futurequant"], out, "--seed", "99")


def stale_by_another_kind(configs, out):
    shutil.copy(out / "forecast-quantile-mlp.bin",
                out / "forecast-futurequant.bin")


def stale_by_truncation(configs, out):
    path = out / "forecast-futurequant.bin"
    path.write_bytes(path.read_bytes()[:-8])


@pytest.mark.parametrize("make_stale", [
    stale_by_retraining, stale_by_another_kind, stale_by_truncation])
def test_stale_file_is_a_miss(evaluated, tmp_path, capsys, make_stale):
    configs, out = copy_of(evaluated, tmp_path)
    make_stale(configs, out)
    _, reference = copy_of(evaluated, tmp_path, "reference")
    shutil.copy(out / "model-futurequant.ckpt", reference)
    (reference / "forecast-futurequant.bin").unlink()
    source, got = backtest(configs["futurequant"], out, capsys, "futurequant")
    assert source.startswith("forecast: computed from ")
    assert got == backtest(configs["futurequant"], reference, capsys,
                           "futurequant")[1]


def test_byte_flip_sweep_never_changes_the_backtest(evaluated, tmp_path,
                                                    capsys):
    # the header (magic, digest, N and Q) and every 37th payload byte set to
    # 0 and to 255: each is a miss or, where the byte already held that
    # value, a hit, and the artifacts are the same either way
    kind = "quantile-linear"
    configs, out = copy_of(evaluated, tmp_path)
    path = out / f"forecast-{kind}.bin"
    original = path.read_bytes()
    _, reference = backtest(configs[kind], out, capsys, kind)
    for offset in [*range(48), *range(48, len(original), 37)]:
        for value in (0, 255):
            data = bytearray(original)
            data[offset] = value
            path.write_bytes(data)
            source, got = backtest(configs[kind], out, capsys, kind)
            assert got == reference, (offset, value)
            assert source.startswith("forecast: read ") == \
                (original[offset] == value), (offset, value)
