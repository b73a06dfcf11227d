"""Metamorphic relations of the pipeline: a rewrite of the tick file that
must change no result. Each rewritten file goes through ingest, train,
eval and backtest, and every artifact must be byte-identical to the run
on the original file, with the default PARSE_BLOCK and with blocks of
4096 characters, so that rewritten rows also fall on block edges.

- R3: 128 inserted rows with a zero BidPrice1 are dropped. Each carries
  an outlier LastPrice (1.5 times its neighbour's), so a filter that kept
  it would change a bar.
- R4: the columns in another order; the header names them.
- R5: every tick written twice; an equal timestamp is no step back, and a
  repeated tick changes no bar.
"""

import pytest

from quantrange import market_data as md
from quantrange.cli import main

CONFIG = """\
[run]
seed = 3

[synthetic]
length = 12000

[data]
source = {source}
bar_interval = 2.0

[model]
num_blocks = 1
num_heads = 2
key_dim = 4
dropout_rate = 0.0

[train]
epochs = 3

[indicators]
rsi_period = 3
atr_period = 3
atr_low = 0.0001
atr_high = 0.5
"""

STAGES = ("ingest", "train", "eval", "backtest")


def rewrite(text: str, relation: str) -> str:
    """The tick file `text` (as synth writes it) rewritten by `relation`."""
    header, *rows = text.splitlines()
    if relation == "R3":
        step, out = len(rows) // 128, []
        for i, row in enumerate(rows):
            out.append(row)
            if i % step == 0 and i < 128 * step:
                cells = row.split(",")
                cells[2] = f"{float(cells[2]) * 1.5:.6f}"   # LastPrice
                cells[4] = "0"                              # BidPrice1
                out.append(",".join(cells))
        lines = [header, *out]
    elif relation == "R4":
        order = [3, 0, 7, 5, 1, 6, 2, 4]
        lines = [",".join(line.split(",")[j] for j in order)
                 for line in (header, *rows)]
    else:  # R5
        lines = [header, *(row for row in rows for _ in range(2))]
    return "\n".join(lines) + "\n"


def run(tmp_path, name: str, text: str, capsys) -> tuple[dict, str]:
    """Every artifact of ingest through backtest on the tick file `text`,
    by file name, and what ingest printed."""
    source = tmp_path / f"{name}.csv"
    source.write_text(text)
    config = tmp_path / f"{name}.ini"
    config.write_text(CONFIG.format(source=source))
    out = tmp_path / name
    printed = {}
    for stage in STAGES:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        printed[stage] = capsys.readouterr().out
    return {p.name: p.read_bytes() for p in out.iterdir()}, printed["ingest"]


@pytest.fixture(scope="module")
def ticks(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("synth")
    config = out / "run.ini"
    config.write_text(CONFIG.format(source="synthetic"))
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    return (out / "ticks.csv").read_text()


@pytest.mark.parametrize("block", [md.PARSE_BLOCK, 4096])
@pytest.mark.parametrize("relation", ["R3", "R4", "R5"])
def test_rewritten_tick_file_changes_no_artifact(ticks, tmp_path, capsys,
                                                 monkeypatch, relation, block):
    monkeypatch.setattr(md, "PARSE_BLOCK", block)
    want, _ = run(tmp_path, "original", ticks, capsys)
    got, printed = run(tmp_path, relation, rewrite(ticks, relation), capsys)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
    if relation == "R3":
        assert "(128 rows dropped)" in printed
