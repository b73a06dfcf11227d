"""Metamorphic relations of the pipeline: a rewrite of the tick file that
must change no result, or change it in a known, exact way. Each rewritten
file goes through ingest, train, eval and backtest, and its artifacts are
compared with those of the run on the original file, with the default
PARSE_BLOCK and with blocks of 4096 characters, so that rewritten rows
also fall on block edges.

- R1: every price doubled (exact in decimal), with the initial capital
  and a non-zero transaction cost. The model sees min-max scaled windows,
  so its checkpoint, loss curve, drawdowns and chart are byte-identical;
  prices, forecasts, equity, delta_y and the pinball losses are exactly
  doubled; coverage, width, CWC, returns and the signals are unchanged.
- R2: UpdateTime shifted by whole seconds. The bar grid starts at the
  first tick, so only the bar open times, the target times and the
  forecast timestamps move, each by exactly the shift.
- R3: 128 inserted rows with a zero BidPrice1 are dropped. Each carries
  an outlier LastPrice (1.5 times its neighbour's), so a filter that kept
  it would change a bar.
- R4: the columns in another order; the header names them.
- R5: every tick written twice; an equal timestamp is no step back, and a
  repeated tick changes no bar.
"""

from decimal import Decimal
from fnmatch import fnmatchcase

import numpy as np
import pytest

from quantrange import market_data as md
from quantrange.cli import main
from quantrange.models.forecast import load_forecast

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


def run(tmp_path, name: str, text: str, capsys,
        config_text: str = CONFIG) -> tuple[dict, dict]:
    """Every artifact of ingest through backtest on the tick file `text`,
    by file name, and what each stage printed."""
    source = tmp_path / f"{name}.csv"
    source.write_text(text)
    config = tmp_path / f"{name}.ini"
    config.write_text(config_text.format(source=source))
    out = tmp_path / name
    printed = {}
    for stage in STAGES:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        printed[stage] = capsys.readouterr().out
    return {p.name: p.read_bytes() for p in out.iterdir()}, printed


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
        assert "(128 rows dropped)" in printed["ingest"]


PRICES = ("LastPrice", "BidPrice1", "AskPrice1")


def doubled(text: str) -> str:
    """The tick file `text` with every price times 2, exact in decimal."""
    header, *rows = text.splitlines()
    columns = [header.split(",").index(name) for name in PRICES]
    lines = [header]
    for row in rows:
        cells = row.split(",")
        for j in columns:
            cells[j] = str(Decimal(cells[j]) * 2)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def shifted(text: str, seconds: int) -> str:
    """The tick file `text` with its UpdateTime (the first column, as
    HH:MM:SS) `seconds` later."""
    header, *rows = text.splitlines()
    lines = [header]
    for row in rows:
        clock, rest = row.split(",", 1)
        h, m, s = map(int, clock.split(":"))
        t = h * 3600 + m * 60 + s + seconds
        lines.append(f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d},{rest}")
    return "\n".join(lines) + "\n"


def table(data: bytes, move, columns, header: bool = True) -> bytes:
    """A tab-separated artifact with `move` applied to each cell of the
    columns that `columns` (fnmatch patterns) names by header, or by
    position when the table has no header."""
    rows = [line.split("\t") for line in data.decode().splitlines()]
    names = rows[0] if header else [str(j) for j in range(len(rows[0]))]
    hit = [any(fnmatchcase(name, c) for c in columns) for name in names]
    lines = ["\t".join(move(cell) if h and i >= header else cell
                       for cell, h in zip(row, hit))
             for i, row in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode()


def keyed(data: bytes, move, keys) -> bytes:
    """A `key = value` artifact with `move` applied to the values of the
    keys that `keys` (fnmatch patterns) names."""
    lines = []
    for line in data.decode().splitlines():
        key, value = line.split(" = ")
        hit = any(fnmatchcase(key, k) for k in keys)
        lines.append(f"{key} = {move(value) if hit else value}")
    return ("\n".join(lines) + "\n").encode()


def assert_related(tmp_path, want: dict, got: dict, moves: dict,
                   dataset, forecast) -> None:
    """The run in tmp_path / "moved" (artifacts `got`) against the one in
    tmp_path / "original" (`want`): a text artifact whose name matches a
    pattern of `moves` is that function of the original's, and every
    other, but the datasets and forecast files, is byte-identical. For
    each split's dataset, dataset(original, moved) holds, and for the
    forecast file, forecast(original values, moved values)."""
    assert sorted(got) == sorted(want)
    for name in want:
        if not name.endswith((".wds", ".bin")):
            move = next((f for pattern, f in moves.items()
                         if fnmatchcase(name, pattern)), lambda data: data)
            assert got[name] == move(want[name]), name
    for split in ("train", "val", "test"):
        dataset(*(md.load_dataset(str(tmp_path / run / f"{split}.wds"))
                  for run in ("original", "moved")))
    for name in want:
        if name.endswith(".bin"):
            kind = name[len("forecast-"):-len(".bin")]
            forecast(*(load_forecast(
                str(tmp_path / run / name),
                (str(tmp_path / run / f"model-{kind}.ckpt"),
                 str(tmp_path / run / "test.wds"))).values
                for run in ("original", "moved")))


def signals(printed: dict) -> list[str]:
    """What ingest read and the signal counts and trades of backtest."""
    lines = printed["ingest"].splitlines() + printed["backtest"].splitlines()
    return [line for line in lines if line.startswith(("read ", "signals:"))]


def costed(scale: int) -> str:
    """CONFIG with a transaction cost and an initial capital, each times
    `scale`, and atr_high 0.025, near the test bars' median ATR%, so that
    an ATR% that doubled with the prices would change the signals."""
    return (CONFIG.replace("atr_high = 0.5", "atr_high = 0.025")
            + f"\n[strategy]\ntransaction_cost = {0.25 * scale}\n"
            + f"\n[backtest]\ninitial_capital = {1_000_000 * scale}\n")


def twice(cell: str) -> str:
    return repr(2 * float(cell))


def same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.tobytes() == b.tobytes()


DOUBLED = {
    "bars.tsv": lambda d: table(d, twice, ["open", "high", "low", "close"]),
    "forecast-*.tsv": lambda d: table(d, twice, ["actual", "q*"]),
    "equity-*.tsv": lambda d: table(d, twice, ["1"], header=False),
    "metrics-*.txt": lambda d: keyed(d, twice, ["delta_y", "pinball_*"]),
    "backtest-*.txt": lambda d: keyed(d, twice, ["final_equity"]),
}


def doubled_dataset(a: md.WindowedDataset, b: md.WindowedDataset) -> None:
    for name in ("inputs", "targets", "target_times"):
        same_bytes(getattr(a, name), getattr(b, name))
    same_bytes(2 * a.norm.x_min, b.norm.x_min)
    same_bytes(2 * a.norm.x_max, b.norm.x_max)


@pytest.mark.parametrize("block", [md.PARSE_BLOCK, 4096])
def test_doubled_prices_double_every_price(ticks, tmp_path, capsys,
                                           monkeypatch, block):
    monkeypatch.setattr(md, "PARSE_BLOCK", block)
    want, said = run(tmp_path, "original", ticks, capsys, costed(1))
    got, printed = run(tmp_path, "moved", doubled(ticks), capsys, costed(2))
    assert_related(tmp_path, want, got, DOUBLED, doubled_dataset,
                   lambda a, b: same_bytes(2 * a, b))
    assert signals(printed) == signals(said)
    assert not signals(said)[-1].endswith("; 0 trades")


@pytest.mark.parametrize("block", [md.PARSE_BLOCK, 4096])
@pytest.mark.parametrize("seconds", [1, 3600])   # half a bar; 1800 bars
def test_shifted_clock_moves_only_the_times(ticks, tmp_path, capsys,
                                            monkeypatch, block, seconds):
    monkeypatch.setattr(md, "PARSE_BLOCK", block)
    want, said = run(tmp_path, "original", ticks, capsys)
    got, printed = run(tmp_path, "moved", shifted(ticks, seconds), capsys)

    def later(cell: str) -> str:
        return repr(float(cell) + seconds)

    def shifted_dataset(a, b):
        for name in ("inputs", "targets"):
            same_bytes(getattr(a, name), getattr(b, name))
        same_bytes(a.target_times + seconds, b.target_times)
        same_bytes(a.norm.x_min, b.norm.x_min)
        same_bytes(a.norm.x_max, b.norm.x_max)

    assert_related(tmp_path, want, got,
                   {"bars.tsv": lambda d: table(d, later, ["open_time"]),
                    "forecast-*.tsv": lambda d: table(d, later, ["timestamp"])},
                   shifted_dataset, same_bytes)
    assert signals(printed) == signals(said)
