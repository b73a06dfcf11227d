"""Command-line pipeline: synth -> ingest -> train -> eval -> backtest,
plus a model-comparison command. Every artifact is written atomically and
is a pure function of the config file and seed."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import backtest as bt
from . import interval_metrics as im
from . import market_data as md
from . import svg
from .config import RunConfig, load_config
from .errors import (
    AlignmentError, ConfigError, InsufficientData, InvalidSpec, MissingField,
    QuantRangeError, RuinousReturn, ZeroRange,
)
from .io_utils import atomic_write_text, atomic_writer, reading
from .models.checkpoint import load_checkpoint, save_checkpoint
from .models.forecast import (
    QuantileForecast, load_forecast, repair_monotonic, save_forecast,
)
from .models.network import KINDS, forward
from .models.training import train
from .strategy import REASONS
from .synthetic import generate, to_tick_text

train_linear = train    # perfbench/tracing.py still wraps this name


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _indexed_tsv(values) -> str:
    """One "index<TAB>value" row per value, floats in repr form."""
    cells = map(repr, np.asarray(values, dtype=float).tolist())
    return "\n".join(f"{i}\t{v}" for i, v in enumerate(cells)) + "\n"


def cmd_synth(cfg: RunConfig) -> None:
    prices, _ = generate(cfg.synthetic)
    bad = np.flatnonzero(~(prices > 0.0) | np.isinf(prices))
    if bad.size:
        i = int(bad[0])
        what = "non-positive" if prices[i] <= 0.0 else "non-finite"
        raise InvalidSpec(f"synthetic path reaches the {what} price "
                          f"{float(prices[i])!r} at tick {i}; ingest needs "
                          "finite positive prices")
    atomic_write_text(_out(cfg, "ticks.csv"), to_tick_text(prices))
    print(f"wrote {_out(cfg, 'ticks.csv')} ({len(prices)} ticks)")


def cmd_ingest(cfg: RunConfig) -> None:
    source = cfg.data.source
    if source == "synthetic":
        source = _out(cfg, "ticks.csv")
    with reading(source, "tick file", "r") as fh:
        try:
            read = md.read_bars(fh, cfg.data.delimiter, cfg.data.bar_interval)
        except MissingField as exc:
            raise MissingField(f"{source}: {exc} (header split on [data] "
                               f"delimiter = {cfg.data.delimiter!r})") from None
        except UnicodeDecodeError:
            raise               # reading() names the file
        except ValueError as exc:
            raise ConfigError(f"[data] bar_interval: {exc}") from None
    bars = read.bars
    print(f"read {read.ticks} ticks ({read.dropped_rows} rows dropped), "
          f"{len(bars)} bars ({read.filled} forward-filled)")
    n_train = int(len(bars) * cfg.data.split_train)
    n_val = int(len(bars) * cfg.data.split_val)
    names = {"train": bars[:n_train], "val": bars[n_train:n_train + n_val],
             "test": bars[n_train + n_val:]}
    for name, split in names.items():
        if len(split) <= cfg.data.window_in:
            raise ConfigError(
                f"{source}: [data] split_{name} = "
                f"{getattr(cfg.data, 'split_' + name)} of {len(bars)} bar(s) "
                f"leaves {len(split)} {name} bar(s), too few for window_in "
                f"= {cfg.data.window_in} + 1 target bar")
    norm = md.fit_minmax(names["train"].close)
    for name, split in names.items():
        ds = md.make_windows(split, norm, cfg.data.window_in, cfg.data.stride)
        md.save_dataset(ds, _out(cfg, f"{name}.wds"))
        print(f"wrote {_out(cfg, name + '.wds')} ({ds.num_samples} samples)")
    # 1024 rows at a time: a whole table of Python floats and strings would
    # set this stage's peak memory
    with atomic_writer(_out(cfg, "bars.tsv")) as fh:
        fh.write(b"open_time\topen\thigh\tlow\tclose\tvolume_delta\tsplit\n")
        for name, split in names.items():
            for start in range(0, len(split), 1024):
                rows = split[start:start + 1024].tolist()
                fh.write("".join("\t".join(map(repr, row)) + f"\t{name}\n"
                                 for row in rows).encode("utf-8"))


def _read_bars_tsv(cfg: RunConfig, split: str) -> np.recarray:
    with reading(_out(cfg, "bars.tsv"), "bar table", "r") as fh:
        rows = np.loadtxt(fh, delimiter="\t", skiprows=1, ndmin=1,
                          dtype=md.BAR_DTYPE.descr + [("split", "U5")])
    rows = rows[rows["split"] == split][list(md.BAR_DTYPE.names)]
    return rows.astype(md.BAR_DTYPE).view(np.recarray)


def _price_forecast(spec, params, ds: md.WindowedDataset) -> QuantileForecast:
    raw = forward(spec, params, ds.inputs)
    return QuantileForecast(md.invert_minmax(raw.values, ds.norm), raw.levels)


def _train_kind(cfg: RunConfig, kind: str, ds: md.WindowedDataset,
                seed: int) -> list[float]:
    """Train `kind` on ds from `seed`; write its checkpoint and loss table
    and return the loss history."""
    spec = cfg.specs[kind]
    config = KINDS[type(spec)].train_config(replace(cfg.train, seed=seed))
    params, history = train(spec, ds.inputs, ds.targets, config)
    save_checkpoint(_out(cfg, f"model-{kind}.ckpt"), spec, params)
    atomic_write_text(_out(cfg, f"loss-{kind}.tsv"), _indexed_tsv(history))
    return history


def cmd_train(cfg: RunConfig) -> None:
    ds = md.load_dataset(_out(cfg, "train.wds"))
    kind = cfg.model_kind
    history = _train_kind(cfg, kind, ds, cfg.seed)
    print(f"wrote {_out(cfg, f'model-{kind}.ckpt')} "
          f"(final loss {history[-1]:.6g})")


def _eval_kind(cfg: RunConfig, kind: str) -> im.MetricsReport:
    """Score `kind`'s checkpoint on test.wds: write its metrics, its forecast
    table and forecast-<kind>.bin, and return the report."""
    ckpt = _out(cfg, f"model-{kind}.ckpt")
    _, spec, params = load_checkpoint(ckpt)
    wds = _out(cfg, "test.wds")
    ds = md.load_dataset(wds)
    forecast = _price_forecast(spec, params, ds)
    actuals = md.invert_minmax(ds.targets, ds.norm).reshape(-1)
    try:
        report = im.evaluate(actuals, forecast, cfg.metrics)
    except ZeroRange as exc:
        raise ConfigError(
            f"{wds}: {exc} over its {ds.num_samples} window(s) ([data] "
            f"stride = {cfg.data.stride}, split_test = "
            f"{cfg.data.split_test})") from None
    atomic_write_text(_out(cfg, f"metrics-{kind}.txt"), report.to_text())
    levels = forecast.levels.levels
    header = "timestamp\tactual\t" + "\t".join(f"q{lv}" for lv in levels)
    rows = np.column_stack([ds.target_times, actuals, forecast.values])
    lines = [header, *("\t".join(map(repr, row)) for row in rows.tolist())]
    atomic_write_text(_out(cfg, f"forecast-{kind}.tsv"),
                      "\n".join(lines) + "\n")
    save_forecast(_out(cfg, f"forecast-{kind}.bin"), forecast, (ckpt, wds))
    return report


def cmd_eval(cfg: RunConfig) -> None:
    print(_eval_kind(cfg, cfg.model_kind).to_text(), end="")


def _backtest_forecast(cfg: RunConfig,
                       kind: str) -> tuple[QuantileForecast, np.ndarray]:
    """eval's forecast and test.wds's target times. The forecast is read
    from forecast-<kind>.bin when that file was written from the checkpoint
    and test.wds as they are now, else computed again from them."""
    ckpt = _out(cfg, f"model-{kind}.ckpt")
    wds = _out(cfg, "test.wds")
    cached = _out(cfg, f"forecast-{kind}.bin")
    forecast = load_forecast(cached, (ckpt, wds))
    if forecast is not None:
        print(f"forecast: read {cached}")
        return forecast, md.load_dataset(wds).target_times
    print(f"forecast: computed from {ckpt} ({cached} is missing or stale)")
    _, spec, params = load_checkpoint(ckpt)
    ds = md.load_dataset(wds)
    return _price_forecast(spec, params, ds), ds.target_times


def cmd_backtest(cfg: RunConfig) -> None:
    kind = cfg.model_kind
    raw, target_times = _backtest_forecast(cfg, kind)
    bars_tsv = _out(cfg, "bars.tsv")
    test_bars = _read_bars_tsv(cfg, "test")
    # each forecast goes on the bar before the test bar that opens at its
    # target time
    at = np.searchsorted(test_bars.open_time, target_times)
    placed = (at > 0) & (np.append(test_bars.open_time, np.nan)[at]
                         == target_times)
    if not placed.all():
        raise AlignmentError(
            f"{bars_tsv}: no test bar after the first opens at target time "
            f"{float(target_times[~placed][0])!r} of {_out(cfg, 'test.wds')}"
            " (ingest again)")
    aligned = np.full((len(test_bars), len(raw.levels)), np.nan)
    aligned[at - 1] = repair_monotonic(raw).values
    forecast = QuantileForecast(values=aligned, levels=raw.levels)

    try:
        result = bt.run_backtest(
            test_bars, forecast, cfg.indicators, cfg.strategy,
            cfg.backtest.initial_capital, cfg.backtest.horizons,
        )
    except RuinousReturn as exc:    # the strategy trades one unit anyway
        raise ConfigError(
            f"[backtest] initial_capital = {cfg.backtest.initial_capital!r} "
            f"cannot carry one unit of the test split: {exc}") from None
    except InsufficientData as exc:
        raise ConfigError(
            f"[indicators] rsi_period = {cfg.indicators.rsi_period} and "
            f"atr_period = {cfg.indicators.atr_period} need more bars than "
            f"the {len(test_bars)} test bars in {bars_tsv}: {exc}") from None
    atomic_write_text(_out(cfg, f"backtest-{kind}.txt"), bt.summary_text(result))
    equity = result.equity_curve.equity
    dd = result.drawdown_stats.drawdown_series
    atomic_write_text(_out(cfg, f"equity-{kind}.tsv"), _indexed_tsv(equity))
    atomic_write_text(_out(cfg, f"drawdown-{kind}.tsv"), _indexed_tsv(dd))
    atomic_write_text(
        _out(cfg, f"equity-{kind}.svg"),
        svg.polyline_chart(equity, "equity", f"equity ({kind})"),
    )
    counts = dict(zip(*np.unique(result.signals.reason, return_counts=True)))
    reasons = ", ".join(f"{counts[r]} {r}" for r in REASONS if r in counts)
    print(f"signals: {reasons}; {len(result.trades)} trades")
    if not result.trades:
        print(f"warning: the backtest made no trade (signals: {reasons})",
              file=sys.stderr)
    print(bt.summary_text(result), end="")


def cmd_compare(cfg: RunConfig) -> None:
    ds = md.load_dataset(_out(cfg, "train.wds"))
    rows = ["Model\tPICP\tCWC"]
    for index, kind in enumerate(cfg.specs):
        _train_kind(cfg, kind, ds, cfg.seed + index)
        rows.append(im.comparison_row(kind, _eval_kind(cfg, kind)))
    atomic_write_text(_out(cfg, "compare.tsv"), "\n".join(rows) + "\n")
    print("\n".join(rows))


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "eval": cmd_eval,
    "backtest": cmd_backtest,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quantrange",
        description="quantile-range forecasting and backtesting pipeline",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out)
        os.makedirs(cfg.out_dir, exist_ok=True)
        COMMANDS[args.command](cfg)
        sys.stdout.flush()
    except QuantRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (`quantrange ... | head -1`); point it at
        # devnull so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
