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
from .errors import InvalidSpec, MissingArtifact, QuantRangeError
from .io_utils import atomic_write_text
from .models import (
    KINDS,
    QuantileForecast,
    forward,
    load_checkpoint,
    load_forecast,
    repair_monotonic,
    save_checkpoint,
    save_forecast,
    train,
)
from .strategy import REASONS
from .synthetic import generate, to_tick_text

train_linear = train    # perfbench/tracing.py still wraps this name


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifact(f"required artifact missing: {path} "
                              "(run the earlier pipeline stage first)")
    return path


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
    source = cfg.source
    if source == "synthetic":
        source = _out(cfg, "ticks.csv")
    with open(_require(source), "r", encoding="utf-8") as fh:
        parsed = md.parse_ticks(fh, delimiter=cfg.delimiter)
    ticks = parsed.records
    bars = md.resample(ticks, cfg.bar_interval)
    # resample checked that the timestamps never decrease, so the buckets
    # do not either, and each change of bucket opens a populated bar
    bucket = (ticks.timestamp - ticks.timestamp[0]) // cfg.bar_interval
    populated = np.count_nonzero(np.diff(bucket)) + 1
    print(f"read {len(ticks)} ticks ({parsed.dropped_rows} rows dropped), "
          f"{len(bars)} bars ({len(bars) - populated} forward-filled)")
    n_train = int(len(bars) * cfg.split_train)
    n_val = int(len(bars) * cfg.split_val)
    names = {"train": bars[:n_train], "val": bars[n_train:n_train + n_val],
             "test": bars[n_train + n_val:]}
    norm = md.fit_minmax(names["train"].close)
    for name, split in names.items():
        ds = md.make_windows(split, norm, cfg.window_in, cfg.stride)
        md.save_dataset(ds, _out(cfg, f"{name}.wds"))
        print(f"wrote {_out(cfg, name + '.wds')} ({ds.num_samples} samples)")
    lines = ["open_time\topen\thigh\tlow\tclose\tvolume_delta\tsplit"]
    for name, split in names.items():
        # 4096 rows at a time: a whole split's tuples of Python floats
        # would set this stage's peak memory
        for start in range(0, len(split), 4096):
            lines.extend("\t".join(map(repr, row)) + f"\t{name}"
                         for row in split[start:start + 4096].tolist())
    atomic_write_text(_out(cfg, "bars.tsv"), "\n".join(lines) + "\n")


def _read_bars_tsv(cfg: RunConfig, split: str) -> np.recarray:
    rows = np.loadtxt(_require(_out(cfg, "bars.tsv")), delimiter="\t",
                      dtype=md.BAR_DTYPE.descr + [("split", "U5")],
                      skiprows=1, ndmin=1)
    rows = rows[rows["split"] == split][list(md.BAR_DTYPE.names)]
    return rows.astype(md.BAR_DTYPE).view(np.recarray)


def _train_model(cfg: RunConfig, kind: str, ds: md.WindowedDataset, seed: int):
    spec = cfg.specs[kind]
    config = KINDS[kind].train_config(replace(cfg.train, seed=seed))
    params, history = train(spec, ds.inputs, ds.targets, config)
    return spec, params, history


def _price_forecast(spec, params, ds: md.WindowedDataset) -> QuantileForecast:
    raw = forward(spec, params, ds.inputs)
    return QuantileForecast(md.invert_minmax(raw.values, ds.norm), raw.levels)


def cmd_train(cfg: RunConfig) -> None:
    ds = md.load_dataset(_require(_out(cfg, "train.wds")))
    kind = cfg.model_kind
    spec, params, history = _train_model(cfg, kind, ds, cfg.seed)
    save_checkpoint(_out(cfg, f"model-{kind}.ckpt"), kind, spec, params)
    atomic_write_text(_out(cfg, f"loss-{kind}.tsv"), _indexed_tsv(history))
    print(f"wrote {_out(cfg, f'model-{kind}.ckpt')} "
          f"(final loss {history[-1]:.6g})")


def _eval_forecast(cfg: RunConfig, spec, params):
    ds = md.load_dataset(_require(_out(cfg, "test.wds")))
    raw_prices = _price_forecast(spec, params, ds)
    actuals = md.invert_minmax(ds.targets, ds.norm).reshape(-1)
    report = im.evaluate(actuals, raw_prices, cfg.metrics)
    return ds, raw_prices, actuals, report


def _write_forecast_table(cfg: RunConfig, kind: str, ds, forecast, actuals):
    levels = forecast.levels.levels
    header = "timestamp\tactual\t" + "\t".join(f"q{lv}" for lv in levels)
    rows = np.column_stack([ds.target_times, actuals, forecast.values])
    lines = [header, *("\t".join(map(repr, row)) for row in rows.tolist())]
    atomic_write_text(_out(cfg, f"forecast-{kind}.tsv"),
                      "\n".join(lines) + "\n")


def cmd_eval(cfg: RunConfig) -> None:
    kind = cfg.model_kind
    ckpt = _require(_out(cfg, f"model-{kind}.ckpt"))
    _, spec, params = load_checkpoint(ckpt)
    ds, forecast, actuals, report = _eval_forecast(cfg, spec, params)
    atomic_write_text(_out(cfg, f"metrics-{kind}.txt"), report.to_text())
    _write_forecast_table(cfg, kind, ds, forecast, actuals)
    save_forecast(_out(cfg, f"forecast-{kind}.bin"), forecast,
                  (ckpt, _out(cfg, "test.wds")))
    print(report.to_text(), end="")


def _backtest_forecast(cfg: RunConfig, kind: str) -> QuantileForecast:
    """eval's forecast, read from forecast-<kind>.bin when that file was
    written from the checkpoint and test.wds as they are now, else
    computed again from them."""
    ckpt = _require(_out(cfg, f"model-{kind}.ckpt"))
    wds = _require(_out(cfg, "test.wds"))
    cached = _out(cfg, f"forecast-{kind}.bin")
    forecast = load_forecast(cached, (ckpt, wds))
    if forecast is not None:
        print(f"forecast: read {cached}")
        return forecast
    print(f"forecast: computed from {ckpt} ({cached} is missing or stale)")
    _, spec, params = load_checkpoint(ckpt)
    return _price_forecast(spec, params, md.load_dataset(wds))


def cmd_backtest(cfg: RunConfig) -> None:
    kind = cfg.model_kind
    repaired = repair_monotonic(_backtest_forecast(cfg, kind))
    test_bars = _read_bars_tsv(cfg, "test")
    warm_up = max(cfg.indicators.rsi_period, cfg.indicators.atr_period)
    if len(test_bars) <= warm_up + cfg.window_in:
        print(f"warning: the test split has {len(test_bars)} bars, no more "
              f"than the indicator warm-up plus window_in "
              f"({warm_up} + {cfg.window_in}), so it cannot trade",
              file=sys.stderr)
    aligned = np.full((len(test_bars), repaired.values.shape[1]), np.nan)
    decision_bars = np.arange(len(repaired.values)) * cfg.stride
    aligned[decision_bars + cfg.window_in - 1] = repaired.values
    forecast = QuantileForecast(values=aligned, levels=repaired.levels)

    result = bt.run_backtest(
        test_bars, forecast, cfg.indicators, cfg.strategy,
        cfg.initial_capital, cfg.horizons,
    )
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
    print(bt.summary_text(result), end="")


def cmd_compare(cfg: RunConfig) -> None:
    ds = md.load_dataset(_require(_out(cfg, "train.wds")))
    rows = ["Model\tPICP\tCWC"]
    for index, kind in enumerate(KINDS):
        spec, params, _ = _train_model(cfg, kind, ds, cfg.seed + index)
        save_checkpoint(_out(cfg, f"model-{kind}.ckpt"), kind, spec, params)
        _, forecast, actuals, report = _eval_forecast(cfg, spec, params)
        atomic_write_text(_out(cfg, f"metrics-{kind}.txt"), report.to_text())
        rows.append(im.comparison_row(kind, report))
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
    parser.add_argument("--verbose", action="store_true")
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
