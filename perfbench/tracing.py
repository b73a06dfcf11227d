"""Spans around quantrange's public functions, recorded from outside the
package.

`install` replaces each traced function at the module attribute the
pipeline looks it up through (for example `quantrange.cli.train`, because
`cli` imported `train` by name) with a wrapper that records a span:
name, start and end in ns, and the index of the enclosing span. Spans stay
in memory until the stage process writes them out. `summarise` turns the
spans of one pipeline run into per-layer totals, counts and self times.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

BOOKKEEPING = "trace.bookkeeping"   # time spent computing counters


def _parse_counts(args, kwargs, result):
    return {"market_data.parse_ticks.rows": len(result.records),
            "market_data.parse_ticks.rows_dropped": result.dropped_rows}


def _resample_counts(args, kwargs, result):
    ticks = args[0]
    interval = args[1] if len(args) > 1 else kwargs.get("interval", 30.0)
    t0 = ticks[0].timestamp
    filled = len({int((t.timestamp - t0) // interval) for t in ticks})
    return {"market_data.resample.bars": len(result),
            "market_data.resample.bars_filled": len(result) - filled}


def _window_counts(args, kwargs, result):
    return {"market_data.make_windows.windows": result.num_samples}


def _backtest_counts(args, kwargs, result):
    counts = {"backtest.run_backtest.trades": len(result.trades)}
    for reason, n in Counter(s.reason for s in result.signals).items():
        counts[f"strategy.Signal.{reason}"] = n
    return counts


def _byte_counts(name):
    def count(args, kwargs, result):
        data = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        if isinstance(data, str):
            data = data.encode("utf-8")
        return {f"{name}.bytes": len(data)}
    return count


LAYERS = [f"{layer}_{side}"
          for layer in ("mha", "conv1d", "layer_norm", "linear")
          for side in ("forward", "backward")]
STAGES = ("synth", "ingest", "train", "eval", "backtest")

# (span name, module, attribute looked up by the pipeline, counter function)
TARGETS = [
    ("market_data.parse_ticks", "quantrange.market_data", "parse_ticks",
     _parse_counts),
    ("market_data.resample", "quantrange.market_data", "resample",
     _resample_counts),
    ("market_data.make_windows", "quantrange.market_data", "make_windows",
     _window_counts),
    ("market_data.save_dataset", "quantrange.market_data", "save_dataset", None),
    ("market_data.load_dataset", "quantrange.market_data", "load_dataset", None),
    ("synthetic.generate", "quantrange.cli", "generate", None),
    ("synthetic.to_tick_text", "quantrange.cli", "to_tick_text", None),
    *[(f"models.layers.{fn}", "quantrange.models.layers", fn, None)
      for fn in LAYERS],
    ("models.network.forward_raw", "quantrange.models.network", "forward_raw",
     None),
    ("models.network.backward_raw", "quantrange.models.network", "backward_raw",
     None),
    ("models.network.loss_and_grads", "quantrange.models.training",
     "loss_and_grads", None),
    ("models.training.Optimizer.step", "quantrange.models.training",
     "Optimizer.step", None),
    ("models.training.loss_value", "quantrange.models.training", "loss_value",
     None),
    ("models.training.train", "quantrange.cli", "train", None),
    ("models.baselines.train_linear", "quantrange.cli", "train_linear", None),
    ("models.checkpoint.save_checkpoint", "quantrange.cli", "save_checkpoint",
     None),
    ("models.checkpoint.load_checkpoint", "quantrange.cli", "load_checkpoint",
     None),
    ("interval_metrics.evaluate", "quantrange.interval_metrics", "evaluate",
     None),
    ("indicators.rsi", "quantrange.backtest", "rsi", None),
    ("indicators.atr_percent", "quantrange.backtest", "atr_percent", None),
    ("strategy.generate_signal", "quantrange.backtest", "generate_signal", None),
    ("strategy.positions_from_signals", "quantrange.backtest",
     "positions_from_signals", None),
    ("backtest.run_backtest", "quantrange.backtest", "run_backtest",
     _backtest_counts),
    ("backtest.equity_from_positions", "quantrange.backtest",
     "equity_from_positions", None),
    ("io_utils.atomic_write_text", "quantrange.cli", "atomic_write_text",
     _byte_counts("io_utils.atomic_write_text")),
    ("io_utils.atomic_write_bytes", "quantrange.io_utils", "atomic_write_bytes",
     _byte_counts("io_utils.atomic_write_bytes")),
    ("io_utils.atomic_write_bytes", "quantrange.models.checkpoint",
     "atomic_write_bytes", _byte_counts("io_utils.atomic_write_bytes")),
]


class Recorder:
    """In-memory span list. A span is [name, start_ns, end_ns, parent index
    (-1 at the root), counters or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
                spans.append([BOOKKEEPING, span[2], clock(), parent, None])
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every target and each CLI stage; quantrange.cli must import."""
    for name, module_name, attr, count in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf), count))
    commands = importlib.import_module("quantrange.cli").COMMANDS
    for stage in STAGES:
        commands[stage] = recorder.wrap(f"cli.{stage}", commands[stage])


def summarise(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one run's spans: `<span>.s` (inclusive time),
    `<span>.calls`, `<span>.us_per_call` (median call, so a few large-batch
    calls do not hide the cost of the many small ones),
    `cli.<stage>.self_s` (stage time covered neither by a traced child nor
    by counter bookkeeping) and every counter. Parent indices must refer to
    positions in `spans`."""
    durations: dict[str, list[int]] = defaultdict(list)
    child_ns: dict[int, int] = defaultdict(int)
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, counters in spans:
        if parent >= 0:
            child_ns[parent] += end - start
        if name == BOOKKEEPING:
            continue
        durations[name].append(end - start)
        for key, value in (counters or {}).items():
            out[key] += value
    for name, ns in durations.items():
        out[f"{name}.s"] = sum(ns) / 1e9
        out[f"{name}.calls"] = len(ns)
        out[f"{name}.us_per_call"] = statistics.median(ns) / 1e3
    for index, (name, start, end, _, _) in enumerate(spans):
        if name.startswith("cli."):
            out[f"{name}.self_s"] += (end - start - child_ns[index]) / 1e9
    return dict(out)
