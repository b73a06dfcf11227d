"""quantrange pipeline benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. For the workload (see
`workloads.py` and README.md) it writes an INI config, then for about S
seconds repeats set-up (`quantrange synth`) followed by the pipeline
`ingest -> train -> eval -> backtest`, each stage its own process with
BLAS pinned to one thread: a closed loop with one client. Every run's
outputs are checked (exit codes, bar and window counts, finite forecasts,
byte-identical artifacts across repeats) and its forecasts are scored
against the synthetic process's exact quantiles.

With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json (medians over repeats). With
`--trace 1` untraced and traced repeats alternate and it holds the
per-layer metrics instead: medians over the traced repeats of spans
recorded around each module's public functions (see `tracing.py`), plus
the tracing overhead. Spans are written to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
PIPELINE = ("ingest", "train", "eval", "backtest")
MIN_REPEATS = 2            # repeats, so determinism is always checked
NOMINAL_COVERAGE = 0.90    # 1 - beta with the default [metrics] beta = 0.1
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class CheckFailed(Exception):
    """A stage failed or an output check did not hold."""


@dataclass
class StageRun:
    seconds: float
    max_rss_mb: float


@dataclass
class Repeat:
    stages: dict[str, StageRun]
    seconds: float
    spans: list[list] = field(default_factory=list)
    setup: StageRun | None = None
    setup_spans: list[list] = field(default_factory=list)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.max_rss_mb for s in self.stages.values())


def stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    return env


def run_stage(stage: str, ini: Path, out: Path, log: Path, deadline: float,
              spans: Path | None = None) -> StageRun:
    """One CLI stage as its own process, killed at `deadline` (monotonic
    clock); wall time and its ru_maxrss."""
    cmd = [sys.executable, str(HERE / "stage.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += [stage, "--config", str(ini), "--out", str(out)]
    with open(log, "wb") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT,
                                env=stage_env(), cwd=ROOT)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise CheckFailed(f"stage {stage} exited {proc.returncode}:\n{tail}")
    return StageRun(seconds, usage.ru_maxrss / 1024.0)


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


# --- output checks ---------------------------------------------------------

def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_wds_header(path: Path) -> tuple[int, int, int, int]:
    with open(path, "rb") as fh:
        head = fh.read(28)
    check(head[:8] == b"QRWDSv1\x00", f"{path.name}: bad magic")
    return struct.unpack_from("<IIII", head, 12)


def read_kv(path: Path) -> dict[str, str]:
    pairs = (line.partition(" = ") for line in
             path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, _, v in pairs}


def check_outputs(wl: Workload, out: Path) -> None:
    """Counts the config implies, finite forecasts, and complete reports."""
    kind = wl.model_kind
    bars = wl.split_bars()
    windows = wl.split_windows()
    with open(out / "bars.tsv", encoding="utf-8") as fh:
        next(fh)
        labels = [line.rsplit("\t", 1)[1].rstrip("\n") for line in fh]
    for split, n in bars.items():
        check(labels.count(split) == n,
              f"bars.tsv: {labels.count(split)} {split} bars, expected {n}")
        header = read_wds_header(out / f"{split}.wds")
        check(header == (windows[split], wl.window_in, 1, 1),
              f"{split}.wds: header {header}, expected "
              f"{(windows[split], wl.window_in, 1, 1)}")
    rows = forecast_rows(out / f"forecast-{kind}.tsv")
    check(len(rows[1]) == windows["test"],
          f"forecast: {len(rows[1])} rows, expected {windows['test']}")
    report = read_kv(out / f"metrics-{kind}.txt")
    check(int(report["n"]) == windows["test"], "metrics: wrong n")
    summary = read_kv(out / f"backtest-{kind}.txt")
    check(math.isfinite(float(summary["final_equity"])),
          "backtest: final equity not finite")
    with open(out / f"equity-{kind}.tsv", encoding="utf-8") as fh:
        equity_rows = sum(1 for _ in fh)
    check(equity_rows == bars["test"] + 1,
          f"equity: {equity_rows} rows, expected {bars['test'] + 1}")
    with open(out / f"loss-{kind}.tsv", encoding="utf-8") as fh:
        loss_rows = sum(1 for _ in fh)
    check(loss_rows == wl.epochs + 1,
          f"loss: {loss_rows} rows, expected {wl.epochs + 1}")


def forecast_rows(path: Path):
    """(levels, rows) of a forecast table; every value must be finite."""
    with open(path, encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split("\t")
        # With numpy >= 2 the CLI writes the timestamp and actual cells as
        # the repr of a numpy scalar, `np.float64(x)`; read x.
        table = np.array([line.replace("np.float64(", "").replace(")", "")
                          .split("\t") for line in fh], dtype=float)
    check(header[:2] == ["timestamp", "actual"], f"{path.name}: bad header")
    check(table.ndim == 2 and table.shape[1] == len(header),
          f"{path.name}: ragged rows")
    check(bool(np.isfinite(table).all()), f"{path.name}: non-finite values")
    return [float(h[1:]) for h in header[2:]], table


# --- forecast quality against the exact oracle ----------------------------

def oracle_quantiles(spec, prices: np.ndarray, oracle, prev: np.ndarray,
                     steps: np.ndarray, levels: list[float]) -> np.ndarray:
    """Exact quantiles of the price `steps` ticks after each tick index in
    `prev`, for the process `quantrange synth` sampled."""
    states = prices[prev]
    if (steps == 1).all():
        return np.array([[oracle(p, b) for b in levels] for p in states])
    # h-step Gaussian AR(1): N(phi^h x, sigma0^2 (1 - phi^2h) / (1 - phi^2))
    check(spec.kind == "gaussian-ar1",
          f"no exact multi-step oracle for {spec.kind}")
    z = np.array([statistics.NormalDist().inv_cdf(b) for b in levels])

    def closed_form(x, h):
        mean = spec.base_price + spec.phi ** h * (x - spec.base_price)
        sd = spec.sigma0 * np.sqrt((1 - spec.phi ** (2 * h))
                                   / (1 - spec.phi ** 2))
        return mean[:, None] + sd[:, None] * z[None, :]

    one_step = np.array([[oracle(p, b) for b in levels] for p in states[:8]])
    check(np.allclose(closed_form(states[:8], np.ones(8)), one_step,
                      rtol=0, atol=1e-9),
          "closed-form oracle disagrees with synthetic.generate's at one step")
    return closed_form(states, steps)


def zero_width_ratio(levels: list[float]) -> float:
    """pinball_ratio of a zero-width interval at the exact median of a
    Gaussian predictive law (2.09 for the default five levels). A model
    that scores worse is broken: the run fails."""
    nd = statistics.NormalDist()
    return (len(levels) * nd.pdf(0.0)
            / sum(nd.pdf(nd.inv_cdf(b)) for b in levels))


def quality(wl: Workload, ini: Path, seed: int, out: Path) -> dict[str, float]:
    """pinball_ratio (model over oracle, on the test rows) and picp_error."""
    from quantrange.config import load_config
    from quantrange.models.losses import mean_pinball
    from quantrange.synthetic import generate

    kind = wl.model_kind
    levels, table = forecast_rows(out / f"forecast-{kind}.tsv")
    with open(out / "bars.tsv", encoding="utf-8") as fh:
        next(fh)
        bar_index = {float(line.split("\t", 1)[0]): i
                     for i, line in enumerate(fh)}
    check(all(t in bar_index for t in table[:, 0]),
          "forecast timestamps are not bar open times")
    target = np.array([bar_index[t] for t in table[:, 0]])
    spec = load_config(str(ini), seed_override=seed).synthetic
    prices, oracle = generate(spec)
    # a bar's close is its last tick; the final bar may hold fewer ticks
    k = wl.ticks_per_bar
    prev = target * k - 1
    close = np.minimum((target + 1) * k, len(prices)) - 1
    actual = table[:, 1]
    # the tick file rounds prices to 6 decimals
    check(np.allclose(actual, prices[close], rtol=0, atol=1e-5),
          "forecast actuals do not match the generated closes")
    oracle = oracle_quantiles(spec, prices, oracle, prev, close - prev, levels)
    ratio = (mean_pinball(table[:, 2:], actual, levels)
             / mean_pinball(oracle, actual, levels))
    limit = zero_width_ratio(levels)
    check(ratio < limit, f"pinball_ratio {ratio:.3f} is not below {limit:.3f},"
          " the score of a zero-width interval at the exact median")
    picp = float(read_kv(out / f"metrics-{kind}.txt")["picp"])
    return {"pinball_ratio": float(ratio),
            "picp_error": abs(picp - NOMINAL_COVERAGE)}


QUALITY = ("pinball_ratio", "picp_error")


# --- the run ---------------------------------------------------------------

class Bench:
    """One benchmark run's state. Each synth run and each pipeline run is
    one closed-loop operation; a stage failure or a failed check (counts,
    finite forecasts, artifacts byte-identical to the first repeat) fails
    the operation and ends the run."""

    def __init__(self, wl: Workload, seed: int, trace: bool, seconds: float):
        self.wl, self.seed, self.trace = wl, seed, trace
        self.dir = WORK / f"{wl.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        self.logs = self.dir / "logs"
        self.out.mkdir(parents=True)
        self.logs.mkdir()
        self.ini = self.dir / "run.ini"
        self.ini.write_text(wl.ini(seed), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, dict[str, str]] = {}
        self.quality: dict[str, float] = {}
        # a stage still running this long after the start is killed
        self.deadline = time.monotonic() + max(2 * seconds, 45.0)

    def operation(self, fn, traced: bool):
        self.attempted += 1
        try:
            return fn(traced)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            raise CheckFailed(str(exc)) from exc

    def _same_as_first(self, what: str) -> None:
        found = digests(self.out)
        first = self.reference.setdefault(what, found)
        if found != first:
            differ = sorted(k for k in first.keys() | found.keys()
                            if first.get(k) != found.get(k))
            raise CheckFailed(f"{what}: artifacts differ from the first "
                              f"repeat: {differ}")

    def synth(self, traced: bool) -> tuple[StageRun, list[list]]:
        for p in self.out.iterdir():
            p.unlink()
        spans = self.dir / "spans-synth.json" if traced else None
        run = run_stage("synth", self.ini, self.out, self.logs / "synth.log",
                        self.deadline, spans)
        lines = (self.out / "ticks.csv").read_bytes().count(b"\n") - 1
        check(lines == self.wl.ticks, f"ticks.csv: {lines} rows, "
              f"expected {self.wl.ticks}")
        self._same_as_first("synth")
        return run, json.loads(spans.read_text()) if traced else []

    def pipeline(self, traced: bool) -> Repeat:
        stages: dict[str, StageRun] = {}
        start = time.perf_counter()
        for stage in PIPELINE:
            path = self.dir / f"spans-{stage}.json" if traced else None
            stages[stage] = run_stage(stage, self.ini, self.out,
                                      self.logs / f"{stage}.log",
                                      self.deadline, path)
        seconds = time.perf_counter() - start
        spans: list[list] = []
        for stage in PIPELINE if traced else ():
            path = self.dir / f"spans-{stage}.json"
            spans.extend(offset(json.loads(path.read_text()), len(spans)))
        check_outputs(self.wl, self.out)
        if not self.quality:
            self.quality = quality(self.wl, self.ini, self.seed, self.out)
        self._same_as_first("pipeline")
        return Repeat(stages, seconds, spans)


def offset(spans: list[list], by: int) -> list[list]:
    """Re-base parent indices so spans of several processes can be joined."""
    for span in spans:
        if span[3] >= 0:
            span[3] += by
    return spans


def run_bench(b: Bench, seconds: float) -> list[Repeat]:
    """The timed loop: each repeat is set-up (synth) then the pipeline,
    until the next repeat would end after `seconds`, at least MIN_REPEATS
    times. Set-up runs inside the loop so that `setup_s` samples the same
    host speed as the stage timings. In trace mode untraced and traced
    repeats alternate."""
    repeats: list[Repeat] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = b.trace and len(repeats) % 2 == 1
        setup, setup_spans = b.operation(b.synth, traced)
        repeat = b.operation(b.pipeline, traced)
        repeat.setup, repeat.setup_spans = setup, setup_spans
        repeats.append(repeat)
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if (len(repeats) >= MIN_REPEATS
                and elapsed + statistics.median(durations) > seconds):
            return repeats


def end_to_end(b: Bench, repeats: list[Repeat]) -> dict[str, float]:
    wl = b.wl
    windows, bars = wl.split_windows(), wl.split_bars()
    work = {
        "ingest_ticks_per_s": ("ingest", wl.ticks),
        "train_samples_per_s": ("train", windows["train"] * wl.epochs),
        "eval_windows_per_s": ("eval", windows["test"]),
        "backtest_bars_per_s": ("backtest", bars["test"]),
    }
    metrics = {
        "setup_s": statistics.median(r.setup.seconds for r in repeats),
        "pipeline_s": statistics.median(r.seconds for r in repeats),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in repeats),
    }
    for name, (stage, amount) in work.items():
        metrics[name] = statistics.median(amount / r.stages[stage].seconds
                                          for r in repeats)
    return metrics


def samples(repeats: list[Repeat]) -> dict:
    """Every timing the medians come from, in run order."""
    out = {"setup_s": [r.setup.seconds for r in repeats],
           "pipeline_s": [r.seconds for r in repeats]}
    for stage in PIPELINE:
        out[f"{stage}_s"] = [r.stages[stage].seconds for r in repeats]
    return out


def per_layer(names: list[str], repeats: list[Repeat]) -> dict[str, float]:
    """Medians over traced repeats; a function never called reads 0."""
    traced = [r for r in repeats if r.spans]
    plain = [r for r in repeats if not r.spans]
    # synth is set-up: its spans supply the synthetic.* and cli.synth.*
    # numbers; io_utils.* and the rest cover the pipeline stages only.
    runs = [{**tracing.summarise(r.setup_spans), **tracing.summarise(r.spans)}
            for r in traced]
    metrics = {name: statistics.median(run.get(name, 0.0) for run in runs)
               for name in names
               if not name.startswith("trace.") and name not in QUALITY}
    untraced = statistics.median(r.seconds for r in plain)
    traced_s = statistics.median(r.seconds for r in traced)
    metrics["trace.pipeline_s.untraced"] = untraced
    metrics["trace.pipeline_s.traced"] = traced_s
    metrics["trace.overhead.ratio"] = traced_s / untraced
    return metrics


def write_spans(b: Bench, repeats: list[Repeat]):
    """All spans of the run, one JSON line each, tagged with a run id."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    runs = [(tag, spans) for i, r in enumerate(repeats) if r.spans
            for tag, spans in ((f"r{i}-synth", r.setup_spans),
                               (f"r{i}", r.spans))]
    with open(traces / f"{b.wl.name}-seed{b.seed}.jsonl", "w",
              encoding="utf-8") as fh:
        for tag, spans in runs:
            run_id = f"{b.wl.name}-seed{b.seed}-{tag}"
            for name, start, end, parent, counters in spans:
                fh.write(json.dumps({"run": run_id, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "counters": counters},
                                    separators=(",", ":")) + "\n")


def environment(runs: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src_digest.update(p.relative_to(SRC).as_posix().encode() + b"\0")
        src_digest.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "commit": commit, "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "operations_completed": runs,
        "load": "closed loop, one client, one stage process at a time",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quantrange" / "cli.py").is_file():
        print(f"error: no quantrange source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quantrange

    if Path(quantrange.__file__).resolve().parent != SRC / "quantrange":
        print(f"error: imported quantrange from {quantrange.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    all_units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}

    b = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace),
              args.seconds)
    metrics: dict[str, float] = {}
    try:
        repeats = run_bench(b, args.seconds)
        if b.trace:
            write_spans(b, repeats)
            metrics = per_layer(list(units), repeats)
        else:
            metrics = end_to_end(b, repeats)
        # the same on every repeat of one seed
        metrics.update((k, v) for k, v in b.quality.items() if k in units)
    except CheckFailed:
        pass
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)
    correct = b.failed == 0 and set(metrics) == set(units)
    runs = b.attempted - b.failed
    print("env " + json.dumps(environment(runs), sort_keys=True))
    if not b.trace and metrics:
        print("samples " + json.dumps(samples(repeats)))
    for name, value in {**metrics, **b.quality}.items():
        print(f"{name} = {value!r} {all_units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": b.attempted, "failed": b.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
