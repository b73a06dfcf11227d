"""The benchmark's workloads: one INI config each, plus the artifact counts
that config implies, so every run can check the pipeline's outputs."""

from __future__ import annotations

from dataclasses import dataclass

TICK_SECONDS = 0.5          # spacing of the ticks `quantrange synth` writes


@dataclass(frozen=True)
class Workload:
    name: str
    sections: dict[str, dict[str, str]]

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def ini(self, seed: int) -> str:
        lines = ["[run]", f"seed = {seed}", ""]
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in values.items())
            lines.append("")
        return "\n".join(lines)

    @property
    def model_kind(self) -> str:
        return self.get("model", "kind")

    @property
    def ticks(self) -> int:
        return int(self.get("synthetic", "length"))

    @property
    def ticks_per_bar(self) -> int:
        k = float(self.get("data", "bar_interval")) / TICK_SECONDS
        if k != int(k):
            raise ValueError(f"{self.name}: bar_interval must be a multiple "
                             f"of the tick spacing {TICK_SECONDS}")
        return int(k)

    @property
    def window_in(self) -> int:
        return int(self.get("data", "window_in"))

    @property
    def epochs(self) -> int:
        return int(self.get("train", "epochs"))

    def split_bars(self) -> dict[str, int]:
        """Bars per split, by the same arithmetic as `quantrange ingest`."""
        n = (self.ticks - 1) // self.ticks_per_bar + 1
        n_train = int(n * float(self.get("data", "split_train")))
        n_val = int(n * float(self.get("data", "split_val")))
        return {"train": n_train, "val": n_val, "test": n - n_train - n_val}

    def split_windows(self) -> dict[str, int]:
        """Windows per split (window_out 1, stride 1)."""
        return {name: bars - self.window_in
                for name, bars in self.split_bars().items()}


WORKLOADS = {w.name: w for w in (
    Workload("train-attn", {
        # 2100/15500/8000 bars
        "data": {"source": "synthetic", "bar_interval": "0.5",
                 "split_train": "0.08203125", "split_val": "0.60546875",
                 "split_test": "0.3125", "window_in": "5"},
        "synthetic": {"kind": "gaussian-ar1", "length": "25600"},
        # the attention network at the ROADMAP's shapes
        "model": {"kind": "futurequant", "num_blocks": "2", "num_heads": "2",
                  "key_dim": "8", "dropout_rate": "0.0"},
        "train": {"learning_rate": "0.002", "epochs": "15",
                  "batch_size": "64"},
        # an ATR band wide enough that the backtest trades
        "indicators": {"atr_low": "0.002", "atr_high": "0.05"},
    }),
    Workload("ingest-ticks", {
        # 20 ticks per bar, 3500/500/6000 bars
        "data": {"source": "synthetic", "bar_interval": "10.0",
                 "split_train": "0.35", "split_val": "0.05",
                 "split_test": "0.6", "window_in": "5"},
        # phi 0.999 and sigma0 1 give a stationary sd of 22 around 100, so
        # the path crossed 0 on about one seed in 50 and `ingest` rejected
        # the non-positive prices; sigma0 0.5 puts 0 at 9 sd.
        "synthetic": {"kind": "gaussian-ar1", "length": "200000",
                      "phi": "0.999", "sigma0": "0.5"},
        "model": {"kind": "quantile-linear"},
        # the CLI trains the linear kind for max(epochs, 500) full-batch steps
        "train": {"epochs": "500"},
    }),
)}
