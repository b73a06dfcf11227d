"""The training step and eval-mode forward compute in a `layers.Workspace`:
a buffer is never read before it is written, and once the workspace is
sized a step allocates nothing, so the heap does not churn between steps."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantrange.config import LinearSpec, ModelSpec, TrainConfig
from quantrange.models import layers, training
from quantrange.models.network import forward
import test_training
from test_inference_chunks import SIZES, SPECS, _data

SRC = Path(__file__).resolve().parent.parent / "src"


def nan_buffers(monkeypatch):
    """New workspace buffers come back full of NaN (True for masks), so an
    output that reads one before writing it changes."""
    monkeypatch.setattr(layers, "_allocate",
                        lambda size, dtype: np.full(size, np.nan, dtype))


def test_training_reads_no_buffer_before_writing_it(monkeypatch):
    nan_buffers(monkeypatch)
    test_training.test_training_bits_locked()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_forward_reads_no_buffer_before_writing_it(kind, n, monkeypatch):
    spec = SPECS[kind]
    params, x, _ = _data(spec, n)
    values = forward(spec, params, x).values
    nan_buffers(monkeypatch)
    assert forward(spec, params, x).values.tobytes() == values.tobytes()


# the two shapes the benchmark trains at: train-attn's network at batch 64
# (500 windows: 7 batches of 64 and one of 52 per epoch), and the linear
# kind's full batch over ingest-ticks' 3495 training windows
STEPS = {
    "futurequant": (ModelSpec(num_blocks=2, num_heads=2, key_dim=8), 500,
                    TrainConfig(epochs=2, batch_size=64, seed=1)),
    "quantile-linear": (LinearSpec(num_inputs=5), 3495,
                        TrainConfig(learning_rate=0.05, epochs=13,
                                    batch_size=None, seed=1)),
}


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_steps_after_warm_up_allocate_nothing(kind, monkeypatch):
    # steps 3-12 (the smaller last batch and an epoch boundary among them);
    # when each step allocated its own arrays, steps 3-7 raised the traced
    # peak by 1.6 MB (futurequant) and 0.4 MB (linear)
    spec, n, config = STEPS[kind]
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, (n, 5, 1)), rng.uniform(0, 1, n)
    real, marks = training.loss_and_grads, []

    def marking(*args):
        marks.append(tracemalloc.get_traced_memory())
        if len(marks) == 3:
            tracemalloc.reset_peak()
        return real(*args)

    monkeypatch.setattr(training, "loss_and_grads", marking)
    tracemalloc.start()
    try:
        training.train(spec, x, y, config)
    finally:
        tracemalloc.stop()
    (start, _), (_, peak) = marks[2], marks[12]
    assert peak - start < 32_000, f"peak rose {(peak - start) / 1e3:.0f} KB"


FAULTS = """\
import resource, sys
import numpy as np
from quantrange.config import LinearSpec, ModelSpec, TrainConfig
from quantrange.models.training import train
kind, epochs = sys.argv[1], int(sys.argv[2])
if kind == "futurequant":
    n, spec = 500, ModelSpec(num_blocks=2, num_heads=2, key_dim=8)
    config = TrainConfig(epochs=epochs, batch_size=64, seed=1)
else:
    n, spec = 3495, LinearSpec(num_inputs=5)
    config = TrainConfig(learning_rate=0.05, epochs=epochs, batch_size=None,
                         seed=1)
rng = np.random.default_rng(0)
x, y = rng.uniform(0, 1, (n, 5, 1)), rng.uniform(0, 1, n)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(spec, x, y, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def train_faults(kind: str, epochs: int) -> int:
    """Minor page faults of one train() call in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", FAULTS, kind, str(epochs)],
                          capture_output=True, text=True, check=True, env=env)
    return int(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the trim that refaults the heap is glibc's")
@pytest.mark.parametrize("kind, epochs", [("futurequant", (2, 8)),
                                          ("quantile-linear", (100, 500))])
def test_more_epochs_fault_in_no_more_pages(kind, epochs):
    # glibc trimmed the heap top that each step freed and the next step
    # faulted it back in: 2 -> 8 epochs added 2.5k-7.4k faults, and the
    # linear kind's 100 -> 500 epochs 28k
    few, many = (train_faults(kind, e) for e in epochs)
    assert many - few < 1000, (few, many)
