"""Eval-mode inference (`forward`, and `loss_value` through it) runs
`forward_raw` on at most INFER_CHUNK windows at a time. Its outputs and
losses must be those of one full-batch `forward_raw` call, its errors must
name the caller's input, and its memory must not grow with N."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from quantrange.config import LinearSpec, MLPSpec, ModelSpec, QuantileLevels
from quantrange.errors import ShapeMismatch
from quantrange.models import network
from quantrange.models.layers import Workspace
from quantrange.models.losses import mean_pinball
from quantrange.models.network import (
    INFER_CHUNK,
    forward,
    forward_raw,
    init_params,
    loss_value,
)

C = INFER_CHUNK
SIZES = (1, C - 1, C, C + 1, 2 * C + 1, 8000)

# the widths the configs use (train-attn's network, 5-step windows)
SPECS = {
    "futurequant": ModelSpec(num_blocks=2, num_heads=2, key_dim=8),
    "quantile-mlp": MLPSpec(num_inputs=5),
    "quantile-linear": LinearSpec(num_inputs=5),
}

# shapes for which BLAS may pick another kernel by row count: windows of
# one step, and products 1-3 columns wide
BLAS_SHAPE_SPECS = {
    "T=1": ModelSpec(window_in=1, num_blocks=1, conv_kernel=1),
    "3 levels": ModelSpec(num_blocks=1,
                          levels=QuantileLevels((0.1, 0.5, 0.9))),
    "mlp, 3 wide": MLPSpec(num_inputs=5, hidden=(3, 8)),
    "linear, 1 level": LinearSpec(num_inputs=5,
                                  levels=QuantileLevels((0.5,))),
}


def _window_shape(spec):
    if isinstance(spec, ModelSpec):
        return (spec.window_in, spec.num_features)
    return (spec.num_inputs, 1)


def _data(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x = rng.uniform(0, 1, (n, *_window_shape(spec)))
    return params, x, rng.uniform(0, 1, n)


@pytest.mark.parametrize("n", (0, *SIZES))
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_forward_is_bit_equal_to_one_full_batch(kind, n):
    # zero windows give an empty (0, Q) forecast for every kind
    spec = SPECS[kind]
    params, x, _ = _data(spec, n)
    full, _ = forward_raw(spec, params, x, None, Workspace())
    values = forward(spec, params, x).values
    assert values.shape == full.shape == (n, len(spec.levels))
    assert values.tobytes() == full.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(BLAS_SHAPE_SPECS))
def test_forward_blas_shapes_within_1e12(name, n):
    spec = BLAS_SHAPE_SPECS[name]
    params, x, _ = _data(spec, n)
    full, _ = forward_raw(spec, params, x, None, Workspace())
    np.testing.assert_allclose(forward(spec, params, x).values, full,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("loss", [mean_pinball], ids=["pinball"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_loss_value_matches_one_full_batch(kind, n, loss):
    spec = SPECS[kind]
    params, x, y = _data(spec, n, seed=1)
    out, _ = forward_raw(spec, params, x, None, Workspace())
    assert loss_value(spec, params, x, y) == float(
        loss(out, y, spec.levels.levels))


@pytest.mark.parametrize("n", SIZES)
def test_chunks_are_at_most_infer_chunk_and_never_tiny(n, monkeypatch):
    spec = SPECS["futurequant"]
    params, x, _ = _data(spec, n)
    sizes = []

    def counting(spec, params, x, *args):
        sizes.append(len(x))
        return forward_raw(spec, params, x, *args)

    monkeypatch.setattr(network, "forward_raw", counting)
    forward(spec, params, x)
    assert sum(sizes) == n
    assert len(sizes) == math.ceil(n / C)
    assert max(sizes) <= C and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("kind, bad_window", [
    ("futurequant", (4, 1)),
    ("quantile-mlp", (4, 1)),
    ("quantile-linear", (6,)),
])
def test_wrong_width_names_the_whole_input(kind, bad_window):
    spec = SPECS[kind]
    params = init_params(spec, np.random.default_rng(0))
    x = np.zeros((2 * C + 1, *bad_window))
    whole = f"got (input )?{re.escape(str(x.shape))}"
    with pytest.raises(ShapeMismatch, match=whole):
        forward(spec, params, x)
    with pytest.raises(ShapeMismatch, match=whole):
        loss_value(spec, params, x, np.zeros(len(x)))


@pytest.mark.parametrize("n", [8000, 32000])
def test_forward_memory_does_not_grow_with_n(n):
    # train-attn's network; one full-batch call peaked at 135 MB on 8000
    spec = ModelSpec(num_blocks=2, num_heads=2, key_dim=8)
    params, x, _ = _data(spec, n)
    tracemalloc.start()
    try:
        forward(spec, params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
