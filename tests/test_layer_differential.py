"""The layers and the flat-vector optimizer against `reference_layers`:
every output and gradient, and every parameter after each optimizer step,
must be equal to the reference's (np.array_equal).

The layers compute every dot product and sum in the reference's order,
but run the attention projections and the conv input gradient as one
(N*T, d) matmul where the reference ran N matmuls of (T, d). BLAS picks
its kernel by shape: for a window of one step (T = 1), a product 1-3
columns wide, or a transposed 32-wide weight, OpenBLAS 0.3.31 on x86-64
runs the two forms with different kernels, whose results differ in the
last bits. Shapes drawn from those ranges are compared to 1e-12 instead.
Widths 4-16 and windows of 2 or more steps, which cover the README and
benchmark configs, compare exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_layers as ref
from quantrange.models import layers as L
from quantrange.models.network import ParameterSet
from quantrange.models.training import Optimizer, TrainConfig

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
WIDTHS = [4, 5, 8, 16]          # the BLAS kernels agree: exact comparison
ODD_WIDTHS = [1, 2, 3, 32]      # they may not: compared to 1e-12


def assert_all_equal(got, want, exact: bool):
    got, want = tuple(got), tuple(want)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        if exact:
            assert np.array_equal(a, b), f"output {i} differs"
        else:
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12), f"output {i}"


@st.composite
def shapes(draw):
    """(n, t, heads, d, k, channels, seed, exact): batch sizes from one
    sample to a full eval set, 1, 2 or 4 heads of model width d, kernel
    widths 1-4 (even widths pad unevenly), and `exact` false when a width
    or the window length lies where the BLAS kernels may differ."""
    exact = draw(st.booleans())
    n = draw(st.sampled_from([1, 2, 64, 2095]))
    t = draw(st.integers(2, 7) if exact else st.integers(1, 7))
    heads = draw(st.sampled_from([1, 2, 4]))
    widths = WIDTHS if exact else WIDTHS + ODD_WIDTHS
    d = draw(st.sampled_from([w for w in widths if w % heads == 0]))
    k = draw(st.integers(1, min(4, t)))
    channels = draw(st.sampled_from(widths))
    return n, t, heads, d, k, channels, draw(st.integers(0, 2**32 - 1)), exact


@SETTINGS
@given(shapes())
def test_layer_norm(shape):
    n, t, _, d, _, _, seed, _ = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t, d)) * 3.0 + 1.0
    gamma, shift = rng.standard_normal(d), rng.standard_normal(d)
    dy = rng.standard_normal((n, t, d))
    y, cache = L.layer_norm_forward(x, gamma, shift, 1e-5)
    y_ref, cache_ref = ref.layer_norm_forward(x, gamma, shift, 1e-5)
    # no matmul: exact at every shape
    assert np.array_equal(y, y_ref)
    assert_all_equal(L.layer_norm_backward(cache, dy),
                     ref.layer_norm_backward(cache_ref, dy), exact=True)


@SETTINGS
@given(shapes())
def test_mha(shape):
    n, t, heads, d, _, _, seed, exact = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t, d))
    ws = [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)]
    dy = rng.standard_normal((n, t, d))
    y, cache = L.mha_forward(x, *ws, heads)
    y_ref, cache_ref = ref.mha_forward(x, *ws, heads)
    assert_all_equal([y], [y_ref], exact)
    assert_all_equal(L.mha_backward(cache, dy),
                     ref.mha_backward(cache_ref, dy), exact)


@SETTINGS
@given(shapes())
def test_conv1d(shape):
    n, t, _, cin, k, cout, seed, exact = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t, cin))
    w, b = rng.standard_normal((k, cin, cout)), rng.standard_normal(cout)
    dy = rng.standard_normal((n, t, cout))
    y, cache = L.conv1d_forward(x, w, b)
    y_ref, cache_ref = ref.conv1d_forward(x, w, b)
    assert_all_equal([y], [y_ref], exact)
    assert_all_equal(L.conv1d_backward(cache, dy),
                     ref.conv1d_backward(cache_ref, dy), exact)


SHAPES = {"block0_wq": (16, 16), "block0_ln1_g": (16,),
          "block0_conv1_w": (3, 16, 16), "out_w": (16, 5), "out_b": (5,)}


@pytest.mark.parametrize("clip", [None, 0.5, 1e6])
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
def test_optimizer_matches_per_array_updates(optimizer, clip):
    rng = np.random.default_rng(0)
    arrays = {name: rng.standard_normal(shape) for name, shape in SHAPES.items()}
    params = ParameterSet(arrays)
    config = TrainConfig(learning_rate=0.01, optimizer=optimizer,
                         gradient_clip=clip)
    opt, opt_ref = Optimizer(config, params), ref.Optimizer(config, arrays)
    for step in range(20):
        # grads in the order a backward pass returns them, not the
        # parameter order
        grads = {name: rng.standard_normal(SHAPES[name]) * (step + 1)
                 for name in reversed(SHAPES)}
        opt.lr = opt_ref.lr = 0.01 / np.sqrt(1.0 + step)
        opt.step(params, grads)
        opt_ref.step(arrays, grads)
        for name in SHAPES:
            assert np.array_equal(params[name], arrays[name]), (step, name)
