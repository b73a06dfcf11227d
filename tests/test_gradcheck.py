import numpy as np
import pytest

from quantrange.config import LinearSpec, MLPSpec, ModelSpec, QuantileLevels
from quantrange.models.layers import Workspace
from quantrange.models.network import (
    backward_raw,
    forward_raw,
    init_params,
    loss_and_grads,
    zero_params,
)
from reference_network import central_difference, gradient_check, relu_masks

DENSE_SPECS = pytest.mark.parametrize("spec", [
    LinearSpec(num_inputs=3, levels=QuantileLevels((0.25, 0.75))),
    MLPSpec(num_inputs=3, hidden=(6, 4), levels=QuantileLevels((0.25, 0.75))),
], ids=["linear", "mlp"])


def squared_loss_and_grads(spec, params, x, y):
    """Mean squared error of every quantile column against y, and its
    gradients: a smooth loss, so plain central differences apply at every
    coordinate."""
    ws = Workspace()
    out, caches = forward_raw(spec, params, x, None, ws)
    residual = out - y[:, None]
    return (float((residual ** 2).mean()),
            backward_raw(spec, caches, 2.0 * residual / residual.size, ws))


def squared_loss_max_rel_error(spec, params, x, y, h, floor):
    """Largest relative error of the squared loss's analytic gradient
    against central differences, over every parameter coordinate."""
    _, grads = squared_loss_and_grads(spec, params, x, y)
    analytic = np.concatenate([grads[name].ravel() for name in params.arrays])
    worst = 0.0
    for i, orig in enumerate(params.flat.copy()):
        params.flat[i] = orig + h
        up, _ = squared_loss_and_grads(spec, params, x, y)
        params.flat[i] = orig - h
        dn, _ = squared_loss_and_grads(spec, params, x, y)
        params.flat[i] = orig
        numeric = (up - dn) / (2 * h)
        denom = max(abs(numeric), abs(analytic[i]), floor)
        worst = max(worst, abs(numeric - analytic[i]) / denom)
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_network_pinball_gradients(seed):
    spec = ModelSpec(num_blocks=2, dropout_rate=0.0)
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x = rng.uniform(0, 1, (8, 5, 1))
    y = rng.uniform(0, 1, 8)
    result = gradient_check(spec, params, x, y, num_params=150, seed=seed)
    assert result.max_rel_error <= 1e-4
    assert result.checked > 0


def test_gradient_check_leaves_params_untouched():
    spec = ModelSpec(num_blocks=1, dropout_rate=0.0)
    rng = np.random.default_rng(3)
    params = init_params(spec, rng)
    before = {k: v.copy() for k, v in params.arrays.items()}
    x = rng.uniform(0, 1, (4, 5, 1))
    y = rng.uniform(0, 1, 4)
    gradient_check(spec, params, x, y, num_params=40, seed=0)
    for name, arr in before.items():
        assert np.array_equal(params.arrays[name], arr)


def test_linear_squared_loss_gradients():
    spec = LinearSpec(num_inputs=3, levels=QuantileLevels((0.25, 0.75)))
    rng = np.random.default_rng(4)
    params = init_params(spec, rng)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    assert squared_loss_max_rel_error(spec, params, x, y, h=1e-6,
                                      floor=1e-8) <= 1e-6


@DENSE_SPECS
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_kinds_squared_loss_gradient_check(spec, seed):
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    assert squared_loss_max_rel_error(spec, params, x, y, h=1e-5,
                                      floor=1e-6) <= 1e-6


@DENSE_SPECS
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_kinds_pinball_gradient_check(spec, seed):
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    result = gradient_check(spec, params, x, y, num_params=200, seed=seed)
    assert result.max_rel_error <= 1e-6
    assert result.checked > 0


def test_coordinate_on_a_kink_is_skipped():
    # zero weights and a zero target put both outputs exactly on the
    # target, so +h and -h on any coordinate land on opposite sides of a
    # pinball kink, where the central difference is not the gradient
    spec = LinearSpec(num_inputs=1, levels=QuantileLevels((0.25, 0.75)))
    params = zero_params(spec)
    x, y = np.ones((1, 1)), np.zeros(1)
    size = params.flat.size
    result = gradient_check(spec, params, x, y, num_params=size)
    assert result.skipped_kinks == size > 0
    assert result.checked == 0
    _, grads = loss_and_grads(spec, params, x, y, None, Workspace())
    analytic = np.concatenate([grads[name].ravel() for name in params.arrays])
    for i in range(size):
        numeric, smooth = central_difference(spec, params, x, y, i, 1e-5)
        assert not smooth
        assert abs(numeric - analytic[i]) > 1e-4


@pytest.mark.parametrize("spec, shapes", [
    # num_blocks + 2 masks for futurequant, 2 for the MLP, none for linear
    (ModelSpec(num_blocks=3, conv_channels=7, dropout_rate=0.0),
     [(4, 5, 7)] * 3 + [(4, 32), (4, 16)]),
    (MLPSpec(num_inputs=5, hidden=(6, 4)), [(4, 6), (4, 4)]),
    (LinearSpec(num_inputs=5), []),
], ids=["futurequant", "mlp", "linear"])
def test_signature_reads_every_relu_mask(spec, shapes):
    rng = np.random.default_rng(0)
    params = init_params(spec, rng)
    _, caches = forward_raw(spec, params, rng.uniform(-1, 1, (4, 5, 1)),
                            None, Workspace())
    masks = relu_masks(caches)
    assert [m.shape for m in masks] == shapes
    assert all(m.dtype == bool for m in masks)
