import numpy as np
import pytest

from quantrange.models import (
    LinearSpec,
    MLPSpec,
    ModelSpec,
    QuantileLevels,
    gradient_check,
    init_params,
    loss_and_grads,
)


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
    # squared loss is smooth, so plain central differences apply everywhere
    spec = LinearSpec(num_inputs=3, levels=QuantileLevels((0.25, 0.75)))
    rng = np.random.default_rng(4)
    params = init_params(spec, rng)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    _, grads = loss_and_grads(spec, params, x, y, loss="squared")
    h = 1e-6
    for name, grad in grads.items():
        flat = params.arrays[name].reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = loss_and_grads(spec, params, x, y, loss="squared")
            flat[idx] = orig - h
            dn, _ = loss_and_grads(spec, params, x, y, loss="squared")
            flat[idx] = orig
            numeric = (up - dn) / (2 * h)
            denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
            assert abs(numeric - gflat[idx]) / denom <= 1e-6


@pytest.mark.parametrize("spec", [
    LinearSpec(num_inputs=3, levels=QuantileLevels((0.25, 0.75))),
    MLPSpec(num_inputs=3, hidden=(6, 4), levels=QuantileLevels((0.25, 0.75))),
], ids=["linear", "mlp"])
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_kinds_squared_loss_gradient_check(spec, seed):
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    result = gradient_check(spec, params, x, y, num_params=200, seed=seed,
                            loss="squared")
    assert result.checked == sum(a.size for a in params.arrays.values())
    assert result.max_rel_error <= 1e-6
