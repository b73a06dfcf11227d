import hashlib

import numpy as np
import pytest

from quantrange.config import MODEL_KINDS as KINDS
from quantrange.config import (
    LinearSpec,
    MLPSpec,
    ModelSpec,
    QuantileLevels,
    TrainConfig,
)
from quantrange.errors import NonFiniteLoss, ShapeMismatch
from quantrange.models import training
from quantrange.models.checkpoint import load_checkpoint, save_checkpoint
from quantrange.models.network import (
    ParameterSet,
    forward,
    init_params,
    loss_value,
)
from quantrange.models.training import train

# the linear kind's schedule: one full batch per epoch, step lr/sqrt(1 + t)
FULL_BATCH = {"batch_size": None, "lr_schedule": "inverse-sqrt"}


class TestNetworkTraining:
    def test_constant_target_median(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (64, 5, 1))
        y = np.full(64, 0.37)
        spec = ModelSpec(num_blocks=1, dropout_rate=0.0,
                         levels=QuantileLevels((0.5,)))
        params, history = train(
            spec, x, y,
            TrainConfig(learning_rate=2e-3, epochs=120, batch_size=16, seed=1),
        )
        pred = forward(spec, params, x).values
        assert np.allclose(pred, 0.37, atol=2e-2)
        assert history[-1] <= history[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (32, 5, 1))
        y = rng.uniform(0, 1, 32)
        spec = ModelSpec(num_blocks=1, dropout_rate=0.1)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=7)
        p1, h1 = train(spec, x, y, cfg)
        p2, h2 = train(spec, x, y, cfg)
        assert h1 == h2
        for name in p1.arrays:
            assert np.array_equal(p1.arrays[name], p2.arrays[name])


class TestLinearBaseline:
    def test_intercept_only_median(self):
        spec = LinearSpec(num_inputs=0, levels=QuantileLevels((0.5,)))
        params, _ = train(
            spec, np.zeros((3, 0)), np.array([1.0, 2.0, 9.0]),
            TrainConfig(learning_rate=1.0, epochs=4000, seed=0, **FULL_BATCH),
        )
        assert params["b"][0] == pytest.approx(2.0, abs=0.05)

    def test_intercept_only_90th_percentile(self):
        y = np.arange(1.0, 101.0)
        spec = LinearSpec(num_inputs=0, levels=QuantileLevels((0.9,)))
        params, _ = train(
            spec, np.zeros((100, 0)), y,
            TrainConfig(learning_rate=5.0, epochs=4000, seed=0, **FULL_BATCH),
        )
        assert abs(params["b"][0] - np.quantile(y, 0.9)) <= 1.0

    def test_noiseless_slope_recovered(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (200, 1))
        y = 2.0 * x[:, 0]
        spec = LinearSpec(num_inputs=1, levels=QuantileLevels((0.3,)))
        params, _ = train(
            spec, x, y, TrainConfig(learning_rate=0.3, epochs=8000, seed=0,
                                    **FULL_BATCH),
        )
        assert params["w"][0, 0] == pytest.approx(2.0, abs=0.01)

    def test_zero_epochs_returns_initial(self):
        spec = LinearSpec(num_inputs=2)
        rng = np.random.default_rng(3)
        init = init_params(spec, np.random.default_rng(0))
        params, history = train(
            spec, rng.uniform(size=(10, 2)), rng.uniform(size=10),
            TrainConfig(epochs=0, seed=0, **FULL_BATCH),
        )
        for name in init.arrays:
            assert np.array_equal(params[name], init[name])
        assert len(history) == 1

    def test_forward_shape(self):
        spec = LinearSpec(num_inputs=5)
        params = init_params(spec, np.random.default_rng(0))
        out = forward(spec, params, np.zeros((7, 5, 1)))
        assert out.values.shape == (7, 5)


# one small spec of each kind, all taking windows of 5 values
KIND_SPECS = {
    "futurequant": ModelSpec(num_blocks=1, dropout_rate=0.0),
    "quantile-linear": LinearSpec(num_inputs=5),
    "quantile-mlp": MLPSpec(num_inputs=5, hidden=(8, 4)),
}


def test_every_kind_has_a_spec_here():
    assert set(KIND_SPECS) == set(KINDS)
    for kind, spec in KIND_SPECS.items():
        assert type(spec) is KINDS[kind]


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
class TestEveryKind:
    def test_diverging_learning_rate_raises(self, kind):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (16, 5, 1))
        y = rng.uniform(0, 1, 16)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            train(KIND_SPECS[kind], x, y,
                  TrainConfig(learning_rate=1e308, epochs=5, batch_size=8))

    def test_wrong_window_width_rejected(self, kind):
        spec = KIND_SPECS[kind]
        params = init_params(spec, np.random.default_rng(1))
        assert forward(spec, params, np.zeros((3, 5, 1))).values.shape == (3, 5)
        for width in (4, 6):
            with pytest.raises(ShapeMismatch):
                forward(spec, params, np.zeros((3, width, 1)))

    def test_loss_curve_is_epoch_mean_of_batch_losses(self, kind, monkeypatch):
        spec = KIND_SPECS[kind]
        batch_losses = []
        real = training.loss_and_grads

        def recording(*args, **kwargs):
            value, grads = real(*args, **kwargs)
            batch_losses.append(value)
            return value, grads

        monkeypatch.setattr(training, "loss_and_grads", recording)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (20, 5, 1))
        y = rng.uniform(0, 1, 20)
        _, history = train(spec, x, y,
                           TrainConfig(epochs=2, batch_size=8, seed=3))
        init = init_params(spec, np.random.default_rng(3))
        assert history[0] == loss_value(spec, init, x, y)
        assert len(batch_losses) == 6      # 3 batches of <= 8 per epoch
        assert history[1:] == [sum(batch_losses[:3]) / 3,
                               sum(batch_losses[3:]) / 3]


# sha256 of params.flat after the train() run in test_training_bits_locked,
# recorded with the per-array optimizer and the 3-D layer formulation
# (numpy 2.4, OpenBLAS 0.3.31, x86-64). The golden test checks metrics to
# 1e-9; this checks every bit. On another numpy/BLAS build the BLAS
# kernels, and so the bits, may differ: re-record the constants there.
LOCKED_FLAT_SHA256 = {
    "sgd": "59392c9ee5861ca0ac3a052474388ec37767938d2d44a71c41e8c4e740a9017c",
    "momentum":
        "476f5715b2376ea9222c532e512de28da7d5382679083ab76cbc231a36342c73",
    "adam": "e65561b5fc9aabb7f4ef4a066b90e8c4f3ae91b31d7ba4d9421a8545c7cfe09a",
}


@pytest.mark.parametrize("optimizer", sorted(LOCKED_FLAT_SHA256))
def test_training_bits_locked(optimizer):
    rng = np.random.default_rng(20)
    x, y = rng.uniform(0, 1, (100, 5, 1)), rng.uniform(0, 1, 100)
    # dropout, an even kernel width and a clip that triggers
    spec = ModelSpec(num_blocks=2, num_heads=2, key_dim=4, conv_kernel=2,
                     dropout_rate=0.1)
    params, _ = train(spec, x, y, TrainConfig(
        learning_rate=0.01, epochs=3, batch_size=16, seed=5,
        optimizer=optimizer, lr_decay=0.9, gradient_clip=0.5))
    digest = hashlib.sha256(params.flat.tobytes()).hexdigest()
    assert digest == LOCKED_FLAT_SHA256[optimizer]


class TestParameterSet:
    def params(self):
        return init_params(ModelSpec(num_blocks=1),
                           np.random.default_rng(4))

    def test_arrays_are_views_of_flat_in_order(self):
        params = self.params()
        assert params.flat.dtype == np.float64 and params.flat.ndim == 1
        assert np.array_equal(params.flat, np.concatenate(
            [a.ravel() for a in params.arrays.values()]))
        for name, a in params.arrays.items():
            assert a.base is params.flat, name
        params.flat[:] = 3.0
        assert all((a == 3.0).all() for a in params.arrays.values())

    def test_arrays_cannot_be_rebound(self):
        params = self.params()
        with pytest.raises(TypeError):
            params.arrays["out_b"] = np.ones(5)
        params.arrays["out_b"][...] = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert np.array_equal(params.flat[-5:], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert params.arrays["out_b"].base is params.flat

    def test_construction_copies(self):
        arrays = {"w": np.ones((2, 3)), "b": np.zeros(3)}
        params = ParameterSet(arrays)
        params.flat[:] = 7.0
        assert (arrays["w"] == 1.0).all() and (arrays["b"] == 0.0).all()

    def test_copy_is_independent(self):
        params = self.params()
        twin = ParameterSet(params.arrays)
        assert np.array_equal(twin.flat, params.flat)
        twin.flat += 1.0
        assert not np.shares_memory(twin.flat, params.flat)
        assert np.array_equal(params.flat + 1.0, twin.flat)
        for name, a in twin.arrays.items():
            assert a.base is twin.flat, name

    def test_load_checkpoint_is_flat_backed(self, tmp_path):
        spec = ModelSpec(num_blocks=1)
        params = self.params()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, spec, params)
        _, _, back = load_checkpoint(path)
        assert np.array_equal(back.flat, params.flat)
        for name, a in back.arrays.items():
            assert a.base is back.flat and a.flags.writeable, name

    def test_all_finite_sees_every_array(self):
        params = self.params()
        assert params.all_finite()
        for name in params.arrays:
            broken = ParameterSet(params.arrays)
            broken[name].flat[-1] = np.nan
            assert not broken.all_finite(), name
