import numpy as np
import pytest

from quantrange.config import ModelSpec
from quantrange.errors import DimensionMismatch, ShapeMismatch
from quantrange.models.layers import (
    Workspace,
    conv1d_forward,
    gap_forward,
    layer_norm_forward,
    mha_forward,
    relu_forward,
    softmax,
)
from quantrange.models.network import forward, init_params, zero_params
from reference_network import encoder_block


def layer_norm(x, gamma, shift, epsilon=1e-5):
    return layer_norm_forward(np.asarray(x, dtype=float), gamma, shift,
                              epsilon, Workspace())[0]


def multi_head_attention(x, wq, wk, wv, wo, num_heads):
    return mha_forward(x, wq, wk, wv, wo, num_heads, Workspace())[0]


def conv_feedforward(x, kernel1, bias1, kernel2, bias2):
    """ReLU(conv_k(x)) then a width-1 conv, as inside an encoder block."""
    h, _ = conv1d_forward(x, kernel1, bias1, Workspace())
    h, _ = relu_forward(h, Workspace())
    return conv1d_forward(h, kernel2, bias2, Workspace())[0]


def global_average_pool(x):
    """(T, d) -> (d,): the pooling of one sample."""
    return gap_forward(np.asarray(x, dtype=float)[None], Workspace())[0][0]


class TestLayerNorm:
    def test_constant_input_absorbed_by_epsilon(self):
        out = layer_norm([1.0, 1.0, 1.0], np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0)

    def test_unit_variance_symmetry(self):
        out = layer_norm([-1.0, 1.0], np.ones(2), np.zeros(2), epsilon=1e-12)
        assert np.allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_zero_gain_gives_shift(self):
        shift = np.array([3.0, -2.0, 7.0])
        out = layer_norm([5.0, 1.0, 9.0], np.zeros(3), shift)
        assert np.allclose(out, shift)


class TestAttention:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def ws(self, d):
        return [self.rng.standard_normal((d, d)) for _ in range(4)]

    def test_single_time_step(self):
        d = 4
        wq, wk, wv, wo = self.ws(d)
        x = self.rng.standard_normal((1, 1, d))
        out = multi_head_attention(x, wq, wk, wv, wo, num_heads=2)
        expected = (x @ wv) @ wo  # softmax over a singleton is 1
        assert np.allclose(out, expected)

    def test_zero_logits_give_uniform_mean(self):
        d, t = 4, 6
        _, _, wv, wo = self.ws(d)
        x = self.rng.standard_normal((2, t, d))
        out = multi_head_attention(x, np.zeros((d, d)), np.zeros((d, d)),
                                   wv, wo, num_heads=2)
        expected = np.repeat((x @ wv).mean(axis=1, keepdims=True), t, axis=1) @ wo
        assert np.allclose(out, expected)

    def test_rows_sum_to_one(self):
        d, t = 8, 5
        wq, wk, wv, wo = self.ws(d)
        x = self.rng.standard_normal((3, t, d))
        _, cache = mha_forward(x, wq, wk, wv, wo, num_heads=4,
                               ws=Workspace())
        attn = cache[8]
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_logit_shift_invariance(self):
        z = self.rng.standard_normal((4, 7))
        shifted = softmax(z + 123.0, Workspace())
        assert np.allclose(shifted, softmax(z, Workspace()), atol=1e-12)

    def test_indivisible_heads_rejected(self):
        d = 6
        wq, wk, wv, wo = self.ws(d)
        x = self.rng.standard_normal((1, 3, d))
        with pytest.raises(DimensionMismatch):
            multi_head_attention(x, wq, wk, wv, wo, num_heads=4)


class TestConvFeedforward:
    def test_width_one_identity_kernel_is_relu(self):
        x = np.array([[[1.0], [-2.0], [3.0]]])
        k1 = np.ones((1, 1, 1))
        k2 = np.ones((1, 1, 1))
        out = conv_feedforward(x, k1, np.zeros(1), k2, np.zeros(1))
        assert np.allclose(out, [[[1.0], [0.0], [3.0]]])

    def test_all_negative_input_zeroed(self):
        x = -np.ones((1, 4, 2))
        k1 = np.ones((3, 2, 5))
        k2 = np.ones((1, 5, 2))
        out = conv_feedforward(x, k1, np.zeros(5), k2, np.zeros(2))
        assert np.allclose(out, 0.0)

    def test_same_padding_shape(self):
        x = np.random.default_rng(1).standard_normal((2, 5, 3))
        y, _ = conv1d_forward(x, np.ones((3, 3, 4)), np.zeros(4), Workspace())
        assert y.shape == (2, 5, 4)

    def test_kernel_wider_than_sequence_rejected(self):
        x = np.zeros((1, 2, 1))
        with pytest.raises(DimensionMismatch):
            conv1d_forward(x, np.ones((3, 1, 1)), np.zeros(1), Workspace())


class TestPooling:
    def test_direct_mean(self):
        assert np.allclose(global_average_pool([[1.0, 2.0], [3.0, 4.0]]),
                           [2.0, 3.0])

    def test_single_row(self):
        assert np.allclose(global_average_pool([[5.0, 6.0]]), [5.0, 6.0])

    def test_constant_rows(self):
        x = np.tile([1.5, -2.5], (7, 1))
        assert np.allclose(global_average_pool(x), [1.5, -2.5])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 4))
        perm = rng.permutation(9)
        assert np.allclose(global_average_pool(x), global_average_pool(x[perm]))


class TestEncoderBlock:
    def test_zero_weights_identity(self):
        spec = ModelSpec(num_blocks=1)
        params = zero_params(spec)
        x = np.random.default_rng(3).standard_normal((5, spec.model_dim))
        out = encoder_block(x, params, spec, 0)
        assert np.array_equal(out, x)

    def test_eval_equals_train_without_dropout(self):
        spec = ModelSpec(num_blocks=1, dropout_rate=0.0)
        rng = np.random.default_rng(4)
        params = init_params(spec, rng)
        x = rng.standard_normal((2, 5, spec.model_dim))
        a = encoder_block(x, params, spec, 0)
        b = encoder_block(x, params, spec, 0, rng=np.random.default_rng(0))
        assert np.allclose(a, b)

    def test_shape_preserved(self):
        spec = ModelSpec(num_blocks=1, num_heads=4, key_dim=3)
        rng = np.random.default_rng(5)
        params = init_params(spec, rng)
        x = rng.standard_normal((3, 5, spec.model_dim))
        assert encoder_block(x, params, spec, 0).shape == x.shape


class TestForward:
    def test_output_shape(self):
        spec = ModelSpec(num_blocks=2)
        rng = np.random.default_rng(6)
        params = init_params(spec, rng)
        out = forward(spec, params, rng.standard_normal((7, 5, 1)))
        assert out.values.shape == (7, 5)

    def test_zero_params_collapse_to_output_bias(self):
        spec = ModelSpec(num_blocks=2)
        params = zero_params(spec)
        params.arrays["out_b"][...] = [1.0, 2.0, 3.0, 4.0, 5.0]
        out = forward(spec, params, np.random.default_rng(7).standard_normal((4, 5, 1)))
        assert np.allclose(out.values, np.tile([1, 2, 3, 4, 5], (4, 1)))

    def test_sample_permutation_equivariance(self):
        spec = ModelSpec(num_blocks=1)
        rng = np.random.default_rng(8)
        params = init_params(spec, rng)
        x = rng.standard_normal((6, 5, 1))
        perm = rng.permutation(6)
        out = forward(spec, params, x).values
        out_perm = forward(spec, params, x[perm]).values
        assert np.allclose(out[perm], out_perm)

    def test_time_permutation_invariance_with_zero_qk(self):
        # with zero query/key weights attention is uniform and every other
        # stage is pointwise for a width-1 kernel, so shuffling the window
        # commutes with the pooled output
        spec = ModelSpec(num_blocks=1, conv_kernel=1)
        rng = np.random.default_rng(9)
        params = init_params(spec, rng)
        params.arrays["block0_wq"][:] = 0.0
        params.arrays["block0_wk"][:] = 0.0
        x = rng.standard_normal((3, 5, 1))
        perm = rng.permutation(5)
        out = forward(spec, params, x).values
        out_perm = forward(spec, params, x[:, perm, :]).values
        assert np.allclose(out, out_perm)

    def test_bad_shape_rejected(self):
        spec = ModelSpec()
        params = zero_params(spec)
        with pytest.raises(ShapeMismatch):
            forward(spec, params, np.zeros((2, 4, 1)))
