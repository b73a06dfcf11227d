"""Quantile models: the table of model kinds, their specs and parameters,
and the forward and backward passes.

Every kind ends in the same dense head (dense layers with a ReLU after
each but the last, which emits one value per quantile level), and all
minimize the same mean pinball objective:

- futurequant: an input projection to the model width, num_blocks encoder
  blocks (pre-norm attention and a convolutional feed-forward, both with
  residual connections), global average pooling over time, then a head
  with two hidden layers;
- quantile-mlp: a head with two hidden layers on the flattened window;
- quantile-linear: a head with no hidden layer, that is one linear
  predictor per level on the flattened window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from ..errors import NonFiniteLoss, ShapeMismatch
from . import layers as L
from .forecast import QuantileForecast, QuantileLevels
from .losses import LOSSES


def _check_widths(name: str, widths: tuple[int, ...]) -> None:
    if len(widths) != 2 or min(widths) < 1:
        raise ValueError(f"{name} must be two positive layer widths")


@dataclass(frozen=True)
class ModelSpec:
    window_in: int = 5
    num_features: int = 1
    num_blocks: int = 4
    num_heads: int = 2
    key_dim: int = 8
    conv_channels: int = 16
    conv_kernel: int = 3
    dense_units: tuple[int, int] = (32, 16)
    dropout_rate: float = 0.1
    levels: QuantileLevels = field(default_factory=QuantileLevels)
    ln_epsilon: float = 1e-5

    # (weight, bias) parameter names of the dense head, input side first
    head = (("dense1_w", "dense1_b"), ("dense2_w", "dense2_b"),
            ("out_w", "out_b"))

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        for name in ("window_in", "num_features", "num_heads", "key_dim",
                     "conv_channels", "conv_kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        _check_widths("dense_units", self.dense_units)

    @property
    def model_dim(self) -> int:
        return self.num_heads * self.key_dim

    @property
    def head_widths(self) -> tuple[int, ...]:
        return (self.model_dim, *self.dense_units, len(self.levels))


@dataclass(frozen=True)
class LinearSpec:
    num_inputs: int                       # flattened window size; 0 = intercept only
    levels: QuantileLevels = field(default_factory=QuantileLevels)

    head = (("w", "b"),)

    @property
    def head_widths(self) -> tuple[int, ...]:
        return (self.num_inputs, len(self.levels))


@dataclass(frozen=True)
class MLPSpec:
    num_inputs: int
    hidden: tuple[int, int] = (32, 16)
    levels: QuantileLevels = field(default_factory=QuantileLevels)

    head = (("w1", "b1"), ("w2", "b2"), ("w3", "b3"))

    def __post_init__(self):
        _check_widths("hidden", self.hidden)

    @property
    def head_widths(self) -> tuple[int, ...]:
        return (self.num_inputs, *self.hidden, len(self.levels))


class ParameterSet:
    """Named arrays, copied on construction into one float64 vector `flat`
    of which each named array is then a view, in order. `arrays` is
    read-only; write in place: `params.arrays[name][...] = value`."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.flat = np.concatenate(
            [np.zeros(0), *(a.ravel() for a in arrays.values())])
        views, offset = {}, 0
        for name, a in arrays.items():
            views[name] = self.flat[offset:offset + a.size].reshape(a.shape)
            offset += a.size
        self.arrays = MappingProxyType(views)

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.arrays)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[0] if len(shape) == 2 else int(np.prod(shape[:-1])), shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# --- the dense head, shared by every kind ---

def _head_shapes(spec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    widths = spec.head_widths
    for (w, b), fan_in, fan_out in zip(spec.head, widths, widths[1:]):
        shapes[w] = (fan_in, fan_out)
        shapes[b] = (fan_out,)
    return shapes


def _head_forward(head, params, x, signature):
    """Returns (outputs, caches); appends each ReLU mask to signature."""
    caches = []
    for i, (w, b) in enumerate(head):
        x, cache = L.linear_forward(x, params[w], params[b])
        mask = None
        if i < len(head) - 1:
            x, mask = L.relu_forward(x)
            signature.append(mask)
        caches.append((cache, mask))
    return x, caches


def _head_backward(head, caches, dout, grads, input_grad: bool):
    """Writes the head's gradients into grads and returns the gradient of
    its input, or None when input_grad is false."""
    dy = dout
    for i in reversed(range(len(head))):
        w, b = head[i]
        cache, mask = caches[i]
        if mask is not None:
            dy = L.relu_backward(mask, dy)
        dy, grads[w], grads[b] = L.linear_backward(cache, dy,
                                                   input_grad or i > 0)
    return dy


def _dense_inputs(spec, x):
    """(N, P) inputs, or (N, T, F) windows flattened to them."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    if x.ndim == 3:
        x = x.reshape(shape[0], shape[1] * shape[2])
    if x.ndim != 2 or x.shape[1] != spec.num_inputs:
        raise ShapeMismatch(
            f"expected {spec.num_inputs} input values per sample, "
            f"got input {shape}")
    return x


# --- the attention encoder, the body of the futurequant kind ---

def _encoder_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    d, cc, k = spec.model_dim, spec.conv_channels, spec.conv_kernel
    block = {"ln1_g": (d,), "ln1_b": (d,), "wq": (d, d), "wk": (d, d),
             "wv": (d, d), "wo": (d, d), "ln2_g": (d,), "ln2_b": (d,),
             "conv1_w": (k, d, cc), "conv1_b": (cc,),
             "conv2_w": (1, cc, d), "conv2_b": (d,)}
    shapes = {"input_w": (spec.num_features, d), "input_b": (d,)}
    for i in range(spec.num_blocks):
        shapes.update({f"block{i}_{name}": shape
                       for name, shape in block.items()})
    return shapes


def _block_forward(x, p, prefix, spec, mode, rng, signature):
    eps = spec.ln_epsilon
    n1, c_ln1 = L.layer_norm_forward(x, p[prefix + "ln1_g"], p[prefix + "ln1_b"], eps)
    att, c_att = L.mha_forward(n1, p[prefix + "wq"], p[prefix + "wk"],
                               p[prefix + "wv"], p[prefix + "wo"], spec.num_heads)
    drop_rng = rng if mode == "train" else None
    att_d, c_drop = L.dropout_forward(att, spec.dropout_rate, drop_rng)
    y1 = x + att_d

    n2, c_ln2 = L.layer_norm_forward(y1, p[prefix + "ln2_g"], p[prefix + "ln2_b"], eps)
    h1, c_conv1 = L.conv1d_forward(n2, p[prefix + "conv1_w"], p[prefix + "conv1_b"])
    hr, relu_mask = L.relu_forward(h1)
    signature.append(relu_mask)
    h2, c_conv2 = L.conv1d_forward(hr, p[prefix + "conv2_w"], p[prefix + "conv2_b"])
    y2 = y1 + h2
    return y2, (c_ln1, c_att, c_drop, c_ln2, c_conv1, relu_mask, c_conv2)


def _block_backward(dy, cache, prefix, grads):
    c_ln1, c_att, c_drop, c_ln2, c_conv1, relu_mask, c_conv2 = cache
    # second residual branch
    dh2 = dy
    dhr, grads[prefix + "conv2_w"], grads[prefix + "conv2_b"] = \
        L.conv1d_backward(c_conv2, dh2)
    dh1 = L.relu_backward(relu_mask, dhr)
    dn2, grads[prefix + "conv1_w"], grads[prefix + "conv1_b"] = \
        L.conv1d_backward(c_conv1, dh1)
    dy1, grads[prefix + "ln2_g"], grads[prefix + "ln2_b"] = \
        L.layer_norm_backward(c_ln2, dn2)
    dy1 = dy1 + dy
    # first residual branch
    datt = L.dropout_backward(c_drop, dy1)
    dn1, *dw = L.mha_backward(c_att, datt)
    grads.update(zip((prefix + w for w in ("wq", "wk", "wv", "wo")), dw))
    dx, grads[prefix + "ln1_g"], grads[prefix + "ln1_b"] = \
        L.layer_norm_backward(c_ln1, dn1)
    return dx + dy1


def encoder_block(
    x: np.ndarray,
    params: ParameterSet,
    spec: ModelSpec,
    block_index: int = 0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One encoder block on a (T, d) or (N, T, d) array; shape-preserving."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    y, _ = _block_forward(x, params, f"block{block_index}_", spec, mode, rng, [])
    return y[0] if squeeze else y


def _encoder_inputs(spec: ModelSpec, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != spec.window_in or x.shape[2] != spec.num_features:
        raise ShapeMismatch(
            f"expected input (N, {spec.window_in}, {spec.num_features}), "
            f"got {x.shape}"
        )
    return x


def _encoder_forward(spec: ModelSpec, params, x, mode, rng, signature):
    """Input projection, blocks and pooling: returns ((N, d) pooled, caches)."""
    h, input_cache = L.linear_forward(x, params["input_w"], params["input_b"])
    block_caches = []
    for i in range(spec.num_blocks):
        h, c = _block_forward(h, params, f"block{i}_", spec, mode, rng, signature)
        block_caches.append(c)
    pooled, gap_cache = L.gap_forward(h)
    return pooled, (input_cache, block_caches, gap_cache)


def _encoder_backward(spec: ModelSpec, caches, dpooled, grads) -> None:
    input_cache, block_caches, gap_cache = caches
    dh = L.gap_backward(gap_cache, dpooled)
    for i in reversed(range(spec.num_blocks)):
        dh = _block_backward(dh, block_caches[i], f"block{i}_", grads)
    _, grads["input_w"], grads["input_b"] = L.linear_backward(
        input_cache, dh, input_grad=False)


# --- the table of model kinds ---

@dataclass(frozen=True)
class ModelKind:
    """A model kind: its spec class, the input check (spec, x) -> x as a
    float array or ShapeMismatch, the training settings it imposes on a
    TrainConfig, and the body between input and dense head, if any: its
    parameter shapes, its forward pass (spec, params, x, mode, rng,
    signature) -> (head input, caches) and its backward pass (spec, caches,
    dhead_input, grads), which writes its gradients into grads."""

    spec_class: type
    inputs: Callable
    train_config: Callable = lambda config: config
    body_shapes: Callable = lambda spec: {}
    body_forward: Callable | None = None
    body_backward: Callable | None = None


def _linear_training(config):
    """Full-batch steps of lr/sqrt(1 + t) at lr 0.05 for at least 500
    epochs, the subgradient schedule the linear fit converges under."""
    return replace(config, learning_rate=0.05, epochs=max(config.epochs, 500),
                   batch_size=None, lr_schedule="inverse-sqrt")


KINDS = {
    "futurequant": ModelKind(ModelSpec, _encoder_inputs,
                             body_shapes=_encoder_shapes,
                             body_forward=_encoder_forward,
                             body_backward=_encoder_backward),
    "quantile-linear": ModelKind(LinearSpec, _dense_inputs, _linear_training),
    "quantile-mlp": ModelKind(MLPSpec, _dense_inputs),
}

_BY_SPEC = {kind.spec_class: kind for kind in KINDS.values()}


def parameter_shapes(spec) -> dict[str, tuple[int, ...]]:
    """The body's shapes, then the head's: the checkpoint's name order."""
    return {**_BY_SPEC[type(spec)].body_shapes(spec), **_head_shapes(spec)}


def init_params(spec, rng: np.random.Generator) -> ParameterSet:
    """Glorot-uniform weights, zero biases, unit layer-norm gains."""
    params = zero_params(spec)
    for name, a in params.arrays.items():
        if name.endswith("_g"):
            a[...] = 1.0
        elif a.ndim > 1:
            a[...] = _glorot(rng, a.shape)
    return params


def zero_params(spec) -> ParameterSet:
    return ParameterSet(
        {name: np.zeros(shape) for name, shape in parameter_shapes(spec).items()}
    )


def forward_raw(spec, params: ParameterSet, x: np.ndarray, mode: str = "eval",
                rng: np.random.Generator | None = None):
    """Full forward pass of any kind. Returns (outputs (N, Q), caches,
    signature) where the signature lists the boolean activation patterns
    of every ReLU (used by the gradient checker to detect kink crossings)."""
    kind = _BY_SPEC[type(spec)]
    h = kind.inputs(spec, x)
    signature: list[np.ndarray] = []
    body_caches = None
    if kind.body_forward:
        h, body_caches = kind.body_forward(spec, params, h, mode, rng, signature)
    out, head_caches = _head_forward(spec.head, params, h, signature)
    return out, (body_caches, head_caches), signature


def backward_raw(spec, caches, dout: np.ndarray) -> dict:
    body_backward = _BY_SPEC[type(spec)].body_backward
    body_caches, head_caches = caches
    grads: dict[str, np.ndarray] = {}
    dh = _head_backward(spec.head, head_caches, dout, grads,
                        input_grad=body_backward is not None)
    if body_backward:
        body_backward(spec, body_caches, dh, grads)
    return grads


INFER_CHUNK = 256   # windows per eval-mode forward_raw call


def _eval_forward(spec, params, x, keep_masks: bool = False):
    """Eval-mode outputs (N, Q) of forward_raw, and its ReLU masks if asked,
    computed INFER_CHUNK windows at a time. Chunk sizes differ by at most
    one, so no chunk is one window when N > INFER_CHUNK (BLAS may sum a
    one-row product in another order); every other op is row-wise, so the
    results have the bits of one full-batch call."""
    x = _BY_SPEC[type(spec)].inputs(spec, x)
    parts = []
    for part in np.array_split(x, -(-len(x) // INFER_CHUNK) or 1):
        out, caches, masks = forward_raw(spec, params, part)
        del caches      # freed before the next chunk runs
        parts.append([out, *masks] if keep_masks else [out])
    out, *masks = (np.concatenate(column) for column in zip(*parts))
    return out, masks


def forward(spec, params: ParameterSet, x: np.ndarray) -> QuantileForecast:
    """Predict quantile values (normalized units) for a batch of windows."""
    out, _ = _eval_forward(spec, params, x)
    return QuantileForecast(values=out, levels=spec.levels)


def loss_value(spec, params: ParameterSet, x: np.ndarray, y: np.ndarray,
               loss: str = "pinball") -> tuple[float, bytes]:
    """Eval-mode loss plus the kink signature of the evaluation point."""
    loss_fn, _ = LOSSES[loss]
    y = np.asarray(y, dtype=float)
    out, masks = _eval_forward(spec, params, x, keep_masks=True)
    value = float(loss_fn(out, y, spec.levels.levels))
    # each ReLU's activation pattern, then the residual signs, bit-packed
    signature = b"".join(np.packbits(m.ravel()).tobytes()
                         for m in [*masks, out >= y[:, None]])
    return value, signature


def loss_and_grads(
    spec,
    params: ParameterSet,
    x: np.ndarray,
    y: np.ndarray,
    loss: str = "pinball",
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[float, dict]:
    loss_fn, grad_fn = LOSSES[loss]
    y = np.asarray(y, dtype=float)
    out, caches, _ = forward_raw(spec, params, x, mode, rng)
    value = float(loss_fn(out, y, spec.levels.levels))
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss diverged to {value}")
    dout = grad_fn(out, y, spec.levels.levels)
    grads = backward_raw(spec, caches, dout)
    return value, grads
