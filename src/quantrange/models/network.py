"""Quantile models: the table of what each model kind runs (its spec
classes live in `config`), their parameters, and the forward and
backward passes.

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

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from ..config import LinearSpec, MLPSpec, ModelSpec
from ..errors import NonFiniteLoss, ShapeMismatch
from . import layers as L
from .forecast import QuantileForecast
from .losses import mean_pinball, mean_pinball_and_grad


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


def _head_forward(head, params, x, ws):
    """Returns (outputs, caches): each layer's (linear cache, ReLU mask or
    None)."""
    caches = []
    for i, (w, b) in enumerate(head):
        x, cache = L.linear_forward(x, params[w], params[b], ws)
        mask = None
        if i < len(head) - 1:
            x, mask = L.relu_forward(x, ws)
        caches.append((cache, mask))
    return x, caches


def _head_backward(head, caches, dout, grads, input_grad: bool, ws):
    """Writes the head's gradients into grads and returns the gradient of
    its input, or None when input_grad is false."""
    dy = dout
    for i in reversed(range(len(head))):
        w, b = head[i]
        cache, mask = caches[i]
        if mask is not None:
            dy = L.relu_backward(mask, dy, ws)
        dy, grads[w], grads[b] = L.linear_backward(cache, dy,
                                                   input_grad or i > 0, ws)
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


def _block_forward(x, p, prefix, spec, rng, ws):
    """The residual sums go into the branch outputs, which no cache holds."""
    eps = spec.ln_epsilon
    n1, c_ln1 = L.layer_norm_forward(x, p[prefix + "ln1_g"], p[prefix + "ln1_b"], eps, ws)
    att, c_att = L.mha_forward(n1, p[prefix + "wq"], p[prefix + "wk"],
                               p[prefix + "wv"], p[prefix + "wo"], spec.num_heads, ws)
    y1, c_drop = L.dropout_forward(att, spec.dropout_rate, rng, ws)
    y1 += x

    n2, c_ln2 = L.layer_norm_forward(y1, p[prefix + "ln2_g"], p[prefix + "ln2_b"], eps, ws)
    h1, c_conv1 = L.conv1d_forward(n2, p[prefix + "conv1_w"], p[prefix + "conv1_b"], ws)
    hr, relu_mask = L.relu_forward(h1, ws)
    y2, c_conv2 = L.conv1d_forward(hr, p[prefix + "conv2_w"], p[prefix + "conv2_b"], ws)
    y2 += y1
    return y2, (c_ln1, c_att, c_drop, c_ln2, c_conv1, relu_mask, c_conv2)


def _block_backward(dy, cache, prefix, grads, ws):
    c_ln1, c_att, c_drop, c_ln2, c_conv1, relu_mask, c_conv2 = cache
    # second residual branch
    dh2 = dy
    dhr, grads[prefix + "conv2_w"], grads[prefix + "conv2_b"] = \
        L.conv1d_backward(c_conv2, dh2, ws)
    dh1 = L.relu_backward(relu_mask, dhr, ws)
    dn2, grads[prefix + "conv1_w"], grads[prefix + "conv1_b"] = \
        L.conv1d_backward(c_conv1, dh1, ws)
    dy1, grads[prefix + "ln2_g"], grads[prefix + "ln2_b"] = \
        L.layer_norm_backward(c_ln2, dn2, ws)
    dy1 += dy
    # first residual branch
    datt = L.dropout_backward(c_drop, dy1, ws)
    dn1, *dw = L.mha_backward(c_att, datt, ws)
    grads.update(zip((prefix + w for w in ("wq", "wk", "wv", "wo")), dw))
    dx, grads[prefix + "ln1_g"], grads[prefix + "ln1_b"] = \
        L.layer_norm_backward(c_ln1, dn1, ws)
    dx += dy1
    return dx


def _encoder_inputs(spec: ModelSpec, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != spec.window_in or x.shape[2] != spec.num_features:
        raise ShapeMismatch(
            f"expected input (N, {spec.window_in}, {spec.num_features}), "
            f"got {x.shape}"
        )
    return x


def _encoder_forward(spec: ModelSpec, params, x, rng, ws):
    """Input projection, blocks and pooling: returns ((N, d) pooled, caches)."""
    h, input_cache = L.linear_forward(x, params["input_w"], params["input_b"], ws)
    block_caches = []
    for i in range(spec.num_blocks):
        h, c = _block_forward(h, params, f"block{i}_", spec, rng, ws)
        block_caches.append(c)
    pooled, gap_cache = L.gap_forward(h, ws)
    return pooled, (input_cache, block_caches, gap_cache)


def _encoder_backward(spec: ModelSpec, caches, dpooled, grads, ws) -> None:
    input_cache, block_caches, gap_cache = caches
    dh = L.gap_backward(gap_cache, dpooled, ws)
    for i in reversed(range(spec.num_blocks)):
        dh = _block_backward(dh, block_caches[i], f"block{i}_", grads, ws)
    _, grads["input_w"], grads["input_b"] = L.linear_backward(
        input_cache, dh, input_grad=False, ws=ws)


# --- the table of model kinds ---

@dataclass(frozen=True)
class ModelKind:
    """What a model kind runs: the input check (spec, x) -> x as a float
    array or ShapeMismatch, the training settings it imposes on a
    TrainConfig, and the body between input and dense head, if any: its
    parameter shapes, its forward pass (spec, params, x, rng, ws) -> (head
    input, caches) and its backward pass (spec, caches, dhead_input,
    grads, ws), which writes its gradients into grads, both computing in
    the layers.Workspace ws."""

    inputs: Callable
    train_config: Callable = lambda config: config
    body_shapes: Callable = lambda spec: {}
    body_forward: Callable | None = None
    body_backward: Callable | None = None


def _linear_training(config):
    """Full-batch steps of lr/sqrt(1 + t) at lr 0.05 for at least 500
    epochs, the subgradient schedule the linear fit converges under."""
    return replace(config, learning_rate=0.05, epochs=max(config.epochs, 500),
                   batch_size=None)


# each kind's functions, by its spec class (config.MODEL_KINDS names them)
KINDS = {
    ModelSpec: ModelKind(_encoder_inputs, body_shapes=_encoder_shapes,
                         body_forward=_encoder_forward,
                         body_backward=_encoder_backward),
    LinearSpec: ModelKind(_dense_inputs, _linear_training),
    MLPSpec: ModelKind(_dense_inputs),
}


def parameter_shapes(spec) -> dict[str, tuple[int, ...]]:
    """The body's shapes, then the head's: the checkpoint's name order."""
    return {**KINDS[type(spec)].body_shapes(spec), **_head_shapes(spec)}


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


def forward_raw(spec, params: ParameterSet, x: np.ndarray,
                rng: np.random.Generator | None, ws: L.Workspace):
    """Full forward pass of any kind, with dropout if rng is given. Returns
    (outputs (N, Q), caches), which live in ws until its next reset."""
    kind = KINDS[type(spec)]
    h = kind.inputs(spec, x)
    body_caches = None
    if kind.body_forward:
        h, body_caches = kind.body_forward(spec, params, h, rng, ws)
    out, head_caches = _head_forward(spec.head, params, h, ws)
    return out, (body_caches, head_caches)


def backward_raw(spec, caches, dout: np.ndarray, ws: L.Workspace) -> dict:
    body_backward = KINDS[type(spec)].body_backward
    body_caches, head_caches = caches
    grads: dict[str, np.ndarray] = {}
    dh = _head_backward(spec.head, head_caches, dout, grads,
                        input_grad=body_backward is not None, ws=ws)
    if body_backward:
        body_backward(spec, body_caches, dh, grads, ws)
    return grads


INFER_CHUNK = 256   # windows per eval-mode forward_raw call


def forward(spec, params: ParameterSet, x: np.ndarray) -> QuantileForecast:
    """Predict quantile values (normalized units) for a batch of windows,
    INFER_CHUNK windows per forward_raw call. Chunk sizes differ by at most
    one, so no chunk is one window when N > INFER_CHUNK (BLAS may sum a
    one-row product in another order); every other op is row-wise, so the
    values have the bits of one full-batch call. The chunks share one
    workspace, which the first (largest) sizes."""
    x = KINDS[type(spec)].inputs(spec, x)
    values = np.empty((len(x), len(spec.levels)))
    chunks = -(-len(x) // INFER_CHUNK) or 1
    ws = L.Workspace()
    for part, rows in zip(np.array_split(x, chunks),
                          np.array_split(values, chunks)):
        rows[...] = forward_raw(spec, params, part, None, ws.reset())[0]
    return QuantileForecast(values=values, levels=spec.levels)


def loss_value(spec, params: ParameterSet, x: np.ndarray,
               y: np.ndarray) -> float:
    """Eval-mode mean pinball loss."""
    out = forward(spec, params, x).values
    return float(mean_pinball(out, y, spec.levels.levels))


def loss_and_grads(spec, params: ParameterSet, x: np.ndarray, y: np.ndarray,
                   rng: np.random.Generator | None,
                   ws: L.Workspace) -> tuple[float, dict]:
    """Loss and gradients of one step, with dropout if rng is given."""
    y = np.asarray(y, dtype=float)
    out, caches = forward_raw(spec, params, x, rng, ws)
    value, dout = mean_pinball_and_grad(out, y, spec.levels.levels, ws)
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss diverged to {value}")
    return float(value), backward_raw(spec, caches, dout, ws)
