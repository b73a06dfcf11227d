"""Array-level building blocks with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes the
cache plus the upstream gradient and returns gradients for its inputs and
parameters. Everything runs in float64 for deterministic, checkable math.
Attention projections and conv input gradients are 2-D matmuls over all
N*T rows, summing as the per-sample products do (and bit-equal to them
wherever BLAS picks the same kernel for both).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch


# --- layer normalization (over the last axis) ---

def layer_norm_forward(x, gamma, shift, epsilon: float = 1e-5):
    """((x - mu) / sqrt(var + eps)) * gamma + shift, per trailing vector;
    mu and var are sums over d divided by d, as np.mean and np.var do."""
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = xc * inv_std
    y = xhat * gamma + shift
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(cache, dy):
    xhat, inv_std, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dshift = dy.sum(axis=axes)
    dxhat = dy * gamma
    m1 = dxhat.sum(axis=-1, keepdims=True) / dy.shape[-1]
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / dy.shape[-1]
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dshift


# --- dense ---

def linear_forward(x, w, b):
    return x @ w + b, (x, w)


def linear_backward(cache, dy, input_grad: bool = True):
    """dx is None when input_grad is false, as for a layer fed by data."""
    x, w = cache
    din, dout = w.shape
    # an explicit row count, since -1 is ambiguous when din is 0
    dw = x.reshape(math.prod(x.shape[:-1]), din).T @ dy.reshape(-1, dout)
    db = dy.reshape(-1, dout).sum(axis=0)
    dx = dy @ w.T if input_grad else None
    return dx, dw, db


# --- ReLU ---

def relu_forward(x):
    mask = x > 0.0
    return x * mask, mask


def relu_backward(mask, dy):
    return dy * mask


# --- softmax (last axis) ---

def softmax(x):
    # the row maximum column by column (cheaper than a reduce of short rows);
    # any order gives it exactly, up to a zero's sign, which exp cannot see
    top = x[..., :1]
    for j in range(1, x.shape[-1]):
        top = np.maximum(top, x[..., j:j + 1])
    e = np.exp(x - top)
    return e / e.sum(axis=-1, keepdims=True)


# --- multi-head attention ---

def split_heads(x, n: int, t: int, h: int):  # (N*T, d) -> (N, h, T, d/h)
    shape = (n, t, h, x.shape[1] // h)
    return x.reshape(shape).transpose(0, 2, 1, 3)


def merge_heads(x):  # (N, h, T, dk) -> (N*T, h*dk)
    n, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n * t, h * dk)


def mha_forward(x, wq, wk, wv, wo, num_heads: int):
    """softmax(Q K^T / sqrt(d_k)) V per head, heads concatenated then
    projected by wo. x: (N, T, d) with d divisible by num_heads."""
    n, t, d = x.shape
    if d % num_heads != 0:
        raise DimensionMismatch(
            f"model dim {d} not divisible by num_heads {num_heads}"
        )
    dk = d // num_heads
    xf = x.reshape(n * t, d)
    q = split_heads(xf @ wq, n, t, num_heads)   # (N, h, T, dk)
    k = split_heads(xf @ wk, n, t, num_heads)
    v = split_heads(xf @ wv, n, t, num_heads)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    attn = softmax(scores)                   # (N, h, T, T)
    heads = attn @ v                         # (N, h, T, dk)
    concat = merge_heads(heads)              # (N*T, d)
    y = (concat @ wo).reshape(n, t, d)
    cache = (x, wq, wk, wv, wo, q, k, v, attn, concat, num_heads)
    return y, cache


def mha_backward(cache, dy):
    x, wq, wk, wv, wo, q, k, v, attn, concat, num_heads = cache
    n, t, d = x.shape
    scale = 1.0 / np.sqrt(d // num_heads)

    dyf = dy.reshape(n * t, d)
    dwo = concat.T @ dyf
    dheads = split_heads(dyf @ wo.T, n, t, num_heads)   # (N, h, T, dk)

    dattn = dheads @ v.transpose(0, 1, 3, 2)          # (N, h, T, T)
    dv = attn.transpose(0, 1, 3, 2) @ dheads
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = dscores.transpose(0, 1, 3, 2) @ q * scale

    dxq = merge_heads(dq)
    dxk = merge_heads(dk)
    dxv = merge_heads(dv)
    xf = x.reshape(n * t, d)
    dwq = xf.T @ dxq
    dwk = xf.T @ dxk
    dwv = xf.T @ dxv
    dx = (dxq @ wq.T + dxk @ wk.T + dxv @ wv.T).reshape(n, t, d)
    return dx, dwq, dwk, dwv, dwo


# --- 1-d convolution along the time axis (same padding) ---

def conv1d_forward(x, w, b):
    """x: (N, T, Cin), w: (k, Cin, Cout), b: (Cout,). Same-padded."""
    n, t, cin = x.shape
    k, wcin, cout = w.shape
    if wcin != cin:
        raise DimensionMismatch(f"conv expects {wcin} channels, got {cin}")
    if k > t:
        raise DimensionMismatch(f"kernel width {k} exceeds sequence length {t}")
    pl = (k - 1) // 2
    xp = x
    if k > 1:
        xp = np.zeros((n, t + k - 1, cin))
        xp[:, pl:pl + t] = x
    y = xp[:, :t] @ w[0] + b
    for j in range(1, k):
        y += xp[:, j:j + t] @ w[j]
    return y, (xp, w, t, pl)


def conv1d_backward(cache, dy):
    xp, w, t, pl = cache
    k, cin, cout = w.shape
    dyf = dy.reshape(-1, cout)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dw[j] = xp[:, j:j + t].reshape(-1, cin).T @ dyf
        dxp[:, j:j + t] += (dyf @ w[j].T).reshape(-1, t, cin)
    db = dyf.sum(axis=0)
    dx = dxp[:, pl:pl + t]
    return dx, dw, db


# --- global average pooling over the time axis ---

def gap_forward(x):
    """(N, T, d) -> (N, d): arithmetic mean over time."""
    return x.mean(axis=1), (x.shape[1],)


def gap_backward(cache, dy):
    (t,) = cache
    return np.repeat(dy[:, None, :], t, axis=1) / t


# --- dropout (inverted scaling; identity without an rng or at rate 0) ---

def dropout_forward(x, rate: float, rng: np.random.Generator | None):
    if rng is None or rate <= 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(mask, dy):
    if mask is None:
        return dy
    return dy * mask
