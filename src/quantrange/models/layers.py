"""Array-level building blocks with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes the
cache plus the upstream gradient and returns gradients for its inputs and
parameters. Each computes through `out=` into buffers of the Workspace it
is given, with every product and sum in the order of the plain expression
it replaces. A broadcast operand is first copied out to the full shape,
since numpy allocates a buffer for it. Everything runs in float64 for
deterministic, checkable math.
Attention projections and conv input gradients are 2-D matmuls over all
N*T rows, summing as the per-sample products do (and bit-equal to them
wherever BLAS picks the same kernel for both).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch


def _allocate(size: int, dtype) -> np.ndarray:
    """The one place a workspace gets memory."""
    return np.empty(size, dtype)


class Workspace:
    """The buffers of one train or forward call. After `reset` the k-th
    request gets the k-th buffer, so a step repeated on batches no larger
    than its first allocates nothing (a smaller batch uses the leading
    elements). A buffer is live until the next reset."""

    def __init__(self):
        self.slots: list[tuple] = []    # ((shape, dtype), view, buffer)
        self.count = 0
        self.shared = _allocate(0, float)

    def reset(self) -> Workspace:
        self.count = 0
        return self

    def empty(self, shape: tuple, dtype=float) -> np.ndarray:
        i = self.count
        self.count += 1
        if i == len(self.slots):
            self.slots.append((None, None, _allocate(math.prod(shape), dtype)))
        key, view, buf = self.slots[i]
        if key != (shape, dtype):
            size = math.prod(shape)
            if buf.size < size or buf.dtype != dtype:
                buf = _allocate(size, dtype)
            view = buf[:size].reshape(shape)
            self.slots[i] = ((shape, dtype), view, buf)
        return view

    def temp(self, shape: tuple) -> np.ndarray:
        """A float buffer that every transient use shares, valid until the
        next temp request: a layer holds at most one at a time."""
        size = math.prod(shape)
        if self.shared.size < size:
            self.shared = _allocate(size, float)
        return self.shared[:size].reshape(shape)


def _fill(out: np.ndarray, a) -> np.ndarray:
    np.copyto(out, a)
    return out


# --- layer normalization (over the last axis) ---

def layer_norm_forward(x, gamma, shift, epsilon: float, ws):
    """((x - mu) / sqrt(var + eps)) * gamma + shift, per trailing vector;
    mu and var are sums over d divided by d, as np.mean and np.var do."""
    d = x.shape[-1]
    s = x.sum(axis=-1, keepdims=True, out=ws.empty(x.shape[:-1] + (1,)))
    s /= d                                      # mu
    full = _fill(ws.temp(x.shape), s)
    xhat = np.subtract(x, full, out=ws.empty(x.shape))
    y = np.multiply(xhat, xhat, out=ws.empty(x.shape))
    y.sum(axis=-1, keepdims=True, out=s)
    s /= d                                      # var
    s += epsilon
    inv_std = np.divide(1.0, np.sqrt(s, out=s), out=s)
    xhat *= _fill(full, inv_std)
    np.multiply(xhat, _fill(full, gamma), out=y)
    y += _fill(full, shift)
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(cache, dy, ws):
    xhat, inv_std, gamma = cache
    d = dy.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    t = np.multiply(dy, xhat, out=ws.empty(dy.shape))
    dgamma = t.sum(axis=axes, out=ws.empty((d,)))
    dshift = dy.sum(axis=axes, out=ws.empty((d,)))
    full = _fill(ws.temp(dy.shape), gamma)
    dx = np.multiply(dy, full, out=ws.empty(dy.shape))     # dxhat
    m = dx.sum(axis=-1, keepdims=True, out=ws.empty(dy.shape[:-1] + (1,)))
    m /= d
    _fill(full, m)                                          # m1
    np.multiply(dx, xhat, out=t)
    t.sum(axis=-1, keepdims=True, out=m)
    m /= d                                                  # m2
    # inv_std * (dxhat - m1 - xhat * m2)
    dx -= full
    dx -= np.multiply(xhat, _fill(full, m), out=t)
    dx *= _fill(full, inv_std)
    return dx, dgamma, dshift


# --- dense ---

def linear_forward(x, w, b, ws):
    shape = x.shape[:-1] + w.shape[1:]
    y = np.matmul(x, w, out=ws.empty(shape))
    y += _fill(ws.temp(shape), b)
    return y, (x, w)


def linear_backward(cache, dy, input_grad: bool, ws):
    """dx is None when input_grad is false, as for a layer fed by data."""
    x, w = cache
    din, dout = w.shape
    dyf = dy.reshape(-1, dout)
    # an explicit row count, since -1 is ambiguous when din is 0
    xf = x.reshape(math.prod(x.shape[:-1]), din)
    dw = np.matmul(xf.T, dyf, out=ws.empty(w.shape))
    db = dyf.sum(axis=0, out=ws.empty((dout,)))
    dx = None
    if input_grad:
        dx = np.matmul(dy, w.T, out=ws.empty(dy.shape[:-1] + (din,)))
    return dx, dw, db


# --- ReLU ---

def relu_forward(x, ws):
    mask = np.greater(x, 0.0, out=ws.empty(x.shape, bool))
    return relu_backward(mask, x, ws), mask


def relu_backward(mask, dy, ws):
    """dy * mask, the mask first copied out as 0.0 and 1.0 (numpy casts a
    bool operand in a buffer it allocates)."""
    out = _fill(ws.empty(dy.shape), mask)
    return np.multiply(dy, out, out=out)


# --- softmax (last axis) ---

def softmax(x, ws):
    # the row maximum column by column (cheaper than a reduce of short rows);
    # any order gives it exactly, up to a zero's sign, which exp cannot see
    top = _fill(ws.empty(x.shape[:-1] + (1,)), x[..., :1])
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j:j + 1], out=top)
    full = _fill(ws.empty(x.shape), top)
    e = np.exp(np.subtract(x, full, out=full), out=full)
    e /= _fill(ws.temp(x.shape), e.sum(axis=-1, keepdims=True, out=top))
    return e


# --- multi-head attention ---

def split_heads(x, n: int, t: int, h: int):  # (N*T, d) -> (N, h, T, d/h)
    """A view, so a matmul writing into it merges the heads as it goes."""
    shape = (n, t, h, x.shape[1] // h)
    return x.reshape(shape).transpose(0, 2, 1, 3)


def mha_forward(x, wq, wk, wv, wo, num_heads: int, ws):
    """softmax(Q K^T / sqrt(d_k)) V per head, heads concatenated then
    projected by wo. x: (N, T, d) with d divisible by num_heads."""
    n, t, d = x.shape
    if d % num_heads != 0:
        raise DimensionMismatch(
            f"model dim {d} not divisible by num_heads {num_heads}"
        )
    xf = x.reshape(n * t, d)
    q, k, v = (split_heads(np.matmul(xf, w, out=ws.empty((n * t, d))),
                           n, t, num_heads) for w in (wq, wk, wv))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2),
                       out=ws.empty((n, num_heads, t, t)))
    scores /= np.sqrt(d // num_heads)
    attn = softmax(scores, ws)                        # (N, h, T, T)
    concat = ws.empty((n * t, d))                     # heads, merged
    np.matmul(attn, v, out=split_heads(concat, n, t, num_heads))
    y = np.matmul(concat, wo, out=ws.empty((n * t, d))).reshape(n, t, d)
    cache = (x, wq, wk, wv, wo, q, k, v, attn, concat, num_heads)
    return y, cache


def mha_backward(cache, dy, ws):
    x, wq, wk, wv, wo, q, k, v, attn, concat, num_heads = cache
    n, t, d = x.shape
    scale = 1.0 / np.sqrt(d // num_heads)

    dyf = dy.reshape(n * t, d)
    dwo = np.matmul(concat.T, dyf, out=ws.empty((d, d)))
    dheads = split_heads(np.matmul(dyf, wo.T, out=ws.empty((n * t, d))),
                         n, t, num_heads)                # (N, h, T, dk)

    dattn = np.matmul(dheads, v.transpose(0, 1, 3, 2),
                      out=ws.empty(attn.shape))         # (N, h, T, T)
    # dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores = np.multiply(dattn, attn, out=ws.empty(attn.shape))
    dattn -= _fill(ws.temp(attn.shape), dscores.sum(
        axis=-1, keepdims=True, out=ws.empty(attn.shape[:-1] + (1,))))
    np.multiply(attn, dattn, out=dscores)
    # dq, dk and dv, their heads merged
    dxq, dxk, dxv = (ws.empty((n * t, d)) for _ in range(3))
    for a, b, out in ((dscores, k, dxq),
                      (dscores.transpose(0, 1, 3, 2), q, dxk),
                      (attn.transpose(0, 1, 3, 2), dheads, dxv)):
        np.matmul(a, b, out=split_heads(out, n, t, num_heads))
    dxq *= scale
    dxk *= scale
    xf = x.reshape(n * t, d)
    dwq, dwk, dwv = (np.matmul(xf.T, g, out=ws.empty((d, d)))
                     for g in (dxq, dxk, dxv))
    # dxq @ wq.T + dxk @ wk.T + dxv @ wv.T, summed left to right
    dx = np.matmul(dxq, wq.T, out=ws.empty((n * t, d)))
    part = np.matmul(dxk, wk.T, out=ws.temp((n * t, d)))
    dx += part
    dx += np.matmul(dxv, wv.T, out=part)
    return dx.reshape(n, t, d), dwq, dwk, dwv, dwo


# --- 1-d convolution along the time axis (same padding) ---

def conv1d_forward(x, w, b, ws):
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
        xp = _fill(ws.empty((n, t + k - 1, cin)), 0.0)
        xp[:, pl:pl + t] = x
    y = np.matmul(xp[:, :t], w[0], out=ws.empty((n, t, cout)))
    part = _fill(ws.temp(y.shape), b)
    y += part
    for j in range(1, k):
        y += np.matmul(xp[:, j:j + t], w[j], out=part)
    return y, (xp, w, t, pl)


def conv1d_backward(cache, dy, ws):
    """dx sums each tap's input gradient in tap order from 0.0; a tap that
    reaches only some rows adds a contiguous copy holding 0.0 in the others,
    which changes no such sum."""
    xp, w, t, pl = cache
    k, cin, cout = w.shape
    dyf = dy.reshape(-1, cout)
    dw = ws.empty(w.shape)
    dx = _fill(ws.empty((len(xp), t, cin)), 0.0)
    window = ws.empty(dx.shape)                 # xp[:, j:j + t], contiguous
    part = ws.empty((len(dyf), cin))
    spread = ws.temp(dx.shape)
    for j in range(k):
        np.copyto(window, xp[:, j:j + t])
        np.matmul(window.reshape(-1, cin).T, dyf, out=dw[j])
        p = np.matmul(dyf, w[j].T, out=part).reshape(-1, t, cin)
        lo, hi = max(j - pl, 0), t + min(j - pl, 0)   # the rows tap j reaches
        if hi - lo < t:
            _fill(spread, 0.0)[:, lo:hi] = p[:, lo + pl - j:hi + pl - j]
            p = spread
        dx += p
    db = dyf.sum(axis=0, out=ws.empty((cout,)))
    return dx, dw, db


# --- global average pooling over the time axis ---

def gap_forward(x, ws):
    """(N, T, d) -> (N, d): arithmetic mean over time."""
    out = ws.empty((x.shape[0], x.shape[2]))
    return np.mean(x, axis=1, out=out), (x.shape[1],)


def gap_backward(cache, dy, ws):
    (t,) = cache
    dx = _fill(ws.empty((dy.shape[0], t, dy.shape[1])), dy[:, None, :])
    dx /= t
    return dx


# --- dropout (inverted scaling; identity without an rng or at rate 0) ---

def dropout_forward(x, rate: float, rng: np.random.Generator | None, ws):
    if rng is None or rate <= 0.0:
        return x, None
    # (rng.random(x.shape) >= rate) / (1.0 - rate)
    mask = rng.random(out=ws.empty(x.shape))
    _fill(mask, np.greater_equal(mask, rate, out=ws.empty(x.shape, bool)))
    mask *= 1.0 / (1.0 - rate)
    return dropout_backward(mask, x, ws), mask


def dropout_backward(mask, dy, ws):
    if mask is None:
        return dy
    return np.multiply(dy, mask, out=ws.empty(dy.shape))
