"""Reference layers and optimizer for the layer differential test.

These are the layer norm, multi-head attention and conv1d passes, and the
per-array optimizer, as `quantrange.models` had them before the training
step was trimmed: 3-D matmuls, `np.pad`/`np.tile` in conv1d, `mean`/`var`
in layer norm, a reduce for the softmax maximum, and one update per named
array. The tests require the package's results to equal these bit for
bit; nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from quantrange.models.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


def layer_norm_forward(x, gamma, shift, epsilon: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = (x - mu) * inv_std
    y = xhat * gamma + shift
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(cache, dy):
    xhat, inv_std, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dshift = dy.sum(axis=axes)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dshift


def softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def split_heads(x, num_heads):
    n, t, d = x.shape
    return x.reshape(n, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    n, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, t, h * dk)


def mha_forward(x, wq, wk, wv, wo, num_heads: int):
    n, t, d = x.shape
    dk = d // num_heads
    q = split_heads(x @ wq, num_heads)
    k = split_heads(x @ wk, num_heads)
    v = split_heads(x @ wv, num_heads)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    attn = softmax(scores)
    heads = attn @ v
    concat = merge_heads(heads)
    y = concat @ wo
    cache = (x, wq, wk, wv, wo, q, k, v, attn, concat, num_heads)
    return y, cache


def mha_backward(cache, dy):
    x, wq, wk, wv, wo, q, k, v, attn, concat, num_heads = cache
    n, t, d = x.shape
    dk_dim = d // num_heads
    scale = 1.0 / np.sqrt(dk_dim)

    dwo = concat.reshape(-1, d).T @ dy.reshape(-1, d)
    dconcat = dy @ wo.T
    dheads = split_heads(dconcat, num_heads)

    dattn = dheads @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dheads
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = dscores.transpose(0, 1, 3, 2) @ q * scale

    dxq = merge_heads(dq)
    dxk = merge_heads(dk)
    dxv = merge_heads(dv)
    xf = x.reshape(-1, d)
    dwq = xf.T @ dxq.reshape(-1, d)
    dwk = xf.T @ dxk.reshape(-1, d)
    dwv = xf.T @ dxv.reshape(-1, d)
    dx = dxq @ wq.T + dxk @ wk.T + dxv @ wv.T
    return dx, dwq, dwk, dwv, dwo


def conv1d_forward(x, w, b):
    n, t, cin = x.shape
    k, wcin, cout = w.shape
    pl = (k - 1) // 2
    pr = k - 1 - pl
    xp = np.pad(x, ((0, 0), (pl, pr), (0, 0)))
    y = np.tile(b, (n, t, 1)).astype(float)
    for j in range(k):
        y += xp[:, j:j + t] @ w[j]
    return y, (xp, w, t, pl)


def conv1d_backward(cache, dy):
    xp, w, t, pl = cache
    k, cin, cout = w.shape
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dw[j] = xp[:, j:j + t].reshape(-1, cin).T @ dy.reshape(-1, cout)
        dxp[:, j:j + t] += dy @ w[j].T
    db = dy.reshape(-1, cout).sum(axis=0)
    dx = dxp[:, pl:pl + t]
    return dx, dw, db


class Optimizer:
    """One update per named array; `arrays` maps names to arrays updated
    in place, `config` is a `TrainConfig`."""

    def __init__(self, config, arrays: dict):
        self.config = config
        self.lr = config.learning_rate
        self.t = 0
        self.state = {
            name: {"m": np.zeros_like(a), "v": np.zeros_like(a)}
            for name, a in arrays.items()
        }

    def step(self, arrays: dict, grads: dict) -> None:
        cfg = self.config
        self.t += 1
        if cfg.gradient_clip is not None:
            total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
            if total > cfg.gradient_clip:
                scale = cfg.gradient_clip / total
                grads = {k: g * scale for k, g in grads.items()}
        for name, g in grads.items():
            a = arrays[name]
            st = self.state[name]
            if cfg.optimizer == "sgd":
                a -= self.lr * g
            elif cfg.optimizer == "momentum":
                st["m"] = cfg.momentum * st["m"] + g
                a -= self.lr * st["m"]
            else:  # adam
                st["m"] = ADAM_BETA1 * st["m"] + (1 - ADAM_BETA1) * g
                st["v"] = ADAM_BETA2 * st["v"] + (1 - ADAM_BETA2) * g * g
                mhat = st["m"] / (1 - ADAM_BETA1 ** self.t)
                vhat = st["v"] / (1 - ADAM_BETA2 ** self.t)
                a -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
