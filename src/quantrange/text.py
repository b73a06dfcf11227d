"""Numpy columns rendered as ASCII byte tables: one row per value, the
padding before each cell's text held as 0 bytes, which `join` drops."""

import numpy as np


def digits(v: np.ndarray, keep: int) -> np.ndarray:
    """The ASCII digits of int64 values v >= 0, one row each; the leading
    zeros before the last `keep` digits are 0 bytes."""
    width = max(keep, len(str(v.max())))
    out, rest = np.empty((len(v), width), np.uint8), v
    for j in range(width - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, 10)
    out += 48
    out[:, :-keep] *= v[:, None] >= 10 ** np.arange(width - 1, keep - 1, -1)
    return out


def _point6(field: np.ndarray, x: np.ndarray, fast, fmt) -> np.ndarray:
    """The digit rows `field` with a point before their last six digits,
    and in each row of x off the fast path, fmt(v) instead."""
    field = np.insert(field, field.shape[1] - 6, ord("."), axis=1)
    slow = np.flatnonzero(~fast)
    text = np.array([fmt(v) for v in x[slow].tolist()], dtype=bytes)
    width = max(field.shape[1], text.itemsize)
    field = np.pad(field, ((0, 0), (width - field.shape[1], 0)))
    field[slow] = text.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return field


def fixed6_field(x: np.ndarray) -> np.ndarray:
    """`"%.6f" % v` for each v in x, one 0-padded row each. rint(v * 1e6)
    rounds as %.6f does if v has no sign bit, v * 1e6 < 2**52 and it is over
    a spacing (twice its rounding error) from a half-integer; else "%.6f"."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e6
        fast = (~np.signbit(x) & (y < 2.0**52)
                & (np.abs(y - np.floor(y) - 0.5) > np.spacing(y)))
    m = np.rint(np.where(fast, y, 0.0)).astype(np.int64)
    return _point6(digits(m, 7), x, fast, "%.6f".__mod__)


def repr_field(x: np.ndarray) -> np.ndarray:
    """`repr(float(v))` for each v in x, one 0-padded row each. If m =
    rint(v * 1e6) has m / 1e6 == v, the decimal m / 10**6 reads as v; for
    1e-4 <= v < 2**33, where repr has no exponent and a spacing of v is under
    1e-6, no other decimal of six places or fewer reads as v, so repr is m's
    digits less the fraction's trailing zeros, one kept. Else repr."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.rint(x * 1e6)
        fast = (x >= 1e-4) & (x < 2.0**33) & (m / 1e6 == x)
    m = np.where(fast, m, 0.0).astype(np.int64)
    field = digits(m, 7)
    field[:, -5:] *= m[:, None] % 10 ** np.arange(5, 0, -1) != 0
    return _point6(field, x, fast, repr)


def join(cells: list, n: int) -> bytes:
    """The table of n rows whose columns are `cells`, each a field or bytes
    that every row repeats, without its 0 bytes."""
    table = np.hstack([np.tile(np.frombuffer(c, np.uint8), (n, 1))
                       if isinstance(c, bytes) else c for c in cells])
    return table[table != 0].tobytes()
