"""Numpy columns rendered as ASCII byte tables: one row per value, the
padding before each cell's text held as 0 bytes, which `join` drops."""

from functools import cache

import numpy as np


@cache
def _table(keep: int) -> np.ndarray:
    """The 10**4 four-digit strings as uint32, their zeros before the last
    `keep` digits as 0 bytes, then all again with every digit kept."""
    q = np.arange(10 ** 4)[:, None] // 10 ** np.arange(3, -1, -1)
    text = (q % 10 + 48).astype(np.uint8)
    blank = np.where((np.arange(4) < 4 - keep) & (q == 0), 0, text)
    return np.concatenate([blank, text]).view(np.uint32).ravel()


def digits(v: np.ndarray, keep: int) -> np.ndarray:
    """The ASCII digits of int64 values v >= 0, one row each; the leading
    zeros before the last `keep` digits are 0 bytes. Each group of four is one
    lookup; below a nonzero digit it reads the table's zero-keeping half."""
    width = max(keep, len(str(v.max())))
    out, rest = np.empty((len(v), -(-width // 4)), np.uint32), v
    for j, g in enumerate(range(out.shape[1] - 1, 0, -1)):
        i = rest // 10 ** (4 * g)
        np.take(_table(keep - 4 * g), i, out=out[:, j], mode="clip")
        i -= i > 0      # so `rest` keeps 10**(4g) below a nonzero digit
        i *= 10 ** (4 * g)
        rest = rest - i
    np.take(_table(keep), rest, out=out[:, -1], mode="clip")
    return out.view(np.uint8)[:, -width:]


def _rows(a: np.ndarray) -> np.ndarray:    # a row as one item: one memmove
    return a.view(f"V{a.shape[1]}")


def _point6(field: np.ndarray, x: np.ndarray, fast, fmt) -> np.ndarray:
    """The digit rows `field` with a point before their last six digits,
    and in each row of x off the fast path, fmt(v) instead."""
    slow = np.flatnonzero(~fast)
    text = np.array([fmt(v) for v in x[slow].tolist()], dtype=bytes)
    out = np.zeros((len(x), max(field.shape[1] + 1, text.itemsize)), np.uint8)
    _rows(out[:, -field.shape[1] - 1:-7])[...] = _rows(field[:, :-6])
    out[:, -7] = ord(".")
    _rows(out[:, -6:])[...] = _rows(field[:, -6:])
    out[slow] = text.astype(f"S{out.shape[1]}")[:, None].view(np.uint8)
    return out


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
    cells = [np.frombuffer(c, np.uint8)[None] if isinstance(c, bytes) else c
             for c in cells]
    ends = np.cumsum([c.shape[1] for c in cells])
    table = np.empty((n, ends[-1]), np.uint8)
    for c, end in zip(cells, ends):
        _rows(table[:, end - c.shape[1]:end])[...] = _rows(c)
    return table.tobytes().replace(b"\0", b"")
