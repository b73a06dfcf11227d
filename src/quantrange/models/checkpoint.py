"""Model checkpoint file: versioned header, spec as a key-value text block,
then named shape-tagged float64 arrays. Round-trips bit-exactly."""

from __future__ import annotations

import io
import struct

import numpy as np

from ..errors import MissingArtifact
from ..io_utils import atomic_write_bytes
from .forecast import QuantileLevels
from .network import KINDS, ParameterSet

_MAGIC = b"QRCKPTv1"


def _spec_to_lines(kind: str, spec) -> list[str]:
    lines = [f"kind = {kind}"]
    for name, value in spec.__dict__.items():
        if isinstance(value, QuantileLevels):
            value = ",".join(repr(x) for x in value.levels)
        elif isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        lines.append(f"{name} = {value}")
    return lines


def _spec_from_lines(lines: list[str]):
    kv = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        kv[key] = value
    kind = kv.pop("kind")
    cls = KINDS[kind].spec_class
    kwargs = {}
    for key, value in kv.items():
        if key == "levels":
            kwargs[key] = QuantileLevels(tuple(float(x) for x in value.split(",")))
        elif key in ("dense_units", "hidden"):
            kwargs[key] = tuple(int(x) for x in value.split(","))
        elif key in ("dropout_rate", "ln_epsilon"):
            kwargs[key] = float(value)
        else:
            kwargs[key] = int(value)
    return kind, cls(**kwargs)


def save_checkpoint(path: str, kind: str, spec, params: ParameterSet) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    header = "\n".join(_spec_to_lines(kind, spec)).encode("utf-8")
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    buf.write(struct.pack("<I", len(params.arrays)))
    for name, arr in params.arrays.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<I", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write_bytes(path, buf.getvalue())


def load_checkpoint(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise MissingArtifact(f"checkpoint not found: {path}")
    if data[:8] != _MAGIC:
        raise MissingArtifact(f"{path}: not a checkpoint file")
    try:
        off = 8
        (hlen,) = struct.unpack_from("<I", data, off); off += 4
        kind, spec = _spec_from_lines(data[off:off + hlen].decode("utf-8").splitlines())
        off += hlen
        (count,) = struct.unpack_from("<I", data, off); off += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", data, off); off += 4
            name = data[off:off + nlen].decode("utf-8"); off += nlen
            (ndim,) = struct.unpack_from("<I", data, off); off += 4
            shape = struct.unpack_from(f"<{ndim}I", data, off); off += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arrays[name] = np.frombuffer(data, "<f8", size, off).reshape(shape)
            off += 8 * size
        return kind, spec, ParameterSet(arrays)
    except (struct.error, KeyError, TypeError, ValueError) as exc:
        raise MissingArtifact(
            f"{path}: truncated or corrupt checkpoint ({exc})") from exc
