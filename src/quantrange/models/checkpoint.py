"""Model checkpoint file: versioned header, spec as a key-value text block,
then named shape-tagged float64 arrays. Round-trips bit-exactly."""

from __future__ import annotations

import io
import struct
from dataclasses import fields

import numpy as np

from ..config import MODEL_KINDS, QuantileLevels, parse_value
from ..errors import MissingArtifact
from ..io_utils import atomic_write_bytes, reading
from .network import ParameterSet, parameter_shapes

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
    kv = dict(line.partition(" = ")[::2] for line in lines)
    kind = kv.pop("kind")
    cls = MODEL_KINDS[kind]
    types = {f.name: f.type for f in fields(cls)}
    return kind, cls(**{key: parse_value(types[key], value)
                        for key, value in kv.items()})


def save_checkpoint(path: str, spec, params: ParameterSet) -> None:
    kind, = (k for k, cls in MODEL_KINDS.items() if type(spec) is cls)
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
    with reading(path, "checkpoint") as fh:
        data = fh.read()
        if data[:8] != _MAGIC:
            raise MissingArtifact(f"{path}: not a checkpoint file")
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
        if off != len(data):
            raise ValueError(f"{len(data) - off} bytes after the last array")
    if {name: a.shape for name, a in arrays.items()} != parameter_shapes(spec):
        raise MissingArtifact(f"{path}: the arrays do not match the {kind} spec")
    return kind, spec, ParameterSet(arrays)
