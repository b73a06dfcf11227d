from pathlib import Path

import numpy as np
import pytest

from quantrange.config import LinearSpec, ModelSpec, QuantileLevels
from quantrange.errors import MissingArtifact
from quantrange.models.checkpoint import load_checkpoint, save_checkpoint
from quantrange.models.network import init_params


def test_network_round_trip_bit_exact(tmp_path):
    spec = ModelSpec(num_blocks=2, num_heads=4, key_dim=4,
                     dense_units=(24, 12), dropout_rate=0.2)
    params = init_params(spec, np.random.default_rng(0))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, spec, params)
    kind, back_spec, back = load_checkpoint(path)
    assert kind == "futurequant"
    assert back_spec == spec
    assert set(back.arrays) == set(params.arrays)
    for name, arr in params.arrays.items():
        assert np.array_equal(back.arrays[name], arr)


def test_linear_round_trip(tmp_path):
    spec = LinearSpec(num_inputs=5, levels=QuantileLevels((0.1, 0.5, 0.9)))
    params = init_params(spec, np.random.default_rng(1))
    path = str(tmp_path / "lin.ckpt")
    save_checkpoint(path, spec, params)
    kind, back_spec, back = load_checkpoint(path)
    assert kind == "quantile-linear"
    assert back_spec.levels.levels == (0.1, 0.5, 0.9)
    assert np.array_equal(back["w"], params["w"])


def test_save_is_deterministic(tmp_path):
    spec = ModelSpec(num_blocks=1)
    params = init_params(spec, np.random.default_rng(2))
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, spec, params)
    save_checkpoint(b, spec, params)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_missing_file(tmp_path):
    with pytest.raises(MissingArtifact):
        load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_wrong_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(MissingArtifact):
        load_checkpoint(str(path))


def test_bytes_after_the_last_array_rejected(tmp_path):
    spec = LinearSpec(num_inputs=5)
    path = tmp_path / "lin.ckpt"
    params = init_params(spec, np.random.default_rng(3))
    save_checkpoint(str(path), spec, params)
    path.write_bytes(path.read_bytes() + bytes(24))
    with pytest.raises(MissingArtifact, match="lin.ckpt.*24 bytes after"):
        load_checkpoint(str(path))
