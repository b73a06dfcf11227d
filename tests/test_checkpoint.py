from pathlib import Path

import numpy as np
import pytest

from quantrange.errors import MissingArtifact
from quantrange.models import (
    LinearSpec,
    ModelSpec,
    QuantileLevels,
    init_params,
)
from quantrange.models.checkpoint import load_checkpoint, save_checkpoint


def test_network_round_trip_bit_exact(tmp_path):
    spec = ModelSpec(num_blocks=2, num_heads=4, key_dim=4,
                     dense_units=(24, 12), dropout_rate=0.2)
    params = init_params(spec, np.random.default_rng(0))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "futurequant", spec, params)
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
    save_checkpoint(path, "quantile-linear", spec, params)
    kind, back_spec, back = load_checkpoint(path)
    assert kind == "quantile-linear"
    assert back_spec.levels.levels == (0.1, 0.5, 0.9)
    assert np.array_equal(back["w"], params["w"])


def test_save_is_deterministic(tmp_path):
    spec = ModelSpec(num_blocks=1)
    params = init_params(spec, np.random.default_rng(2))
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, "futurequant", spec, params)
    save_checkpoint(b, "futurequant", spec, params)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_missing_file(tmp_path):
    with pytest.raises(MissingArtifact):
        load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_wrong_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(MissingArtifact):
        load_checkpoint(str(path))


def test_unknown_kind_rejected(tmp_path):
    spec = ModelSpec(num_blocks=1)
    params = init_params(spec, np.random.default_rng(3))
    with pytest.raises(ValueError):
        save_checkpoint(str(tmp_path / "x.ckpt"), "mystery", spec, params)
