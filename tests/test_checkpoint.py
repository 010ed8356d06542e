"""Binary checkpoint format: exact round trip, malformed files, and the
name and shape checks of restore_parameters."""

import struct

import numpy as np
import pytest

from bitfold import checkpoint as ckpt
from bitfold import cli, training
from bitfold.config import ModelConfig, format_config
from bitfold.errors import InvalidConfig, ParseError
from bitfold.nn import MLP

DIMS = (5, 7, 3)


def _mlp(seed, dims=DIMS):
    return MLP(np.random.default_rng(seed), dims)


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "m.ckpt"
    module = _mlp(1)
    ckpt.save_checkpoint(path, module.parameters(), "[model]\nd_model = 5\n", step=42,
                         rng_state={"seed": 3})
    return path, module


def test_save_load_restore_is_bit_exact(saved):
    path, module = saved
    tensors, config_text, step, rng_state = ckpt.load_checkpoint(path)
    assert (config_text, step, rng_state) == ("[model]\nd_model = 5\n", 42, {"seed": 3})
    fresh = _mlp(2)
    ckpt.restore_parameters(fresh, tensors)
    original = module.parameters()
    assert sorted(fresh.parameters()) == sorted(original)
    for name, tensor in fresh.parameters().items():
        assert tensor.data.dtype == np.float32, name
        assert tensor.data.tobytes() == original[name].data.tobytes(), name


def test_bad_magic_raises(saved):
    path, _ = saved
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(ParseError, match="not a BFCK checkpoint"):
        ckpt.load_checkpoint(path)


def test_wrong_version_raises(saved):
    path, _ = saved
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<I", ckpt.VERSION + 1) + data[8:])
    with pytest.raises(ParseError, match="unsupported checkpoint version"):
        ckpt.load_checkpoint(path)


def test_truncated_file_raises(saved):
    path, _ = saved
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ParseError, match="truncated checkpoint"):
        ckpt.load_checkpoint(path)


def test_restore_rejects_missing_or_extra_names(saved):
    path, _ = saved
    tensors = ckpt.load_checkpoint(path)[0]
    with pytest.raises(InvalidConfig, match="parameter names mismatch"):
        ckpt.restore_parameters(_mlp(0, DIMS + (2,)), tensors)


def test_restore_rejects_a_shape_mismatch(saved):
    path, _ = saved
    tensors = ckpt.load_checkpoint(path)[0]
    with pytest.raises(InvalidConfig, match=r"shape \(5, 7\) vs \(5, 8\)"):
        ckpt.restore_parameters(_mlp(0, (5, 8, 3)), tensors)


def test_load_names_the_checkpoint_on_a_parameter_mismatch(tmp_path):
    """A checkpoint whose config matches but whose tensors belong to another
    module, or to an older layout of the same one, is refused with its own
    path in the message."""
    path = tmp_path / "other.ckpt"
    cfg = ModelConfig()
    ckpt.save_checkpoint(path, _mlp(1).parameters(), format_config(cfg))
    with pytest.raises(InvalidConfig, match="parameter names mismatch") as info:
        cli.load_tokenizer(str(path), cfg)
    assert str(info.value).startswith(f"{path}: ")

    path = tmp_path / "old-lm.ckpt"
    params = dict(training.build_lm(cfg).parameters())
    params["blocks.0.attn.k.b"] = np.zeros(cfg.d_model)  # the key bias the LM no longer has
    ckpt.save_checkpoint(path, params, format_config(cfg))
    with pytest.raises(InvalidConfig, match=r"extra \['blocks\.0\.attn\.k\.b'\]") as info:
        cli.load_lm(str(path), cfg)
    assert str(info.value).startswith(f"{path}: ")


def test_load_refuses_a_value_beyond_float32_by_name(tmp_path):
    """1e39 is finite in the float64 payload but overflows a float32
    parameter: the error names the file and the parameter."""
    path = tmp_path / "big.ckpt"
    cfg = ModelConfig()
    lm = training.build_lm(cfg)
    params = {name: t.data.astype(np.float64) for name, t in lm.parameters().items()}
    params["final_norm.gamma"][3] = 1e39
    ckpt.save_checkpoint(path, params, format_config(cfg))
    with pytest.raises(InvalidConfig, match=r"final_norm\.gamma: stored value 1e\+39 overflows "
                                            r"float32") as info:
        cli.load_lm(str(path), cfg)
    assert str(info.value).startswith(f"{path}: ")
