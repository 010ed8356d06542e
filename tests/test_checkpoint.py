"""Checkpoint archives: exact round trip, malformed files, the atomic save,
and the name and shape checks of restore_parameters."""

import dataclasses

import numpy as np
import pytest

from bitfold import checkpoint as ckpt
from bitfold import cli, training
from bitfold import tokenizer as tok
from bitfold.config import ModelConfig, format_config
from bitfold.errors import InvalidConfig, ParseError
from bitfold.nn import MLP

DIMS = (5, 7, 3)
CONFIG = "[model]\nd_model = 5\n"


def _mlp(seed, dims=DIMS):
    return MLP(np.random.default_rng(seed), dims)


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "m.ckpt"
    module = _mlp(1)
    ckpt.save_checkpoint(path, module.parameters(), CONFIG, step=42)
    return path, module


def test_save_load_restore_is_bit_exact(saved):
    path, module = saved
    tensors, config_text, step = ckpt.load_checkpoint(path)
    assert (config_text, step) == (CONFIG, 42)
    fresh = _mlp(2)
    ckpt.restore_parameters(fresh, tensors)
    original = module.parameters()
    assert sorted(fresh.parameters()) == sorted(original)
    for name, tensor in fresh.parameters().items():
        assert tensor.data.dtype == np.float32, name
        assert tensor.data.tobytes() == original[name].data.tobytes(), name


FULL_GEO = {"pair_bias": True, "struct_transition": True, "triangle_update": True,
            "triangle_attention": True, "seqstruct_attention": True}
BUILD = {
    "lm": lambda cfg, seed: training.build_lm(dataclasses.replace(cfg, seed=seed)),
    "tokenizer": lambda cfg, seed: tok.TokenizerParams(cli._tok_cfg(cfg), seed=seed),
    "resdiff": cli._resdiff_head,
}


@pytest.mark.parametrize("component, overrides", [
    ("lm", {}), ("lm", FULL_GEO), ("lm", {"head": "index"}), ("tokenizer", {}), ("resdiff", {}),
], ids=["lm", "lm-full-geo", "lm-index", "tokenizer", "resdiff"])
def test_every_stage_round_trips_bit_exactly_through_the_cli(tmp_path, component, overrides):
    cfg = ModelConfig(**overrides).validate()
    path = str(tmp_path / f"{component}.ckpt")
    module = BUILD[component](cfg, 1)
    cli._save_model(path, module, cfg, step=7)
    fresh = cli._load(path, BUILD[component](cfg, 2), cfg, component)
    original = module.parameters()
    assert sorted(fresh.parameters()) == sorted(original)
    for name, tensor in fresh.parameters().items():
        assert tensor.data.dtype == np.float32, name
        assert tensor.data.tobytes() == original[name].data.tobytes(), name
    assert ckpt.load_checkpoint(path)[2] == 7


def test_two_saves_of_the_same_parameters_are_identical(saved, tmp_path):
    """The archive carries no timestamp, so a checkpoint's bytes are a
    function of its contents."""
    path, module = saved
    again = tmp_path / "again.ckpt"
    ckpt.save_checkpoint(again, module.parameters(), CONFIG, step=42)
    assert again.read_bytes() == path.read_bytes()


def _write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _flip_a_payload_byte(path):
    """Flips one byte inside the stored bytes of `param/layers.0.w`."""
    data = bytearray(path.read_bytes())
    at = data.find(_mlp(1).parameters()["layers.0.w"].data.tobytes())
    assert at > 0
    data[at + 5] ^= 0x01
    path.write_bytes(bytes(data))


def _edit(**changes):
    """Writes a valid archive with `changes` applied; a None drops the entry."""
    def write(path):
        entries = {"version": np.int64(ckpt.VERSION), "config": np.array(CONFIG),
                   "step": np.int64(0), "count": np.int64(1),
                   "param/w": np.zeros((2, 3), np.float32), **changes}
        with open(path, "wb") as fh:
            np.savez(fh, **{name: v for name, v in entries.items() if v is not None})
    return write


@pytest.mark.parametrize("corrupt, message", [
    (lambda path: path.write_bytes(b"BFCK\x01\x00\x00\x00"), "not an .npz archive"),
    (lambda path: path.write_bytes(b""), "not an .npz archive"),
    (_write_npy, "not an .npz archive"),
    (lambda path: path.write_bytes(path.read_bytes()[:-1]), "not a readable checkpoint"),
    (_flip_a_payload_byte, "Bad CRC-32"),
    (_edit(version=None), "'version' must be a scalar integer, got no entry"),
    (_edit(version=np.array([1, 1])),
     r"'version' must be a scalar integer, got int64 of shape \(2,\)"),
    (_edit(version=np.int64(ckpt.VERSION + 1)), "unsupported checkpoint version"),
    (_edit(version=np.int64(1)), "unsupported checkpoint version 1$"),
    (_edit(config=None), "'config' must be scalar text, got no entry"),
    (_edit(config=np.int64(3)), "'config' must be scalar text, got int64"),
    (_edit(step=np.float64(2.0)), "'step' must be a scalar integer, got float64"),
    (_edit(step=np.arange(2)), r"'step' must be a scalar integer, got int64 of shape \(2,\)"),
    (_edit(count=None), "'count' must be a scalar integer, got no entry"),
    (_edit(count=np.int64(2)), "lists 1 'param/' entries, but 'count' is 2"),
    (_edit(**{"param/w": np.array([{}], dtype=object)}), "Object arrays cannot be loaded"),
    (_edit(**{"param/w": np.array(["a"])}), "'param/w' has dtype <U1, not float or integer"),
], ids=["bfck", "empty", "npy", "truncated", "flipped-payload-byte", "no-version",
        "version-array", "wrong-version", "version-1", "no-config", "config-not-text",
        "step-float", "step-array", "no-count", "count-mismatch", "object-data",
        "text-parameter"])
def test_malformed_checkpoint_is_refused_naming_the_file(saved, corrupt, message):
    path, _ = saved
    corrupt(path)
    with pytest.raises(ParseError, match=message) as info:
        ckpt.load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_a_hidden_central_directory_record_is_refused(saved):
    """Adding 256 to the comment length of a central-directory record makes
    that comment swallow the records after it, so the zip lists only the
    entries up to it; the load must not return the parameters it still
    lists. The last record has no records after it to hide."""
    path, _ = saved
    data = path.read_bytes()
    records = []
    at = data.find(b"PK\x01\x02")
    while at >= 0:
        records.append(at)
        at = data.find(b"PK\x01\x02", at + 1)
    assert len(records) == 4 + len(_mlp(1).parameters())
    for record in records[:-1]:
        flipped = bytearray(data)
        flipped[record + 33] ^= 0x01  # high byte of the comment length at offset 32
        path.write_bytes(bytes(flipped))
        with pytest.raises(ParseError) as info:
            ckpt.load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: "), record


def test_a_missing_checkpoint_is_file_not_found(tmp_path):
    path = tmp_path / "absent.ckpt"
    with pytest.raises(FileNotFoundError) as info:
        ckpt.load_checkpoint(path)
    assert info.value.filename == str(path)


def test_an_interrupted_save_keeps_the_previous_checkpoint(saved, monkeypatch):
    """A save that fails halfway leaves the file it would have replaced
    intact and no temporary file behind."""
    path, _ = saved
    before = path.read_bytes()

    def fail(fh, **entries):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", fail)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_checkpoint(path, _mlp(2).parameters(), CONFIG, step=43)
    assert path.read_bytes() == before
    assert ckpt.load_checkpoint(path)[2] == 42
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


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
    """1e39 is finite in a stored float64 array but overflows a float32
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
