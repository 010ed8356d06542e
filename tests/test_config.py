"""Config text round trip, parse errors, per-component checkpoint checks,
and the rule that every config key is read by some code."""

import hashlib
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import bitfold
from bitfold import nn, training
from bitfold.config import (
    COMPONENT_KEYS, ModelConfig, apply_overrides, check_architecture, format_config,
    parse_config,
)
from bitfold.errors import InvalidConfig

KEYS = [f.name for f in fields(ModelConfig)]


def _changed(cfg, name):
    """`cfg` with `name` set to another value that still validates."""
    value = getattr(cfg, name)
    if isinstance(value, bool):
        return replace(cfg, **{name: not value})
    if isinstance(value, (int, float)):
        return replace(cfg, **{name: 2 * value or 1})
    return replace(cfg, **{name: {"bit": "index", "uniform": "inv-t"}[value]})


def test_format_parse_round_trips_a_non_default_config():
    cfg = ModelConfig(d_model=48, head="index", pair_bias=True, triangle_update=True, k=6,
                      T=37, weighting="inv-t", repa_enabled=True, repa_weight=0.3,
                      resdiff_hidden=24, fm_enabled=True, fm_n_steps=3, lr_peak=3.3e-4,
                      seed=7, folding_sft=True)
    assert parse_config(format_config(cfg)) == cfg


def test_unknown_key_names_its_line():
    with pytest.raises(InvalidConfig, match=r"line 3: unknown key 'batch'"):
        parse_config("[model]\nd_model = 32\nbatch = 4\n")


def test_bad_bool_names_its_line():
    with pytest.raises(InvalidConfig, match=r"line 2: pair_bias: expected boolean, got 'maybe'"):
        parse_config("[model]\npair_bias = maybe\n")


def test_bad_override_names_the_flag():
    with pytest.raises(InvalidConfig, match=r"--set k: expected int, got 'eight'"):
        apply_overrides(ModelConfig(), ["k=eight"])


def _lm_fingerprint(cfg):
    """sha256 over what an LM built from `cfg` holds: each parameter's name,
    shape and bytes, then its noise schedule."""
    lm = training.build_lm(cfg)
    arrays = [(name, t.data) for name, t in lm.parameters().items()]
    arrays += [("alpha_bar", lm.schedule.alpha_bar), ("lambda_w", lm.schedule.lambda_w)]
    digest = hashlib.sha256()
    for name, array in arrays:
        digest.update(f"{name}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_lm_reads_exactly_its_component_keys():
    """On a full-geometry config, changing a key of the LM component changes
    the built LM, and changing any other key but the seed does not."""
    base = ModelConfig(pair_bias=True, struct_transition=True, triangle_update=True,
                       triangle_attention=True, seqstruct_attention=True)
    for name in KEYS:
        if name == "seed":
            continue
        # the triangle ops need the pair track, so they go too where it goes
        before = replace(base, triangle_update=False, triangle_attention=False) \
            if name == "pair_bias" else base
        changed = _lm_fingerprint(_changed(before, name)) != _lm_fingerprint(before)
        assert changed == (name in COMPONENT_KEYS["lm"]), name


@pytest.mark.parametrize("component", sorted(COMPONENT_KEYS))
def test_checkpoint_is_checked_on_its_own_keys_only(component):
    cfg = ModelConfig(pair_bias=True)  # so that each triangle flag may turn on
    path = f"x/{component}.ckpt"
    for name in KEYS:
        stored = format_config(_changed(cfg, name))
        if name in COMPONENT_KEYS[component]:
            message = rf"^x/{component}\.ckpt: checkpoint has {name} = "
            with pytest.raises(InvalidConfig, match=message):
                check_architecture(path, stored, cfg, component)
        else:
            check_architecture(path, stored, cfg, component)


def test_mismatch_message_names_path_key_and_both_values():
    cfg = ModelConfig()
    stored = format_config(replace(cfg, pair_bias=True))
    with pytest.raises(InvalidConfig) as err:
        check_architecture("lm.ckpt", stored, cfg, "lm")
    assert str(err.value) == "lm.ckpt: checkpoint has pair_bias = True, config has False"


def test_unparseable_echo_names_the_checkpoint():
    with pytest.raises(InvalidConfig, match=r"^old\.ckpt: stored config: line 1: unknown key"):
        check_architecture("old.ckpt", "resdiff_enabled = False\n", ModelConfig(), "tokenizer")


@pytest.mark.parametrize("overrides, message", [
    (["heads=3"], "heads = 3 must divide d_model = 64"),
    (["tok_heads=3"], "tok_heads = 3 must divide tok_width = 64"),
    (["seqstruct_attention=true", "heads_seqstruct=3"],
     r"heads_seqstruct = 3 must divide 2 \* d_model = 128"),
])
def test_head_count_must_divide_its_width(overrides, message):
    with pytest.raises(InvalidConfig, match=message):
        apply_overrides(ModelConfig(), overrides)


@pytest.mark.parametrize("name", [
    "n_blocks", "k", "tok_width", "tok_blocks", "tok_heads", "resdiff_hidden",
    "resdiff_layers", "fm_n_steps",
])
@pytest.mark.parametrize("value", [0, -1])
def test_sizes_must_be_positive(name, value):
    with pytest.raises(InvalidConfig, match=rf"^{name} = {value} must be positive$"):
        apply_overrides(ModelConfig(), [f"{name}={value}"])


def test_seqstruct_heads_are_free_while_seqstruct_is_off():
    assert apply_overrides(ModelConfig(), ["heads_seqstruct=3"]).heads_seqstruct == 3


def test_attention_refuses_heads_that_do_not_divide_its_width():
    with pytest.raises(InvalidConfig, match="3 heads do not divide width 64"):
        nn.MultiHeadAttention(np.random.default_rng(0), 64, 3)


def test_every_key_is_read():
    """Each ModelConfig field is read as `cfg.<name>` in the package, or as
    `self.<name>` in config.py's own checks."""
    src = Path(bitfold.__file__).parent
    package = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
    config = (src / "config.py").read_text()
    unread = [name for name in KEYS
              if not re.search(rf"\bcfg\.{name}\b", package)
              and not re.search(rf"\bself\.{name}\b", config)]
    assert unread == []
