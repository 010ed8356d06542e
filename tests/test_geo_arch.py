"""Geometry-aware architecture: reductions, equivariance, configs, scaling."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bitfold
import bitfold.autodiff as ad
from bitfold import diffusion as dfn
from bitfold import geo_arch as ga
from bitfold import geometry as geo
from bitfold import nn
from bitfold import tokenizer as tok
from bitfold import training
from bitfold.autodiff import Tensor
from bitfold.config import ModelConfig
from bitfold.errors import InvalidConfig, ShapeMismatch


def small_cfg(**kw):
    base = dict(d_model=32, d_pair=8, d_tri_update=8, d_tri_attn_head=4,
                heads=4, heads_tri=2, heads_seqstruct=4, k=4)
    return ModelConfig(**{**base, **kw})


def make_state(rng, length=6, k=4):
    seq = rng.integers(0, 20, size=length)
    bits = np.where(rng.random((length, k)) < 0.5, 1.0, -1.0)
    return dfn.TokenState.observed(seq, bits)


def seq_masked(state, position=0):
    """`state` with one sequence position masked, so the model computes
    the sequence rows and `seq_logits` through to the end."""
    state = state.copy()
    state.mask_seq[position] = True
    return state


def copy_shared_parameters(src, dst):
    """Copy every parameter whose name exists in both models."""
    src_params = src.parameters()
    for name, tensor in dst.parameters().items():
        if name in src_params and src_params[name].data.shape == tensor.data.shape:
            tensor.data[...] = src_params[name].data


# -- config validation --------------------------------------------------------

def test_triangle_requires_pair():
    with pytest.raises(InvalidConfig):
        small_cfg(triangle_update=True).validate()
    with pytest.raises(InvalidConfig):
        small_cfg(triangle_attention=True).validate()
    small_cfg(pair_bias=True, triangle_update=True).validate()


def test_bad_head_rejected():
    with pytest.raises(InvalidConfig):
        training.build_lm(small_cfg(head="nope"))


# -- reductions ---------------------------------------------------------------

def test_fresh_geo_model_equals_plain_forward():
    """Zero-initialized geometric sub-layers are exact no-ops, so a fresh
    full-featured model forward-matches the plain transformer with the
    same shared weights."""
    rng = np.random.default_rng(0)
    state = seq_masked(make_state(rng))
    plain = ga.ProteinLM(small_cfg(seed=3))
    geo_full = ga.ProteinLM(
        small_cfg(pair_bias=True, struct_transition=True, triangle_update=True,
                  triangle_attention=True, seqstruct_attention=True, seed=3)
    )
    copy_shared_parameters(plain, geo_full)
    with ad.no_grad():
        out_plain = plain.forward(state)
        out_geo = geo_full.forward(state)
    np.testing.assert_allclose(
        out_geo.struct_logits.data, out_plain.struct_logits.data, atol=1e-12
    )
    np.testing.assert_allclose(out_geo.seq_logits.data, out_plain.seq_logits.data, atol=1e-12)


def test_zero_pair_bias_reduces_to_vanilla_attention():
    rng = np.random.default_rng(1)
    attn = nn.MultiHeadAttention(rng, 16, 4, gated=True)
    bias_proj = ga.PairBias(8, 4)  # zero-initialized by construction
    x = Tensor(rng.normal(size=(5, 16)))
    pair = Tensor(rng.normal(size=(5, 5, 8)))
    with ad.no_grad():
        plain = attn(x)
        biased = attn(x, bias=bias_proj(pair))
    np.testing.assert_allclose(biased.data, plain.data, atol=1e-12)


def test_saturated_bias_concentrates_attention():
    rng = np.random.default_rng(2)
    length, d, h = 4, 8, 2
    attn = nn.MultiHeadAttention(rng, d, h)
    x = Tensor(rng.normal(size=(length, d)))
    bias = np.zeros((h, length, length))
    bias[:, :, 2] = 1e9
    with ad.no_grad():
        q, k = (ad.transpose(ad.reshape(y, (length, h, -1)), (1, 0, 2))
                for y in (attn.q(x), ad.matmul(x, attn.k)))
        logits = ad.matmul(q, ad.transpose(k, (0, 2, 1))) * (1.0 / np.sqrt(attn.d_head)) + Tensor(bias)
        weights = ad.softmax(logits, axis=-1).data
    assert np.all(weights[:, :, 2] > 1 - 1e-6)


# -- permutation equivariance --------------------------------------------------

def _perm_pair(pair, perm):
    return pair[perm][:, perm]


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("builder", [
    lambda rng: ga.TriangleUpdate(rng, 6, 5, "outgoing"),
    lambda rng: ga.TriangleUpdate(rng, 6, 5, "incoming"),
    lambda rng: ga.TriangleAttention(rng, 6, 3, 2, "starting"),
    lambda rng: ga.TriangleAttention(rng, 6, 3, 2, "ending"),
])
def test_pair_sublayer_permutation_equivariance(builder):
    rng = np.random.default_rng(3)
    layer = builder(rng)
    # break the zero init so the test sees real values
    out = layer.attn.out if isinstance(layer, ga.TriangleAttention) else layer.out
    out.w.data[:] = rng.normal(size=out.w.data.shape)
    pair = rng.normal(size=(5, 5, 6))
    perm = rng.permutation(5)
    with ad.no_grad():
        direct = layer(Tensor(_perm_pair(pair, perm))).data
        permuted = _perm_pair(layer(Tensor(pair)).data, perm)
    np.testing.assert_allclose(direct, permuted, atol=1e-10)


class ReferenceTriangleAttention:
    """Triangle attention as its own module, with its own projections, head
    split and gating; the reference for `ga.TriangleAttention`. Its heads
    are split by graph nodes and run as a leading axis of single-head
    attention."""

    def __init__(self, rng, d_pair, d_head, n_heads, mode):
        self.mode, self.n_heads, self.d_head = mode, n_heads, d_head
        d_inner = d_head * n_heads
        self.gamma = Tensor(np.ones(d_pair), requires_grad=True)
        self.beta = Tensor(np.zeros(d_pair), requires_grad=True)
        self.q = ad.Linear(rng, d_pair, d_inner)
        self.k = ad.param(rng, d_pair, d_inner)  # keys and logit bias carry no bias
        self.v = ad.Linear(rng, d_pair, d_inner)
        self.bias = ad.param(rng, d_pair, n_heads)
        self.gate = ad.Linear(rng, d_pair, d_inner)
        self.out = ad.Linear(rng, d_inner, d_pair, zero_init=True)

    def __call__(self, pair):
        pair_in = ad.transpose(pair, (1, 0, 2)) if self.mode == "ending" else pair
        length = pair_in.shape[0]
        z = ad.layernorm(pair_in, 1.0, 0.0) * self.gamma + self.beta

        def split(x):  # (L, L, H*dh) -> (L, H, L, dh)
            return ad.transpose(ad.reshape(x, (length, length, self.n_heads, self.d_head)), (0, 2, 1, 3))

        q, k, v = split(self.q(z)), split(ad.matmul(z, self.k)), split(self.v(z))
        bias = ad.reshape(ad.transpose(ad.matmul(z, self.bias), (2, 0, 1)),
                          (self.n_heads, 1, length, length))
        ctx = ad.attention(q, k, v, 1, 1.0 / np.sqrt(self.d_head), bias=bias)
        merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (length, length, -1))
        delta = self.out(merged * ad.sigmoid(self.gate(z)))
        return ad.transpose(delta, (1, 0, 2)) if self.mode == "ending" else delta

    def mapped_parameters(self):
        """(reference tensor, name of the same weight in `ga.TriangleAttention`)."""
        pairs = [(self.gamma, "norm.gamma"), (self.beta, "norm.beta"),
                 (self.k, "attn.k"), (self.bias, "bias")]
        for name in ("q", "v", "gate", "out"):
            layer = getattr(self, name)
            pairs += [(layer.w, f"attn.{name}.w"), (layer.b, f"attn.{name}.b")]
        return pairs


@pytest.mark.parametrize("mode", ["starting", "ending"])
@pytest.mark.parametrize("d_pair, d_head, n_heads", [(5, 3, 2), (16, 8, 2)])
def test_triangle_attention_matches_reference(mode, d_pair, d_head, n_heads):
    """Under mapped weights the module built on `nn.MultiHeadAttention`
    gives the reference's forward, input gradient and parameter gradients
    bit for bit, also where d_head * n_heads differs from d_pair."""
    rng = np.random.default_rng(13)
    ref = ReferenceTriangleAttention(rng, d_pair, d_head, n_heads, mode)
    new = ga.TriangleAttention(rng, d_pair, d_head, n_heads, mode)
    new_params = new.parameters()
    mapped = ref.mapped_parameters()
    assert sorted(name for _, name in mapped) == sorted(new_params)
    for tensor, name in mapped:
        tensor.data[...] = rng.normal(size=tensor.shape)
        new_params[name].data[...] = tensor.data
    pair = rng.normal(size=(5, 5, d_pair))
    weights = rng.normal(size=(5, 5, d_pair))
    results = []
    for layer in (ref, new):
        x = Tensor(pair.copy(), requires_grad=True)
        out = layer(x)
        (out * weights).sum().backward()
        results.append((out.data, x.grad))
    (out_ref, gx_ref), (out_new, gx_new) = results
    np.testing.assert_array_equal(out_new, out_ref)
    np.testing.assert_array_equal(gx_new, gx_ref)
    for tensor, name in mapped:
        np.testing.assert_array_equal(new_params[name].grad, tensor.grad, err_msg=name)


def test_init_pair_permutation_equivariance():
    rng = np.random.default_rng(4)
    pair_init = ga.PairInit(rng, 8, 6)
    h = rng.normal(size=(5, 8))
    perm = rng.permutation(5)
    with ad.no_grad():
        direct = pair_init(Tensor(h[perm])).data
        permuted = _perm_pair(pair_init(Tensor(h)).data, perm)
    np.testing.assert_allclose(direct, permuted, atol=1e-10)


def test_init_pair_constant_input_gives_constant_pair():
    rng = np.random.default_rng(5)
    pair_init = ga.PairInit(rng, 8, 6)
    h = np.tile(rng.normal(size=(1, 8)), (4, 1))
    with ad.no_grad():
        pair = pair_init(Tensor(h)).data
    np.testing.assert_allclose(pair, np.broadcast_to(pair[0, 0], pair.shape), atol=1e-12)


def test_init_pair_single_residue():
    rng = np.random.default_rng(6)
    pair_init = ga.PairInit(rng, 8, 6)
    with ad.no_grad():
        assert pair_init(Tensor(rng.normal(size=(1, 8)))).shape == (1, 1, 6)


def _gather_concat_pair_init(pair_init, h):
    """`PairInit` as first written: gather rows and columns of h into an
    (L^2, 2 d_model) array and run the whole MLP on it."""
    length = h.shape[0]
    rows = h[np.repeat(np.arange(length), length)]
    cols = h[np.tile(np.arange(length), length)]
    return ad.reshape(pair_init.mlp(ad.concat([rows, cols], axis=1)), (length, length, -1))


@pytest.mark.usefixtures("float64")
def test_init_pair_matches_gather_concat_reference():
    """The split first layer is exact algebra: forward and every gradient
    agree with the gather-concat form to rounding, under the same names."""
    rng = np.random.default_rng(8)
    pair_init = ga.PairInit(rng, 8, 6)
    params = pair_init.parameters()
    assert sorted(params) == [f"mlp.layers.{i}.{p}" for i in range(3) for p in "bw"]
    for tensor in params.values():
        tensor.data[...] = rng.normal(size=tensor.shape)
    h_data, weights = rng.normal(size=(5, 8)), rng.normal(size=(5, 5, 6))
    results = []
    for layer in (pair_init, lambda h: _gather_concat_pair_init(pair_init, h)):
        pair_init.zero_grad()
        h = Tensor(h_data.copy(), requires_grad=True)
        out = layer(h)
        (out * Tensor(weights)).sum().backward()
        results.append((out.data, h.grad, {name: t.grad.copy() for name, t in params.items()}))
    (out_new, gh_new, grads_new), (out_ref, gh_ref, grads_ref) = results
    np.testing.assert_allclose(out_new, out_ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(gh_new, gh_ref, atol=1e-12, rtol=0)
    for name in params:
        np.testing.assert_allclose(grads_new[name], grads_ref[name], atol=1e-12, rtol=0,
                                   err_msg=name)


def _zero_concat_block(block, update, h, pair, positions):
    """An `EncoderBlock` and the `PairUpdate` after it as first written, one
    block building its own relative-position bias and placing the pair bias
    and the structure-track transition by concatenating zero tensors."""
    cfg = block.cfg
    length = len(positions)
    bias = block.rel(np.concatenate([positions, positions]))
    pb = block.pair_bias(pair)
    zeros_r = Tensor(np.zeros((cfg.heads, length, length)))
    zeros_b = Tensor(np.zeros((cfg.heads, length, 2 * length)))
    bias = bias + ad.concat([ad.concat([pb, zeros_r], axis=2), zeros_b], axis=1)
    h = h + block.attn(block.attn_norm(h), bias=bias)
    d_seq, d_struct = block.seqstruct(h[length:], h[:length], pair)
    h = h + ad.concat([d_struct, d_seq], axis=0)
    delta = block.struct_trans(h[:length])
    h = h + ad.concat([delta, Tensor(np.zeros((length, cfg.d_model)))], axis=0)
    h = h + block.transition(h)
    pair = pair + update.tri_out(pair)
    pair = pair + update.tri_in(pair)
    pair = pair + update.tri_start(pair)
    pair = pair + update.tri_end(pair)
    pair = pair + update.pair_transition(pair)
    return h, pair


def test_full_geo_block_matches_zero_concat_reference():
    """Zero padding gives the zero-concat forward and gradients bit for bit."""
    rng = np.random.default_rng(9)
    cfg = small_cfg(pair_bias=True, struct_transition=True, triangle_update=True,
                    triangle_attention=True, seqstruct_attention=True)
    block, update = ga.EncoderBlock(rng, cfg), ga.PairUpdate(rng, cfg)
    params = {**block.parameters(prefix="block."), **update.parameters(prefix="update.")}
    for tensor in params.values():  # no zero-initialized projection hides a term
        tensor.data[...] = rng.normal(scale=0.3, size=tensor.shape)
    length = 5
    positions = np.arange(length)
    h_data = rng.normal(size=(2 * length, cfg.d_model))
    pair_data = rng.normal(size=(length, length, cfg.d_pair))
    w_h, w_pair = rng.normal(size=h_data.shape), rng.normal(size=pair_data.shape)
    results = []

    def split(h, pair, pos):
        rel_bias = block.rel(np.concatenate([pos, pos]))
        return block(h, pair, rel_bias), update(pair)

    for layer in (split, lambda h, pair, pos: _zero_concat_block(block, update, h, pair, pos)):
        block.zero_grad()
        update.zero_grad()
        h, pair = Tensor(h_data.copy(), requires_grad=True), Tensor(pair_data.copy(), requires_grad=True)
        h_out, pair_out = layer(h, pair, positions)
        ((h_out * Tensor(w_h)).sum() + (pair_out * Tensor(w_pair)).sum()).backward()
        grads = [h.grad, pair.grad] + [params[name].grad for name in sorted(params)]
        assert all(g is not None for g in grads)
        results.append([h_out.data, pair_out.data] + grads)
    for name, got, want in zip(["h", "pair", "h.grad", "pair.grad"] + sorted(params), *results):
        np.testing.assert_array_equal(got, want, err_msg=name)


class _PairUpdatedToo:
    """Stands in for the last block and runs a pair update after its
    residue part: the update that `ProteinLM` does not build."""

    def __init__(self, block, update):
        self.block, self.update = block, update
        self.rel = block.rel  # read by `ProteinLM.positional`

    def __call__(self, h, pair, rel_bias, struct_only=False):
        out = self.block(h, pair, rel_bias, struct_only)
        self.update(pair)
        return out


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_last_block_leaves_pair_alone(monkeypatch, n_blocks):
    """The LM builds a pair update between blocks only: one after the last
    block would move no output and no gradient."""
    calls = {"TriangleUpdate": 0, "TriangleAttention": 0}
    for name in calls:
        def counted(self, pair, _call=getattr(ga, name).__call__, _name=name):
            calls[_name] += 1
            return _call(self, pair)

        monkeypatch.setattr(getattr(ga, name), "__call__", counted)
    cfg = small_cfg(pair_bias=True, struct_transition=True, triangle_update=True,
                    triangle_attention=True, seqstruct_attention=True, n_blocks=n_blocks)
    lm = ga.ProteinLM(cfg)
    assert len(lm.pair_updates) == n_blocks - 1
    extra = ga.PairUpdate(np.random.default_rng(0), cfg)
    rng = np.random.default_rng(n_blocks)
    params = lm.parameters()
    for tensor in [*params.values(), *extra.parameters().values()]:
        tensor.data[...] = rng.normal(scale=0.3, size=tensor.shape)  # no zero init hides a term
    state = seq_masked(make_state(rng))
    last = lm.blocks[-1]
    results = []
    for reference in (False, True):
        lm.zero_grad()
        extra.zero_grad()
        calls.update(dict.fromkeys(calls, 0))
        lm.blocks[-1] = _PairUpdatedToo(last, extra) if reference else last
        out = lm.forward(state)
        lm.blocks[-1] = last
        assert calls == dict.fromkeys(calls, 2 * (n_blocks - 1 + reference))
        outputs = [out.seq_logits, out.struct_logits, *out.hidden_layers]
        weights = np.random.default_rng(0)
        sum((t * Tensor(weights.normal(size=t.shape))).sum() for t in outputs).backward()
        # backward reruns each triangle update the outputs read, once
        assert calls == {"TriangleUpdate": 2 * (2 * (n_blocks - 1) + reference),
                         "TriangleAttention": 2 * (n_blocks - 1 + reference)}
        assert all(t.grad is None for t in extra.parameters().values())
        results.append([t.data for t in outputs] + [params[name].grad for name in sorted(params)])
    labels = ["seq_logits", "struct_logits"] + [f"hidden_layers[{i}]" for i in range(n_blocks)]
    for name, got, want in zip(labels + sorted(params), *results):
        if want is None:
            assert got is None, name
        else:
            np.testing.assert_array_equal(got, want, err_msg=name)


class _FullPathSliced:
    """Stands in for the last block: runs its full 2L-row path and keeps
    the first L rows where the block is asked for the structure rows only."""

    def __init__(self, block):
        self.block = block
        self.rel = block.rel  # read by `ProteinLM.positional`

    def __call__(self, h, pair, rel_bias, struct_only=False):
        out = self.block(h, pair, rel_bias)
        return out[:h.shape[0] // 2] if struct_only else out


STRUCT_ONLY_CONFIGS = {
    "plain": {},
    "pair-bias": dict(pair_bias=True),
    "full-geo": dict(pair_bias=True, struct_transition=True, triangle_update=True,
                     triangle_attention=True, seqstruct_attention=True),
}


def _struct_only_lm(flags, n_blocks):
    lm = ga.ProteinLM(small_cfg(**flags, n_blocks=n_blocks, seed=n_blocks))
    rng = np.random.default_rng(n_blocks)
    for tensor in lm.parameters().values():  # no zero-initialized projection hides a term
        tensor.data[...] = rng.normal(scale=0.3, size=tensor.shape)
    state = make_state(rng, length=7)
    state.mask_struct[[1, 4]] = True
    return lm, state


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
@pytest.mark.parametrize("config", sorted(STRUCT_ONLY_CONFIGS))
def test_last_block_drops_unread_sequence_rows(monkeypatch, config, n_blocks):
    """With no sequence position masked the last block works on the L
    structure rows, and the outputs equal its full path's bit for bit."""
    lm, state = _struct_only_lm(STRUCT_ONLY_CONFIGS[config], n_blocks)
    length = len(state)
    rows_seen = []
    transition_call = nn.Transition.__call__

    def counted(self, x):
        rows_seen.append(x.shape[0])
        return transition_call(self, x)

    monkeypatch.setattr(nn.Transition, "__call__", counted)
    last = lm.blocks[-1]
    outputs = []
    for reference in (False, True):
        lm.blocks[-1] = _FullPathSliced(last) if reference else last
        rows_seen.clear()
        with ad.no_grad():
            out = lm.forward(state)
        lm.blocks[-1] = last
        assert out.seq_logits is None
        outputs.append([out.struct_logits, *out.hidden_layers])
    assert rows_seen[-1] == 2 * length  # the reference's last transition
    labels = ["struct_logits"] + [f"hidden_layers[{i}]" for i in range(n_blocks)]
    for name, got, want in zip(labels, *outputs):
        np.testing.assert_array_equal(got.data, want.data, err_msg=name)
    with ad.no_grad():
        lm.forward(state)
        assert rows_seen[-1] == length
        masked = lm.forward(seq_masked(state, 3))
    assert rows_seen[-1] == 2 * length
    assert masked.seq_logits.shape == (length, 20)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("config", sorted(STRUCT_ONLY_CONFIGS))
def test_struct_only_step_gradients_match_full_path(config):
    """A struct-only training step's gradients do not depend on whether the
    last block also carried the sequence rows, up to summation order."""
    lm, x0 = _struct_only_lm(STRUCT_ONLY_CONFIGS[config], 2)
    xt = x0.copy()
    x0.mask_struct[:] = False
    params = lm.parameters()
    last = lm.blocks[-1]
    grads = []
    for reference in (False, True):
        lm.zero_grad()
        lm.blocks[-1] = _FullPathSliced(last) if reference else last
        out = lm.forward(xt)
        lm.blocks[-1] = last
        dfn.loss_bit(out, x0, xt, 3, lm.schedule).backward()
        grads.append({name: t.grad for name, t in params.items()})
    got, want = grads
    assert sum(g is not None for g in want.values()) > len(params) // 2
    scale = max(np.abs(g).max() for g in want.values() if g is not None)
    for name in sorted(params):
        if want[name] is None:
            assert got[name] is None, name
        else:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, atol=1e-17 * scale,
                                       err_msg=name)


def _lm_step_loss(config, n_blocks):
    """A step that masks both tracks: bit CE plus sequence CE."""
    lm, xt = _struct_only_lm(STRUCT_ONLY_CONFIGS[config], n_blocks)
    xt = seq_masked(xt, 2)
    x0 = xt.copy()
    x0.mask_seq[:] = x0.mask_struct[:] = False
    return lm.parameters(), dfn.loss_bit(lm.forward(xt), x0, xt, 3, lm.schedule)


def _tokenizer_step_loss():
    params = tok.TokenizerParams(tok.TokenizerConfig(), seed=0)
    rng = np.random.default_rng(0)
    for tensor in params.parameters().values():  # no zero-initialized projection hides a term
        tensor.data[...] = rng.normal(scale=0.3, size=tensor.shape)
    structure, _ = geo.synth_backbone(geo.SynthSpec(length=10), seed=0)
    return params.parameters(), tok.tokenizer_loss(params, structure,
                                                   tok.invariant_features(structure))


@pytest.mark.parametrize("config, n_blocks", [
    *((config, n) for config in sorted(STRUCT_ONLY_CONFIGS) for n in (1, 2, 3)),
    ("tokenizer", None),
])
def test_every_parameter_is_trained(config, n_blocks):
    """Every parameter gets a gradient above rounding noise from one
    training step, so none is built that no step trains."""
    if config == "tokenizer":
        params, loss = _tokenizer_step_loss()
    else:
        params, loss = _lm_step_loss(config, n_blocks)
    loss.backward()
    peak = {name: 0.0 if t.grad is None else np.abs(t.grad).max() for name, t in params.items()}
    scale = max(peak.values())
    assert [name for name, g in peak.items() if g <= 1e-9 * scale] == []


def test_seqstruct_shapes_preserved():
    rng = np.random.default_rng(7)
    ss = ga.SeqStructAttention(rng, 12, 6, 2)
    h_seq = Tensor(rng.normal(size=(5, 12)))
    h_struct = Tensor(rng.normal(size=(5, 12)))
    pair = Tensor(rng.normal(size=(5, 5, 6)))
    with ad.no_grad():
        d_seq, d_struct = ss(h_seq, h_struct, pair)
    assert d_seq.shape == (5, 12) and d_struct.shape == (5, 12)


def test_triangle_update_zero_values_zero_delta():
    rng = np.random.default_rng(8)
    up = ga.TriangleUpdate(rng, 6, 5, "outgoing")
    up.val_a.w.data[:] = 0.0
    up.val_a.b.data[:] = 0.0
    up.val_b.w.data[:] = 0.0
    up.val_b.b.data[:] = 0.0
    up.out.w.data[:] = rng.normal(size=up.out.w.data.shape)
    up.out.b.data[:] = 0.0
    with ad.no_grad():
        delta = up(Tensor(rng.normal(size=(4, 4, 6)))).data
    # layernorm of the all-zero mix is zero, so the whole delta vanishes
    np.testing.assert_allclose(delta, 0.0, atol=1e-12)


# -- model-level properties ----------------------------------------------------

# sha256 over the name, shape and bytes of each parameter of `build_lm` at
# seed 7 in float64, in build order: any change to the init draws or their
# order shows.
LM_DIGESTS = {
    "plain": "826c3d94f7319865a55bfc0d7a5db8dfb9feebd33016fd756213e4f4d3ee3bde",
    "full-geo": "cb64e9b47c3156382ef2e335972a268cf588619854f71d30fcfc48b4d71893ff",
    "index": "0587af3882cb98420405e53d0d2701f41bc5f7ad43a261d008b2559a52a7e594",
}


@pytest.mark.parametrize("config", sorted(LM_DIGESTS))
def test_built_lm_parameters_are_pinned(config):
    """The float32 build draws the pinned float64 values and rounds them."""
    flags = {**STRUCT_ONLY_CONFIGS, "index": {"head": "index"}}[config]
    with ad.precision(np.float64):
        wide = training.build_lm(ModelConfig(seed=7, **flags)).parameters()
    digest = hashlib.sha256()
    for name, tensor in wide.items():
        digest.update(name.encode())
        digest.update(str(tensor.shape).encode())
        digest.update(tensor.data.tobytes())
    assert digest.hexdigest() == LM_DIGESTS[config]
    narrow = training.build_lm(ModelConfig(seed=7, **flags)).parameters()
    assert list(narrow) == list(wide)
    for name, tensor in narrow.items():
        assert tensor.data.dtype == np.float32, name
        np.testing.assert_array_equal(tensor.data, wide[name].data.astype(np.float32), err_msg=name)


def test_parameter_count_ordering():
    plain = ga.ProteinLM(small_cfg())
    base = ga.ProteinLM(small_cfg(pair_bias=True))
    st = ga.ProteinLM(small_cfg(pair_bias=True, struct_transition=True))
    assert base.parameter_count() > plain.parameter_count()
    assert st.parameter_count() > base.parameter_count()


def test_heads_and_hidden_layers():
    rng = np.random.default_rng(9)
    state = seq_masked(make_state(rng, length=5, k=4))
    for head, layout in (("bit", (4, 2)), ("index", (1, 16))):
        model = ga.ProteinLM(small_cfg(head=head))
        with ad.no_grad():
            out = model.forward(state)
        assert out.struct_logits.shape == (5, *layout)
        assert out.seq_logits.shape == (5, 20)
        assert len(out.hidden_layers) == 2
        assert out.hidden_layers[0].shape == (5, 32)


def test_forward_respects_struct_mask():
    """Masked structure rows must not leak their bits into the output."""
    rng = np.random.default_rng(10)
    state = make_state(rng, length=5, k=4)
    state.mask_struct[2] = True
    altered = state.copy()
    altered.struct_bits[2] = -altered.struct_bits[2]
    model = ga.ProteinLM(small_cfg(n_blocks=1, seed=1))
    with ad.no_grad():
        a = model.forward(state).struct_logits.data
        b = model.forward(altered).struct_logits.data
    np.testing.assert_array_equal(a, b)


def test_rel_pos_bias_shift_invariance():
    """The bias reads only index differences, so shifted positions give it
    bit for bit; the trunk's absolute positions come from the sinusoids."""
    rel = nn.RelPosBias(np.random.default_rng(11), 2)
    base = np.arange(6)
    joint = np.concatenate([base, base])  # the trunk's 2L tokens share residue indices
    with ad.no_grad():
        rel_a, rel_b = (rel(joint + shift).data for shift in (0, 7))
    np.testing.assert_array_equal(rel_a, rel_b)


class _RebuildEachStep:
    """Hands `generate` no positional record: each forward is
    `lm.forward(state)`, which builds its own."""

    def __init__(self, lm):
        self.lm, self.k, self.schedule = lm, lm.k, lm.schedule

    def positional(self, length):
        return None

    def forward(self, state, positional=None):
        return self.lm.forward(state)


@pytest.mark.parametrize("mode", ["folding", "unconditional"])
@pytest.mark.parametrize("config", ["plain", "full-geo"])
def test_generate_builds_positional_terms_once(monkeypatch, config, mode):
    """`generate` builds the relative-position biases once per call, one
    per block, and samples the same states bit for bit as when every step
    builds them again."""
    calls = []
    rel_call = nn.RelPosBias.__call__

    def counted(self, positions):
        calls.append(self)
        return rel_call(self, positions)

    monkeypatch.setattr(nn.RelPosBias, "__call__", counted)
    lm, state = _struct_only_lm(STRUCT_ONLY_CONFIGS[config], 2)
    length = len(state)
    states = []
    for model in (lm, _RebuildEachStep(lm)):
        calls.clear()
        states.append(dfn.generate(model, length, mode=mode, steps=4, strategy="confidence",
                                   rng=np.random.default_rng(7), seq=state.seq))
        want_calls = 1 if model is lm else 4  # the reference: once per step
        assert calls == [block.rel for block in lm.blocks] * want_calls
    got, want = states
    np.testing.assert_array_equal(got.struct_bits, want.struct_bits)
    np.testing.assert_array_equal(got.seq, want.seq)


def test_forward_rejects_positional_of_other_length():
    lm = ga.ProteinLM(small_cfg(n_blocks=1))
    state = make_state(np.random.default_rng(14), length=5)
    with ad.no_grad():
        positional = lm.positional(6)
        with pytest.raises(ShapeMismatch, match="length 6 for a state of length 5"):
            lm.forward(state, positional=positional)


# The timing body of the scaling test. It runs in a fresh interpreter: once
# an array of a few MB has been freed in a process, glibc raises its mmap
# threshold, the L=64 case skips its page faults and runs about 35% faster,
# and the ratio would measure the heap state left by the tests before it.
SCALING_CHILD = """\
import json, time
import numpy as np
import bitfold.autodiff as ad
from bitfold import geo_arch as ga
from bitfold.autodiff import Tensor

rng = np.random.default_rng(12)
# Each length's time is the minimum over 5 repeats of 3 calls. The repeats
# of the two lengths alternate, so a spell of load from elsewhere on the
# machine slows both and does not skew the ratio.
cases = [(ga.TriangleUpdate(rng, 8, 8, "outgoing"), Tensor(rng.normal(size=(length, length, 8))))
         for length in (32, 64)]
best = [float("inf")] * len(cases)
with ad.no_grad():
    for up, pair in cases:
        up(pair)
    for _ in range(5):
        for i, (up, pair) in enumerate(cases):
            t0 = time.perf_counter()
            for _ in range(3):
                up(pair)
            best[i] = min(best[i], (time.perf_counter() - t0) / 3)
print(json.dumps(best))
"""


def test_triangle_cubic_vs_quadratic_scaling():
    """Triangle ops are cubic in L; pair-bias attention quadratic. Doubling
    L should scale their runtimes by ~8 and ~4 respectively."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(bitfold.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCALING_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    t32, t64 = json.loads(proc.stdout.splitlines()[-1])
    ratio = t64 / t32
    assert ratio > 3.0  # superquadratic growth; exact 8x is machine-dependent
