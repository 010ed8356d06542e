"""Geometry-aware architecture: reductions, equivariance, configs, scaling."""

import time

import numpy as np
import pytest

import bitfold.autodiff as ad
from bitfold import diffusion as dfn
from bitfold import geo_arch as ga
from bitfold import nn
from bitfold.autodiff import Tensor
from bitfold.errors import InvalidConfig


def small_cfg(**flags):
    return ga.BlockConfig(
        d_model=32, d_pair=8, d_tri_update=8, d_tri_attn_head=4,
        heads=4, heads_tri=2, heads_seqstruct=4, **flags,
    )


def make_state(rng, length=6, k=4):
    seq = rng.integers(0, 20, size=length)
    bits = np.where(rng.random((length, k)) < 0.5, 1.0, -1.0)
    return dfn.TokenState.observed(seq, bits)


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
        ga.assemble_model(small_cfg(), 1, head="nope")


# -- reductions ---------------------------------------------------------------

def test_fresh_geo_model_equals_plain_forward():
    """Zero-initialized geometric sub-layers are exact no-ops, so a fresh
    full-featured model forward-matches the plain transformer with the
    same shared weights."""
    rng = np.random.default_rng(0)
    state = make_state(rng)
    plain = ga.assemble_model(small_cfg(), 2, k=4, seed=3)
    geo_full = ga.assemble_model(
        small_cfg(pair_bias=True, struct_transition=True, triangle_update=True,
                  triangle_attention=True, seqstruct_attention=True),
        2, k=4, seed=3,
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
    bias_proj = ga.PairBias(rng, 8, 4)  # zero-initialized by construction
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
        q = attn._split(attn.q(x), length)
        k = attn._split(attn.k(x), length)
        logits = ad.matmul(q, ad.transpose(k, (0, 2, 1))) * (1.0 / np.sqrt(attn.d_head)) + Tensor(bias)
        weights = ad.softmax(logits, axis=-1).data
    assert np.all(weights[:, :, 2] > 1 - 1e-6)


# -- permutation equivariance --------------------------------------------------

def _perm_pair(pair, perm):
    return pair[perm][:, perm]


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
    layer.out.w.data[:] = rng.normal(size=layer.out.w.data.shape)
    pair = rng.normal(size=(5, 5, 6))
    perm = rng.permutation(5)
    with ad.no_grad():
        direct = layer(Tensor(_perm_pair(pair, perm))).data
        permuted = _perm_pair(layer(Tensor(pair)).data, perm)
    np.testing.assert_allclose(direct, permuted, atol=1e-10)


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

def test_parameter_count_ordering():
    plain = ga.assemble_model(small_cfg(), 2, k=4, seed=0)
    base = ga.assemble_model(small_cfg(pair_bias=True), 2, k=4, seed=0)
    st = ga.assemble_model(small_cfg(pair_bias=True, struct_transition=True), 2, k=4, seed=0)
    assert base.parameter_count() > plain.parameter_count()
    assert st.parameter_count() > base.parameter_count()


def test_heads_and_hidden_layers():
    rng = np.random.default_rng(9)
    state = make_state(rng, length=5, k=4)
    for head, width in (("bit", 8), ("index", 16)):
        model = ga.assemble_model(small_cfg(), 2, k=4, head=head, seed=0)
        with ad.no_grad():
            out = model.forward(state)
        assert out.struct_logits.shape == (5, width)
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
    model = ga.assemble_model(small_cfg(), 1, k=4, seed=1)
    with ad.no_grad():
        a = model.forward(state).struct_logits.data
        b = model.forward(altered).struct_logits.data
    np.testing.assert_array_equal(a, b)


def test_position_indices_shift_invariance():
    rng = np.random.default_rng(11)
    state = make_state(rng, length=6, k=4)
    model = ga.assemble_model(small_cfg(), 1, k=4, seed=2)
    base = np.arange(6)
    with ad.no_grad():
        a = model.forward(state, position_indices=base).seq_logits.data
        b = model.forward(state, position_indices=base + 7).seq_logits.data
    # relative attention bias is shift invariant, absolute sinusoids are not
    rel = nn.RelPosBias(rng, 2)
    np.testing.assert_array_equal(rel._diff(base), rel._diff(base + 7))
    del a, b


def test_triangle_cubic_vs_quadratic_scaling():
    """Triangle ops are cubic in L; pair-bias attention quadratic. Doubling
    L should scale their runtimes by ~8 and ~4 respectively."""
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
    t32, t64 = best
    ratio = t64 / t32
    assert ratio > 3.0  # superquadratic growth; exact 8x is machine-dependent
