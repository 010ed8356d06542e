"""Tokenizer: invariant features, LFQ, bit/index codec, reconstruction
loss, short training runs."""

import numpy as np
import pytest

import bitfold.autodiff as ad
from bitfold import geometry as geo
from bitfold import tokenizer as tok
from bitfold.autodiff import Tensor
from bitfold.errors import IndexOutOfRange, ShapeMismatch


def make_structure(seed=0, length=16):
    s, _ = geo.synth_backbone(geo.SynthSpec(length=length), seed=seed)
    return s


def test_mask_id():
    assert tok.mask_id(8) == 256
    assert tok.mask_id(4) == 16


def test_bits_to_index_lsb_convention():
    # bit k=1 is the least significant bit
    assert tok.bits_to_index(np.array([[1.0, -1.0, -1.0]]))[0, 0] == 1
    assert tok.bits_to_index(np.array([[-1.0, 1.0, -1.0]]))[0, 0] == 2
    assert tok.bits_to_index(np.array([[1.0, 1.0, 1.0]]))[0, 0] == 7
    # each group of K/G bits is one code, its first bit the LSB
    np.testing.assert_array_equal(
        tok.bits_to_index(np.array([[1.0, -1.0, -1.0, 1.0]]), 2), [[1, 2]])


@pytest.mark.parametrize("k", [4, 8, 12])
def test_codec_bijection_exhaustive(k):
    indices = np.arange(2**k)[:, None]
    bits = tok.index_to_bits(indices, k)
    assert bits.shape == (2**k, k)
    np.testing.assert_array_equal(tok.bits_to_index(bits), indices)
    for groups in (2, k):  # the same bits, read in groups
        codes = tok.bits_to_index(bits, groups)
        assert codes.shape == (2**k, groups) and codes.max() == 2 ** (k // groups) - 1
        np.testing.assert_array_equal(tok.index_to_bits(codes, k), bits)
    np.testing.assert_array_equal(tok.bits_to_index(bits, k), bits > 0)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        tok.index_to_bits(np.array([[16]]), 4)
    with pytest.raises(IndexOutOfRange):
        tok.index_to_bits(np.array([[-1]]), 4)
    with pytest.raises(IndexOutOfRange):
        tok.index_to_bits(np.array([[3, 4]]), 4)


def test_invariant_features_rigid_invariance():
    rng = np.random.default_rng(0)
    s = make_structure(0)
    moved = s.transformed(geo.random_rotation(rng), rng.normal(size=3) * 30)
    np.testing.assert_allclose(
        tok.invariant_features(moved), tok.invariant_features(s), atol=1e-9
    )


# The autodiff dihedrals that `invariant_features` used before its numpy form.

def _cross3(a, b):
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    cols = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    return ad.concat([ad.reshape(c, (-1, 1)) for c in cols], axis=1)


def _dihedral_sincos(p0, p1, p2, p3, eps=1e-8):
    b0, b1, b2 = p1 - p0, p2 - p1, p3 - p2
    n1, n2 = _cross3(b0, b1), _cross3(b1, b2)
    b1n = b1 * ad.reshape(1.0 / ad.sqrt((b1 * b1).sum(axis=1) + eps), (-1, 1))
    m1 = _cross3(n1, b1n)
    x = (n1 * n2).sum(axis=1)
    y = (m1 * n2).sum(axis=1)
    r = ad.sqrt(x * x + y * y + eps)
    return y / r, x / r


def _autodiff_backbone_dihedrals(coords, chain_ids):
    coords = Tensor(coords)
    length = coords.shape[0]
    prev_ok = np.zeros(length, dtype=bool)
    next_ok = np.zeros(length, dtype=bool)
    prev_ok[1:] = chain_ids[1:] == chain_ids[:-1]
    next_ok[:-1] = chain_ids[:-1] == chain_ids[1:]
    idx = np.arange(length)
    ip = np.where(prev_ok, idx - 1, idx)
    inx = np.where(next_ok, idx + 1, idx)
    n_at, ca_at, c_at = coords[:, 0, :], coords[:, 1, :], coords[:, 2, :]
    c_prev, n_next, ca_next = coords[ip, 2, :], coords[inx, 0, :], coords[inx, 1, :]
    phi_s, phi_c = _dihedral_sincos(c_prev, n_at, ca_at, c_at)
    psi_s, psi_c = _dihedral_sincos(n_at, ca_at, c_at, n_next)
    omg_s, omg_c = _dihedral_sincos(ca_at, c_at, n_next, ca_next)
    phi_mask = prev_ok.astype(np.float64)
    nxt_mask = next_ok.astype(np.float64)
    cols = [phi_s * phi_mask, phi_c * phi_mask, psi_s * nxt_mask, psi_c * nxt_mask,
            omg_s * nxt_mask, omg_c * nxt_mask]
    return ad.concat([ad.reshape(c, (-1, 1)) for c in cols], axis=1).data


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("chains", [1, 2])
def test_dihedral_features_match_autodiff_reference(chains):
    for seed in range(4):
        length = 20 + seed
        # a loaded file may hold several chains: join single-chain backbones
        parts = [make_structure(seed + 100 * c, length=length) for c in range(chains)]
        s = geo.BackboneStructure(np.concatenate([p.coords for p in parts]),
                                  np.repeat(np.arange(chains), length))
        assert len(set(s.chain_ids)) == chains
        np.testing.assert_array_equal(
            tok.invariant_features(s)[:, 8:14], _autodiff_backbone_dihedrals(s.coords, s.chain_ids)
        )


def test_encoder_tokens_rigid_invariant():
    rng = np.random.default_rng(1)
    s = make_structure(1)
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=32, blocks=1), seed=0)
    moved = s.transformed(geo.random_rotation(rng), rng.normal(size=3) * 30)
    with ad.no_grad():
        z_a = tok.encode(s, params).data
        z_b = tok.encode(moved, params).data
    np.testing.assert_allclose(z_a, z_b, atol=1e-9)


# -- the frozen interface ------------------------------------------------------

def test_tokenize_takes_sign_zero_as_plus_one():
    """A zeroed encoder head gives z = 0 everywhere, and every bit is +1."""
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=16, blocks=1), seed=0)
    params.encoder.head.w.data[...] = 0.0
    params.encoder.head.b.data[...] = 0.0
    tokens = tok.tokenize(make_structure(7), params)
    assert not tokens.z.any()
    np.testing.assert_array_equal(tokens.bits, np.ones(tokens.z.shape))


def test_tokenize_is_one_encoder_pass():
    """z and hidden are those of one direct encoder pass, and the bits are
    the ones `lfq_quantize` trains with."""
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=16, blocks=1), seed=0)
    s = make_structure(8)
    tokens = tok.tokenize(s, params)
    z, hidden = params.encoder(tok.invariant_features(s))
    np.testing.assert_array_equal(tokens.z, z.data)
    np.testing.assert_array_equal(tokens.hidden, hidden.data)
    np.testing.assert_array_equal(tokens.bits, tok.lfq_quantize(z)[0].data)


def test_decode_builds_no_graph_from_arrays_or_tensors():
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=16, blocks=1), seed=0)
    bits = tok.index_to_bits(np.arange(6)[:, None] % 16, 4)
    from_array = tok.decode(bits, params)
    from_tensor = tok.decode(Tensor(bits), params)
    assert from_array._node is None and not from_array.requires_grad
    np.testing.assert_array_equal(from_array.data, from_tensor.data)


def test_lfq_sign_and_zero_convention():
    z = Tensor(np.array([[0.3, -0.7, 0.0]]))
    bits, _ = tok.lfq_quantize(z)
    np.testing.assert_array_equal(bits.data, [[1.0, -1.0, 1.0]])  # sign(0) = +1


def test_lfq_commitment_zero_at_unit_codes():
    z = Tensor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    _, losses = tok.lfq_quantize(z)
    assert losses["commitment"].item() == 0.0


def test_lfq_commitment_value():
    z = Tensor(np.array([[0.5, -0.5]]))
    _, losses = tok.lfq_quantize(z)
    assert losses["commitment"].item() == pytest.approx(0.25)


def test_lfq_entropy_prefers_balanced_bits():
    balanced = Tensor(np.array([[2.0], [-2.0]]))
    collapsed = Tensor(np.array([[2.0], [2.0]]))
    _, l_bal = tok.lfq_quantize(balanced)
    _, l_col = tok.lfq_quantize(collapsed)
    assert l_bal["entropy"].item() < l_col["entropy"].item()


def test_lfq_straight_through_gradient():
    z = Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
    bits, _ = tok.lfq_quantize(z)
    (bits * np.array([[2.0, 3.0]])).sum().backward()
    np.testing.assert_array_equal(z.grad, [[2.0, 3.0]])  # identity surrogate


@pytest.mark.usefixtures("float64")
def test_decode_centered_on_ca_centroid():
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=32, blocks=1), seed=0)
    bits = tok.index_to_bits(np.arange(6)[:, None] % 16, 4)
    with ad.no_grad():
        coords = tok.decode(Tensor(bits), params).data
    np.testing.assert_allclose(coords[:, 1, :].mean(axis=0), 0.0, atol=1e-9)


def test_decode_rejects_positional_terms_of_another_length():
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=32, blocks=1), seed=0)
    bits = Tensor(tok.index_to_bits(np.arange(6)[:, None] % 16, 4))
    with ad.no_grad(), pytest.raises(ShapeMismatch):
        tok.decode(bits, params, params.decoder.positional(5))


@pytest.mark.usefixtures("float64")
def test_reconstruction_loss_zero_on_rigid_copy():
    rng = np.random.default_rng(2)
    s = make_structure(2)
    moved = s.transformed(geo.random_rotation(rng), rng.normal(size=3) * 10)
    loss = tok.reconstruction_loss(Tensor(moved.coords), s)
    assert loss.item() < 1e-18


def test_reconstruction_loss_penalizes_mirror():
    s = make_structure(3, length=20)
    mirror = geo.BackboneStructure(s.coords * np.array([1.0, 1.0, -1.0]), s.chain_ids)
    loss_mirror = tok.reconstruction_loss(Tensor(mirror.coords), s)
    loss_self = tok.reconstruction_loss(Tensor(s.coords), s)
    assert loss_mirror.item() > loss_self.item() + 1.0


def test_short_training_reduces_loss():
    s = make_structure(4, length=12)
    cfg = tok.TokenizerConfig(k=4, width=32, blocks=1)
    params, report = tok.train_tokenizer([s], cfg, seed=0, steps=120)
    del params
    # untrained params for comparison
    fresh = tok.TokenizerParams(cfg, seed=0)
    fresh_report = tok.reconstruction_report(fresh, [s])
    assert report.summary()["cont_rmsd"] < fresh_report.summary()["cont_rmsd"]


def test_reconstruction_report_shapes():
    s = make_structure(5, length=10)
    params = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=32, blocks=1), seed=1)
    report = tok.reconstruction_report(params, [s, s])
    assert len(report.cont_rmsd) == 2
    assert all(0.0 <= t <= 1.0 for t in report.cont_tm + report.quant_tm)


# -- both token paths in one decoder call -----------------------------------------

@pytest.mark.parametrize("length", [8, 33])
def test_batched_decode_matches_one_chain_at_a_time(length):
    """Row b of a (2, L, K) decode equals decoding row b alone, bit for bit,
    each centred on its own CA centroid."""
    params = tok.TokenizerParams(tok.TokenizerConfig(), seed=0)
    s = make_structure(length, length=length)
    with ad.no_grad():
        z = tok.encode(s, params).data
        bits = np.where(z >= 0.0, 1.0, -1.0)
        both = tok.decode(np.stack([bits, z]), params).data
        alone = [tok.decode(tokens, params).data for tokens in (bits, z)]
    assert both.shape == (2, length, 4, 3)
    for b in range(2):
        np.testing.assert_array_equal(both[b], alone[b])


def _two_call_tokenizer_loss(params, structure, feats):
    """`tokenizer_loss` with one decoder call per token path: the reference."""
    z, _ = params.encoder(feats)
    bits, q_losses = tok.lfq_quantize(z)
    pred_q = params.decoder(bits)
    pred_c = params.decoder(z)
    return (
        0.5 * (tok.reconstruction_loss(pred_q, structure)
               + tok.reconstruction_loss(pred_c, structure))
        + tok.COMMIT_WEIGHT * q_losses["commitment"]
        + tok.ENTROPY_WEIGHT * q_losses["entropy"]
    )


@pytest.mark.usefixtures("float64")
def test_tokenizer_loss_gradients_match_two_decoder_calls():
    """The loss is bit-equal; the gradients differ only in the order the
    batch's contributions are summed (biases, LayerNorm scales, position
    tables)."""
    params = tok.TokenizerParams(tok.TokenizerConfig(width=32, blocks=2), seed=0)
    s = make_structure(6, length=30)
    feats = tok.invariant_features(s)
    runs = []
    for loss_fn in (tok.tokenizer_loss, _two_call_tokenizer_loss):
        params.zero_grad()
        loss = loss_fn(params, s, feats)
        loss.backward()
        runs.append((loss.item(), {k: p.grad.copy() for k, p in params.parameters().items()}))
    (got_loss, got), (want_loss, want) = runs
    assert got_loss == want_loss
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-10, err_msg=name)
