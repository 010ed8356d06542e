"""Hybrid flow matching: the interpolant and the Euler sampler, driven by an
oracle denoiser that always returns the target."""

import numpy as np
import pytest

from bitfold import diffusion as dfn
from bitfold import geo_arch as ga
from bitfold import geometry as geo
from bitfold import hybrid_fm as fm
from bitfold import nn
from bitfold import tokenizer as tok
from bitfold.autodiff import Tensor
from bitfold.config import ModelConfig
from bitfold.errors import ShapeMismatch, TimeOrder


def make_target(seed=0, length=12):
    structure, _ = geo.synth_backbone(geo.SynthSpec(length=length), seed=seed)
    return structure


def small_models(head="bit"):
    tokenizer = tok.TokenizerParams(tok.TokenizerConfig(k=4, width=16, blocks=1, heads=2), seed=0)
    return ga.ProteinLM(ModelConfig(d_model=16, heads=2, k=4, head=head)), tokenizer


def ca_centred(structure):
    return structure.coords - structure.coords[:, 1, :].mean(axis=0)


@pytest.mark.parametrize("n_steps", [1, 5])
def test_fm_generate_with_oracle_denoiser_reaches_target(n_steps):
    target = make_target()
    centred = geo.BackboneStructure(ca_centred(target), target.chain_ids)

    def oracle(x_t):
        return centred

    out = fm.fm_generate(None, None, len(target), np.random.default_rng(1), n_steps=n_steps,
                         denoiser=oracle)
    assert geo.rmsd(out, target) < 1e-9


def test_corrupt_at_t1_is_the_centred_target():
    target = make_target(seed=2)
    x_t = fm.corrupt(target, 1.0, np.random.default_rng(3))
    np.testing.assert_array_equal(x_t.coords, ca_centred(target))


def test_time_order_violations_raise():
    target = make_target()
    with pytest.raises(TimeOrder):
        fm.corrupt(target, 1.5, np.random.default_rng(0))
    with pytest.raises(TimeOrder):
        fm.fm_generate(None, None, len(target), np.random.default_rng(0), n_steps=0,
                       denoiser=lambda x_t: target)


@pytest.mark.parametrize("conditioned", [False, True])
def test_fm_generate_builds_positional_terms_once(monkeypatch, conditioned):
    """The sampler builds the relative-position biases of the LM and of the
    tokenizer decoder once per call, and gives the same structure bit for
    bit as a denoiser that builds them on every flow step."""
    calls = []
    rel_call = nn.RelPosBias.__call__

    def counted(self, positions):
        calls.append(self)
        return rel_call(self, positions)

    monkeypatch.setattr(nn.RelPosBias, "__call__", counted)
    lm, tokenizer = small_models()
    lm_rels = [block.rel for block in lm.blocks]
    dec_rels = [block.rel for block in tokenizer.decoder.blocks]
    target = make_target(seed=5, length=9)
    conditioning = np.arange(9) % 20 if conditioned else None
    outs = []
    for denoiser in (None, lambda x_t: fm.denoise(x_t, lm, tokenizer, conditioning)):
        calls.clear()
        outs.append(fm.fm_generate(lm, tokenizer, len(target), np.random.default_rng(6),
                                   conditioning, n_steps=3, denoiser=denoiser))
        outs.append([sum(rel is r for rel in calls) for r in lm_rels + dec_rels])
    got, got_calls, want, want_calls = outs
    np.testing.assert_array_equal(got.coords, want.coords)
    assert got_calls == [1] * len(got_calls) and want_calls == [3] * len(want_calls)


@pytest.mark.parametrize("n_tokens", [10, 14])
def test_fm_generate_rejects_conditioning_of_another_length(n_tokens):
    lm, tokenizer = small_models()
    with pytest.raises(ShapeMismatch, match=f"^fm_generate conditioning has {n_tokens} tokens "
                                            "for length 12$"):
        fm.fm_generate(lm, tokenizer, 12, np.random.default_rng(0), np.arange(n_tokens) % 20,
                       n_steps=2)


def test_hybrid_flow_matching_runs_on_the_index_head():
    lm, tokenizer = small_models(head="index")
    target = make_target()
    fm.fm_finetune(lm, tokenizer, [(target, np.arange(len(target)) % 20)], steps=2,
                   peak=1e-4, warmup=1, floor=1e-5)
    out = fm.fm_generate(lm, tokenizer, len(target), np.random.default_rng(0), n_steps=2)
    assert out.coords.shape == (len(target), 4, 3)
    assert np.isfinite(out.coords).all()


class _FixedLogits:
    """An LM stand-in whose structure logits are fixed, whatever the state."""

    def __init__(self, logits):
        self.logits = logits

    def forward(self, state, positional=None):
        return dfn.LMOutput(None, Tensor(self.logits))


@pytest.mark.parametrize("layout", [(4, 2), (1, 16)], ids=["bit", "index"])
def test_greedy_readout_breaks_ties_to_the_higher_class(monkeypatch, layout):
    """Each group reads out its top class, and a tie goes to the higher
    one: at two classes a tied bit reads +1."""
    target = make_target(length=8)
    logits = np.zeros((8, *layout))
    if layout == (4, 2):
        logits[:, :2, 0] = 1.0  # bits 1-2 read -1, bits 3-4 tie and read +1
        want = np.tile([-1.0, -1.0, 1.0, 1.0], (8, 1))
    else:
        logits[:, 0, [3, 9]] = 1.0  # classes 3 and 9 tie at the top; 9 = 0b1001
        want = np.tile([1.0, -1.0, -1.0, 1.0], (8, 1))
    read = []

    def decode(bits, tokenizer, positional=None):
        read.append(bits)
        return Tensor(np.zeros((len(bits), 4, 3)))

    monkeypatch.setattr(tok, "decode", decode)
    _, tokenizer = small_models()
    fm.denoise(target, _FixedLogits(logits), tokenizer)
    np.testing.assert_array_equal(read[0], want)
