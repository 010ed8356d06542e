"""Hybrid data-space generation: the composed denoiser
decoder(LM(encoder(x_t))) driven by a flow-matching Euler sampler.

Corruption follows a linear interpolant between an isotropic Gaussian
prior (sigma 10 A per coordinate) and the centered data; each Euler step
Kabsch-aligns the denoised structure onto the current state before the
linear update. The language model itself is time-unaware: corruption level
reaches it only through the encoder features.

As in the other stages, the entry points take the LM, with either head,
and the frozen tokenizer. The flow state is the noisy structure x_t; its
time t is `fm_generate`'s loop variable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import diffusion as dfn
from . import geometry as geo
from . import tokenizer as tok
from .errors import ShapeMismatch, TimeOrder
from .optim import fit

PRIOR_SIGMA = 10.0


def _centered(coords):
    return coords - coords[:, 1, :].mean(axis=0)


def corrupt(x1: geo.BackboneStructure, t, rng):
    """x_t = t*x1 + (1-t)*x0 with x0 a centered Gaussian prior draw."""
    if not 0.0 <= t <= 1.0:
        raise TimeOrder(f"t must be in [0, 1], got {t}")
    x0 = rng.normal(0.0, PRIOR_SIGMA, size=x1.coords.shape)
    x0 = _centered(x0)
    coords = t * _centered(x1.coords) + (1.0 - t) * x0
    return geo.BackboneStructure(coords, x1.chain_ids, x1.source_id)


def denoise(x_t: geo.BackboneStructure, lm, tokenizer, conditioning=None, positional=None,
            decoder_positional=None):
    """The composed denoiser decoder(LM(encoder(x_t))): tokenize the noisy
    structure, one LM forward with its bits observed (sequence clamped to
    the `conditioning` amino-acid ids if given, masked otherwise), greedy
    readout of each group's class, decode to centered coordinates. `positional` is the LM's
    record for this length (`ProteinLM.positional`) and
    `decoder_positional` the tokenizer decoder's (`Decoder.positional`);
    each is built when it is not given."""
    bits_t = tok.tokenize(x_t, tokenizer).bits
    if conditioning is not None:
        seq = np.asarray(conditioning)
    else:
        seq = np.full(len(x_t), dfn.MASK_AA)
    lm_state = dfn.TokenState.observed(seq, bits_t)
    lm_state.mask_seq = np.full(len(x_t), conditioning is None)
    with ad.no_grad():
        out = lm.forward(lm_state, positional=positional)
    logits = out.struct_logits.data  # (L, G, C)
    top = logits.shape[-1] - 1
    codes = top - np.argmax(logits[..., ::-1], axis=-1)  # a tie goes to the higher class
    pred_bits = tok.index_to_bits(codes, bits_t.shape[1])
    coords = tok.decode(pred_bits, tokenizer, decoder_positional).data
    return geo.BackboneStructure(_centered(coords), x_t.chain_ids, x_t.source_id)


def euler_step(x_t: geo.BackboneStructure, t, x_hat: geo.BackboneStructure, s):
    """x_s = ((s-t)/(1-t)) * aligned(x_hat) + ((1-s)/(1-t)) * x_t."""
    if not t < s <= 1.0:
        raise TimeOrder(f"need t < s <= 1, got t={t}, s={s}")
    res = geo.kabsch_align(x_hat, x_t)
    aligned = x_hat.coords @ res.rotation.T + res.translation
    coef_hat = (s - t) / (1.0 - t)
    coords = coef_hat * aligned + (1.0 - coef_hat) * x_t.coords
    return geo.BackboneStructure(coords, x_t.chain_ids, x_t.source_id)


def fm_generate(lm, tokenizer, length, rng, conditioning=None, *, n_steps, denoiser=None):
    """Euler-integrate the flow from the Gaussian prior at t=0 to t=1; the
    result is one chain of `length` residues, folded onto the amino-acid
    ids `conditioning` when they are given.

    `denoiser` maps x_t to the denoised structure in place of the composed
    model (used by exactness checks with an oracle that always returns the
    target)."""
    if n_steps < 1:
        raise TimeOrder(f"n_steps must be >= 1, got {n_steps}")
    if conditioning is not None and len(conditioning) != length:
        raise ShapeMismatch(f"fm_generate conditioning has {len(conditioning)} tokens "
                            f"for length {length}")
    chain_ids = np.zeros(length, dtype=np.int64)
    x_t = geo.BackboneStructure(_centered(rng.normal(0.0, PRIOR_SIGMA, size=(length, 4, 3))),
                                chain_ids)
    if denoiser is None:
        with ad.no_grad():  # positions do not change between flow steps
            positional = lm.positional(length)
            decoder_positional = tokenizer.decoder.positional(length)

        def denoiser(x):
            return denoise(x, lm, tokenizer, conditioning, positional, decoder_positional)

    for k in range(n_steps):
        x_t = euler_step(x_t, k / n_steps, denoiser(x_t), (k + 1) / n_steps)
    return geo.BackboneStructure(_centered(x_t.coords), chain_ids, x_t.source_id)


def fm_finetune(lm, tokenizer, dataset, steps, seed=0, *, peak, warmup, floor, log_every=0):
    """Fine-tune the LM to predict clean structure tokens from encoder
    features of flow-corrupted structures (the structure cross-entropy of
    `diffusion.loss_bit`; decoder untouched).

    `dataset` is a list of (structure, sequence) pairs."""
    rng = np.random.default_rng(seed)
    clean_bits = [tok.tokenize(structure, tokenizer).bits for structure, _ in dataset]

    def step_loss(i):
        structure, seq = dataset[i]
        bits_t = tok.tokenize(corrupt(structure, rng.uniform(), rng), tokenizer).bits
        out = lm.forward(dfn.TokenState.observed(np.asarray(seq), bits_t))
        target = dfn.TokenState.observed(np.asarray(seq), clean_bits[i])
        supervised = target.copy()
        supervised.mask_struct[:] = True  # structure CE at every position
        return dfn.loss_bit(out, target, supervised, 1, lm.schedule), ""

    fit(lm.parameters(), dataset, steps, rng, step_loss, "fm-finetune", peak, warmup, floor,
        log_every)
    return lm
