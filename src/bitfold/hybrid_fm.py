"""Hybrid data-space generation: the composed denoiser
decoder(LM(encoder(x_t))) driven by a flow-matching Euler sampler.

Corruption follows a linear interpolant between an isotropic Gaussian
prior (sigma 10 A per coordinate) and the centered data; each Euler step
Kabsch-aligns the denoised structure onto the current state before the
linear update. The language model itself is time-unaware: corruption level
reaches it only through the encoder features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffusion as dfn
from . import geometry as geo
from . import tokenizer as tok
from .errors import HeadMismatch, TimeOrder
from .optim import fit

PRIOR_SIGMA = 10.0


@dataclass
class FlowState:
    """Centered backbone coordinates at flow time t in [0, 1]."""

    structure: geo.BackboneStructure
    t: float
    conditioning: np.ndarray | None = None  # amino-acid ids for folding


def _centered(coords):
    return coords - coords[:, 1, :].mean(axis=0)


def corrupt(x1: geo.BackboneStructure, t, rng):
    """x_t = t*x1 + (1-t)*x0 with x0 a centered Gaussian prior draw."""
    if not 0.0 <= t <= 1.0:
        raise TimeOrder(f"t must be in [0, 1], got {t}")
    x0 = rng.normal(0.0, PRIOR_SIGMA, size=x1.coords.shape)
    x0 = _centered(x0)
    coords = t * _centered(x1.coords) + (1.0 - t) * x0
    structure = geo.BackboneStructure(coords, x1.chain_ids, x1.source_id)
    return FlowState(structure=structure, t=float(t))


@dataclass
class HybridModels:
    tokenizer: tok.TokenizerParams
    lm: object  # ProteinLM

    def __post_init__(self):
        if self.lm.head != "bit":
            raise HeadMismatch(
                f"hybrid flow matching needs head 'bit', the LM has head {self.lm.head!r}"
            )


def denoise(state: FlowState, models: HybridModels, positional=None, decoder_positional=None):
    """The composed denoiser decoder(LM(encoder(x_t))): encode and quantize
    the noisy structure, one LM forward with the corrupted bits observed
    (sequence clamped to the conditioning if present, masked otherwise),
    greedy bit readout, decode to centered coordinates. `positional` is the
    LM's record for this length (`ProteinLM.positional`) and
    `decoder_positional` the tokenizer decoder's (`Decoder.positional`);
    each is built when it is not given."""
    structure = state.structure
    bits_t = tok.structure_bits(structure, models.tokenizer)
    if state.conditioning is not None:
        seq = np.asarray(state.conditioning)
    else:
        seq = np.full(len(structure), dfn.MASK_AA)
    lm_state = dfn.TokenState.observed(seq, bits_t)
    lm_state.mask_seq = np.full(len(structure), state.conditioning is None)
    with ad.no_grad():
        out = models.lm.forward(lm_state, positional=positional)
    length, k = bits_t.shape
    bit_logits = out.struct_logits.data.reshape(length, k, 2)
    pred_bits = np.where(bit_logits[:, :, 1] >= bit_logits[:, :, 0], 1.0, -1.0)
    with ad.no_grad():
        coords = tok.decode(tok.Tensor(pred_bits), models.tokenizer, decoder_positional).data
    return geo.BackboneStructure(_centered(coords), structure.chain_ids, structure.source_id)


def euler_step(state: FlowState, x_hat: geo.BackboneStructure, s):
    """x_s = ((s-t)/(1-t)) * aligned(x_hat) + ((1-s)/(1-t)) * x_t."""
    t = state.t
    if not t < s <= 1.0:
        raise TimeOrder(f"need t < s <= 1, got t={t}, s={s}")
    res = geo.kabsch_align(x_hat, state.structure)
    aligned = x_hat.coords @ res.rotation.T + res.translation
    coef_hat = (s - t) / (1.0 - t)
    coords = coef_hat * aligned + (1.0 - coef_hat) * state.structure.coords
    structure = geo.BackboneStructure(coords, state.structure.chain_ids, state.structure.source_id)
    return FlowState(structure=structure, t=float(s), conditioning=state.conditioning)


def fm_generate(models, length, rng, conditioning=None, *, n_steps, denoiser=None):
    """Euler-integrate the flow from the Gaussian prior at t=0 to t=1; the
    result is one chain of `length` residues.

    `denoiser` overrides the composed model (used by exactness checks with
    an oracle that always returns the target)."""
    if n_steps < 1:
        raise TimeOrder(f"n_steps must be >= 1, got {n_steps}")
    chain_ids = np.zeros(length, dtype=np.int64)
    x0 = _centered(rng.normal(0.0, PRIOR_SIGMA, size=(length, 4, 3)))
    state = FlowState(geo.BackboneStructure(x0, chain_ids), 0.0, conditioning)
    if denoiser is None:
        with ad.no_grad():  # positions do not change between flow steps
            positional = models.lm.positional(length)
            decoder_positional = models.tokenizer.decoder.positional(length)

        def denoiser(flow_state):
            return denoise(flow_state, models, positional, decoder_positional)

    for k in range(n_steps):
        state = euler_step(state, denoiser(state), (k + 1) / n_steps)
    coords = _centered(state.structure.coords)
    return geo.BackboneStructure(coords, chain_ids, state.structure.source_id)


def fm_finetune(models: HybridModels, dataset, steps, seed=0, *, peak, warmup, floor,
                log_every=0):
    """Fine-tune the LM to predict clean bit tokens from encoder features of
    flow-corrupted structures (bit cross-entropy; decoder untouched).

    `dataset` is a list of (structure, sequence) pairs."""
    lm = models.lm
    rng = np.random.default_rng(seed)
    clean_bits = [tok.structure_bits(structure, models.tokenizer) for structure, _ in dataset]

    def step_loss(i):
        structure, seq = dataset[i]
        noisy = corrupt(structure, rng.uniform(), rng)
        bits_t = tok.structure_bits(noisy.structure, models.tokenizer)
        out = lm.forward(dfn.TokenState.observed(np.asarray(seq), bits_t))
        target = dfn.TokenState.observed(np.asarray(seq), clean_bits[i])
        supervised = target.copy()
        supervised.mask_struct[:] = True  # bit CE at every structure position
        return dfn.loss_bit(out, target, supervised, 1, lm.schedule), ""

    fit(lm.parameters(), dataset, steps, rng, step_loss, "fm-finetune", peak, warmup, floor,
        log_every)
    return lm
