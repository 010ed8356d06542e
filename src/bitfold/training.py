"""Language-model training over the joint token state: the per-step loss
that `optim.fit` drives.

Each step samples one structure, a noise level t, and a corruption mode
from {both tracks 0.5, sequence-only 0.25, structure-only 0.25} so folding
and inverse-folding are trained in-distribution; folding-SFT forces
structure-only corruption. With `repa_enabled`, representation alignment
adds repa_weight * repa_loss, pulling the LM hidden states toward the
frozen tokenizer encoder's features of the drawn structure.
"""

from __future__ import annotations

import numpy as np

from . import diffusion as dfn
from . import geo_arch
from . import repa
from . import tokenizer as tok
from .config import ModelConfig
from .optim import fit

MODE_PROBS = {"both": 0.5, "seq_only": 0.25, "struct_only": 0.25}


def build_lm(cfg: ModelConfig):
    return geo_arch.ProteinLM(cfg.validate())


def sample_mode(rng, folding_sft=False):
    if folding_sft:
        return "struct_only"
    names = list(MODE_PROBS)
    return names[int(rng.choice(len(names), p=list(MODE_PROBS.values())))]


def encode_dataset(dataset, tokenizer_params, with_targets=False):
    """Token states of the (structure, sequence) items under the frozen
    tokenizer encoder and, with `with_targets`, the encoder's hidden states
    of each structure (the REPA teacher targets), from one encoder pass per
    item."""
    states, targets = [], []
    for structure, seq in dataset:
        tokens = tok.tokenize(structure, tokenizer_params)
        states.append(dfn.TokenState.observed(np.asarray(seq), tokens.bits))
        if with_targets:
            targets.append(tokens.hidden)
    return states, targets


def train_lm(lm, tokenizer_params, dataset, cfg: ModelConfig, log_every=0):
    """Train in place; returns the per-step loss list.

    `dataset` is a list of (structure, sequence) pairs; structure tokens
    come from the frozen tokenizer encoder. With `cfg.repa_enabled`, a
    `RepaHead` seeded by `cfg.seed` trains alongside the LM (its parameters
    under `repa.`) against the encoder's hidden states of each item; the
    head is discarded when training ends.
    """
    trained = dict(lm.parameters())
    rng = np.random.default_rng(cfg.seed)
    states, targets = encode_dataset(dataset, tokenizer_params, with_targets=cfg.repa_enabled)
    if cfg.repa_enabled:
        repa_head = repa.RepaHead(cfg.d_model, cfg.tok_width, cfg.n_blocks, seed=cfg.seed)
        trained.update(repa_head.parameters(prefix="repa."))

    def step_loss(i):
        x0 = states[i]
        t = int(rng.integers(1, lm.schedule.T + 1))
        mode = sample_mode(rng, cfg.folding_sft)
        xt = dfn.forward_mask(
            x0, lm.schedule, t, rng,
            corrupt_seq=mode in ("both", "seq_only"),
            corrupt_struct=mode in ("both", "struct_only"),
        )
        if not (xt.mask_seq.any() or xt.mask_struct.any()):
            return None  # nothing masked: the loss is identically zero
        out = lm.forward(xt)
        loss = dfn.loss_bit(out, x0, xt, t, lm.schedule)
        if cfg.repa_enabled and cfg.repa_weight != 0.0:
            loss = loss + cfg.repa_weight * repa.repa_loss(
                out.hidden_layers, repa_head, targets[i]
            )
        return loss, f" mode {mode} t {t}"

    return fit(trained, dataset, cfg.steps, rng, step_loss, "lm",
               cfg.lr_peak, cfg.warmup, cfg.lr_floor, log_every)
