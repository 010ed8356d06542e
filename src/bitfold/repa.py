"""Representation alignment: project language-model hidden states and pull
them toward frozen teacher features with a negative-cosine loss.

The teacher is the frozen structure-tokenizer encoder; its pre-head hidden
states are rigid-invariant, so `training.train_lm` takes each structure's
targets once, before its first step, from the same encoder pass that gives
its structure tokens, and builds the head itself when `repa_enabled` is
set.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .nn import MLP


class RepaHead(Module):
    """3-layer projector from LM width to teacher width plus learnable
    softmax ensemble logits over LM layers."""

    def __init__(self, d_model, d_teacher, n_layers, seed=0):
        rng = np.random.default_rng(seed)
        self.projector = MLP(rng, (d_model, d_model, d_model, d_teacher))
        self.layer_logits = Tensor(np.zeros(n_layers), requires_grad=True)


def ensemble_hidden(hidden_layers, layer_logits):
    """Softmax-weighted sum of per-layer (L, D) hidden states."""
    weights = ad.softmax(ad.reshape(layer_logits, (-1, 1, 1)), axis=0)
    stacked = ad.concat([ad.reshape(h, (1,) + tuple(h.shape)) for h in hidden_layers], axis=0)
    return (weights * stacked).sum(axis=0)


def repa_loss(hidden_layers, head: RepaHead, targets, eps=1e-8):
    """Negative mean cosine similarity between projected ensembled hidden
    states and fixed target rows. In [-1, 1]."""
    targets = np.asarray(targets, dtype=ad.compute_dtype())
    proj = head.projector(ensemble_hidden(hidden_layers, head.layer_logits))
    t_norm = np.linalg.norm(targets, axis=1)
    p_norm = ad.sqrt((proj * proj).sum(axis=1) + eps * eps)
    cos = (proj * targets).sum(axis=1) / (p_norm * np.maximum(t_norm, eps))
    return -cos.mean()
