"""Residual diffusion head: a small conditional DDPM over quantization
residuals r = z_cont - z_quant.

The epsilon network is an MLP stack with adaptive-layernorm conditioning on
(token projection + ensembled LM hidden states, sinusoidal timestep
embedding). Strictly post-hoc: it never touches language-model parameters.
`lm_hidden` gives those hidden states for a fully observed token state;
`train_resdiff` calls it on each (structure, sequence) item with the bits
of `tokenizer.tokenize`, whose continuous tokens give the residual
targets, and `evalsuite.folding_eval` on each generated state.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import diffusion as dfn
from . import nn
from . import tokenizer as tok
from .autodiff import Linear, Module, Tensor
from .errors import BadT
from .optim import fit
from .repa import ensemble_hidden

BETA_START = 1e-4
BETA_END = 0.02


class AdaLN(Module):
    """Layernorm whose scale/shift are generated from a conditioning vector;
    the modulation map is zero-initialized so a fresh layer is plain LN."""

    def __init__(self, rng, d, d_cond):
        self.mod = Linear(rng, d_cond, 2 * d, zero_init=True)

    def __call__(self, x, cond):
        mod = self.mod(cond)
        d = x.shape[-1]
        scale, shift = mod[:, :d], mod[:, d:]
        return ad.layernorm(x, 1.0 + scale, shift)


class ResDiffHead(Module):
    """fields: eps_net MLP stack with per-layer adaLN; cond_proj; ensemble
    logits over LM hidden layers; DDPM schedule (T_r, linear beta range)."""

    def __init__(self, k, d_hidden, n_layers, d_lm, n_lm_layers, t_r, seed=0):
        if t_r < 2:
            raise BadT(f"T_r must be >= 2, got {t_r}")
        rng = np.random.default_rng(seed)
        self.k = k
        self.t_r = t_r
        self.d_hidden = d_hidden
        self.beta = np.linspace(BETA_START, BETA_END, t_r)
        self.alpha_bar = np.cumprod(1.0 - self.beta)
        self.cond_proj = Linear(rng, k, d_lm)
        self.layer_logits = Tensor(np.zeros(n_lm_layers), requires_grad=True)
        d_cond = d_lm + d_hidden  # condition vector + timestep embedding
        self.inp = Linear(rng, k, d_hidden)
        self.norms = [AdaLN(rng, d_hidden, d_cond) for _ in range(n_layers)]
        self.layers = [Linear(rng, d_hidden, d_hidden) for _ in range(n_layers)]
        self.out = Linear(rng, d_hidden, k)

    def eps_net(self, r_t, t, cond):
        """Predicted noise (L, K) given noisy residuals, step t, and the
        per-residue conditioning matrix."""
        length = r_t.shape[0]
        t_emb = nn.sinusoidal_embedding(np.full(length, t), self.d_hidden)
        full_cond = ad.concat([cond if isinstance(cond, Tensor) else Tensor(cond),
                               Tensor(t_emb)], axis=1)
        x = self.inp(r_t if isinstance(r_t, Tensor) else Tensor(r_t))
        for norm, layer in zip(self.norms, self.layers):
            x = x + ad.swish(layer(norm(x, full_cond)))
        return self.out(x)


def lm_hidden(lm, state):
    """The LM's per-layer (L, D) hidden states of the fully observed
    `state`, from one forward without a graph: the hidden part of the
    head's conditioning."""
    with ad.no_grad():
        return [h.data for h in lm.forward(state).hidden_layers]


def condition(z_quant, hidden_layers, head: ResDiffHead):
    """Per-residue conditioning c = z_quant @ W_quant + sum_i softmax(w)_i h_i."""
    return head.cond_proj(ad.as_tensor(z_quant)) + ensemble_hidden(hidden_layers, head.layer_logits)


def resdiff_loss(r, t, cond, head: ResDiffHead, rng):
    """DDPM epsilon-prediction MSE at step t (1-based, t in [1, T_r])."""
    if not 1 <= t <= head.t_r:
        raise BadT(f"t must be in [1, {head.t_r}], got {t}")
    r = np.asarray(r, dtype=np.float64)
    eps = rng.standard_normal(r.shape)
    ab = head.alpha_bar[t - 1]
    r_t = np.sqrt(ab) * r + np.sqrt(1.0 - ab) * eps
    pred = head.eps_net(r_t, t, cond)
    return ((pred - eps) ** 2).mean()


def resdiff_sample(cond, head: ResDiffHead, rng):
    """Ancestral DDPM sampling of residuals from pure noise; (L, K)."""
    length = cond.shape[0]
    r = rng.standard_normal((length, head.k))
    with ad.no_grad():
        for t in range(head.t_r, 0, -1):
            eps_hat = head.eps_net(r, t, cond).data
            beta = head.beta[t - 1]
            ab = head.alpha_bar[t - 1]
            mean = (r - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(1.0 - beta)
            if t > 1:
                ab_prev = head.alpha_bar[t - 2]
                var = beta * (1.0 - ab_prev) / (1.0 - ab)
                r = mean + np.sqrt(var) * rng.standard_normal(r.shape)
            else:
                r = mean
    return r


def train_resdiff(head: ResDiffHead, lm, tokenizer_params, dataset, steps, seed=0, *,
                  peak, warmup, floor, log_every=0):
    """Train the head on the (structure, sequence) pairs of `dataset`.

    Each item is read once, before the first step: `tokenizer.tokenize`
    gives the continuous tokens z, the bits b and the residual z - b, and
    `lm_hidden` of the observed (sequence, b) state gives the LM hidden
    states. The conditioning vector is recomputed each step so its
    projection and ensemble logits train too."""
    items = []
    for structure, seq in dataset:
        z, bits, _ = tok.tokenize(structure, tokenizer_params)
        items.append((z - bits, bits, lm_hidden(lm, dfn.TokenState.observed(seq, bits))))
    rng = np.random.default_rng(seed)

    def step_loss(i):
        r, bits, hidden = items[i]
        cond = condition(bits, hidden, head)
        return resdiff_loss(r, int(rng.integers(1, head.t_r + 1)), cond, head, rng), ""

    fit(head.parameters(), items, steps, rng, step_loss, "resdiff", peak, warmup, floor,
        log_every)
    return head
