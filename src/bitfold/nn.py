"""Shared neural building blocks on top of the autodiff core.

Multi-head attention is the package's one attention module: it attends
along the second-to-last axis and treats any leading axes as independent
rows, so the same module serves attention over residues (L, d) and
triangle attention over the rows of the pair map (L, L, d). Its head width
`d_head` defaults to `d_model // n_heads`. It takes an optional additive
logit bias and sigmoid output gating. Every projection but the bias-free
key projection is an `autodiff.Linear` and every pre-norm an
`autodiff.LayerNorm`; each records one fused graph node (`autodiff.linear`,
`autodiff.layernorm`).

Also here: the gated transition block, MLP stacks, relative-position bias
tables and sinusoidal embeddings.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import LayerNorm, Linear, Module, Tensor
from .errors import InvalidConfig

REL_POS_CLIP = 32


class MLP(Module):
    """Plain MLP with swish activations between layers."""

    def __init__(self, rng, dims):
        self.layers = [Linear(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = ad.swish(x)
        return x


class Transition(Module):
    """layernorm -> swish-gated expansion by `ratio` -> projection back.

    The gate and its product with the value are one `autodiff.gate` node.
    The output projection is zero-initialized so a fresh transition is the
    identity once the caller adds the residual.
    """

    def __init__(self, rng, d, ratio=4):
        self.norm = LayerNorm(d)
        self.gate = Linear(rng, d, d * ratio)
        self.value = Linear(rng, d, d * ratio)
        self.out = Linear(rng, d * ratio, d, zero_init=True)

    def __call__(self, x):
        h = self.norm(x)
        return self.out(ad.gate(self.gate(h), self.value(h), swish=True))


class RelPosBias(Module):
    """Per-head attention bias keyed by clipped index differences, plus
    optional per-head relative value vectors (Shaw-style) so position
    information can flow into representations, not just into logits.

    Calling it returns the (H, L, L) bias; with `d_value` it returns
    `(bias, (table, diff))`, where `table` is the value table as an
    (R, H, d_value) Tensor over R = 2 * clip + 1 offset bins and `diff` the
    (L, L) int array of bins, the `rel` argument of `ad.attention`."""

    def __init__(self, rng, n_heads, clip=REL_POS_CLIP, d_value=0):
        self.clip = clip
        self.n_heads = n_heads
        self.d_value = d_value
        self.table = Tensor(rng.normal(0.0, 0.02, size=(2 * clip + 1, n_heads)), requires_grad=True)
        if d_value:
            self.value_table = Tensor(
                rng.normal(0.0, 0.1, size=(2 * clip + 1, n_heads * d_value)), requires_grad=True
            )

    def _diff(self, positions):
        pos = np.asarray(positions, dtype=np.int64)
        return np.clip(pos[None, :] - pos[:, None], -self.clip, self.clip) + self.clip

    def __call__(self, positions):
        diff = self._diff(positions)
        bias = ad.transpose(self.table)[:, diff]  # (H, L, L), gathered head-major: contiguous
        if not self.d_value:
            return bias
        table = ad.reshape(self.value_table, (2 * self.clip + 1, self.n_heads, self.d_value))
        return bias, (table, diff)


class MultiHeadAttention(Module):
    """Self-attention along the second-to-last axis of an (..., L, d_model)
    input, with optional logit bias and gating; leading axes are
    independent rows.

    `bias` is added to the scaled (..., H, L, L) logits and broadcasts over
    the rows; `rel` is the `(table, diff)` pair of relative values from
    `RelPosBias`; `gated` applies a sigmoid gate computed from the input to
    each head's output, as in pair-biased and triangle attention. The
    heads are `d_head` wide, `d_model // n_heads` by default. The
    projections stay packed, (..., L, H * d_head): `ad.attention` splits
    and merges the heads itself, as numpy views.

    `rows` keeps only the first `rows` positions as queries: the queries
    and the gate come from those rows, the keys and values from all of
    them, `bias` and `rel` are cut to those query rows, and the output has
    `rows` positions. Each kept row gets the same bits as without `rows`.

    The key projection `k` is a bare weight with no bias: a key bias adds
    q . b_k, one constant, to every logit of a query row, which the
    softmax cancels, so no loss could train it.
    """

    def __init__(self, rng, d_model, n_heads, d_head=None, gated=False, zero_init_out=False):
        if d_head is None:
            if d_model % n_heads:
                raise InvalidConfig(f"{n_heads} heads do not divide width {d_model}")
            d_head = d_model // n_heads
        self.n_heads = n_heads
        self.d_head = d_head
        d_inner = n_heads * d_head
        self.q = Linear(rng, d_model, d_inner)
        self.k = ad.param(rng, d_model, d_inner)
        self.v = Linear(rng, d_model, d_inner)
        self.gate = Linear(rng, d_model, d_inner) if gated else None
        self.out = Linear(rng, d_inner, d_model, zero_init=zero_init_out)

    def __call__(self, x, bias=None, rel=None, rows=None):
        xq = x
        if rows is not None:
            xq = x[..., :rows, :]
            bias = None if bias is None else bias[..., :rows, :]
            rel = None if rel is None else (rel[0], rel[1][:rows])
        ctx = ad.attention(self.q(xq), ad.matmul(x, self.k), self.v(x), self.n_heads,
                           1.0 / np.sqrt(self.d_head), bias=bias, rel=rel)
        if self.gate is not None:
            # not `ad.gate`: `sigmoid`'s backward reads only its output, so the
            # fused node would keep as much (the gate's input for the sigmoid),
            # and its parent order would change the order in which the
            # gradients into `x` add up, and so their bits
            ctx = ctx * ad.sigmoid(self.gate(xq))
        return self.out(ctx)


def sinusoidal_embedding(positions, dim):
    """Constant sinusoidal embedding of integer positions, shape (L, dim),
    computed in float64 and returned in the autodiff compute dtype."""
    positions = np.asarray(positions, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    args = positions[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(args), np.cos(args)], axis=1)
    if emb.shape[1] < dim:
        emb = np.concatenate([emb, np.zeros((len(positions), dim - emb.shape[1]))], axis=1)
    return emb.astype(ad.compute_dtype())

