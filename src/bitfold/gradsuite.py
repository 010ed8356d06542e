"""Finite-difference gradient suite over every trainable loss.

Each entry builds a tiny instance of one loss (token cross-entropies,
representation alignment, residual diffusion, transitions, pair-biased
attention, relative-value attention on one chain and on a batch of two,
attention with fewer queries than keys, triangle operations, the triangle
updates through `recompute`, SeqStruct attention) or of one fused primitive
(`linear`, modulated `layernorm`, `pad`, the sigmoid and swish `gate`) and
compares backpropagated gradients against central finite differences.

Every case is built and checked under `autodiff.precision(np.float64)`:
central differences at step 1e-5 need float64 to resolve the 1e-4
tolerance, while training computes in float32.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import diffusion as dfn
from . import geo_arch
from . import nn
from . import repa as repa_mod
from . import resdiff as rd
from . import tokenizer as tok
from .autodiff import Tensor


def _state(rng, length=5, k=3):
    seq = rng.integers(0, 20, size=length)
    bits = np.where(rng.random((length, k)) < 0.5, 1.0, -1.0)
    x0 = dfn.TokenState.observed(seq, bits)
    xt = x0.copy()
    xt.mask_seq = rng.random(length) < 0.6
    xt.mask_struct = rng.random(length) < 0.6
    xt.mask_seq[0] = True  # keep both masked sets non-empty
    xt.mask_struct[0] = True
    return x0, xt


def _loss_ce(groups, classes):
    def build(seed):
        rng = np.random.default_rng(seed)
        x0, xt = _state(rng)
        schedule = dfn.make_schedule(10)
        seq_logits = Tensor(rng.normal(size=(5, 20)), requires_grad=True)
        struct_logits = Tensor(rng.normal(size=(5, groups * classes)), requires_grad=True)

        def fn():  # the output layer's flat logits in the (L, G, C) layout, as the LM gives them
            grouped = ad.reshape(struct_logits, (5, groups, classes))
            return dfn.loss_bit(dfn.LMOutput(seq_logits, grouped), x0, xt, 4, schedule)

        return fn, {"seq_logits": seq_logits, "struct_logits": struct_logits}

    return build


def _loss_repa(seed):
    rng = np.random.default_rng(seed)
    hidden = [Tensor(rng.normal(size=(4, 6)), requires_grad=True) for _ in range(3)]
    head = repa_mod.RepaHead(6, 5, 3, seed=seed)
    head.layer_logits.data[:] = rng.normal(size=3) * 0.3
    targets = rng.normal(size=(4, 5))

    def fn():
        return repa_mod.repa_loss(hidden, head, targets)

    params = {f"hidden.{i}": h for i, h in enumerate(hidden)}
    params.update(head.parameters(prefix="head."))
    return fn, params


def _loss_resdiff(seed):
    rng = np.random.default_rng(seed)
    head = rd.ResDiffHead(k=3, d_hidden=8, n_layers=2, d_lm=6, n_lm_layers=2, t_r=10, seed=seed)
    for layer in head.norms:  # nonzero modulation so adaLN gradients are exercised
        layer.mod.w.data[:] = rng.normal(size=layer.mod.w.data.shape) * 0.1
    hidden = [Tensor(rng.normal(size=(4, 6)), requires_grad=True) for _ in range(2)]
    z_quant = np.where(rng.random((4, 3)) < 0.5, 1.0, -1.0)
    r = rng.normal(size=(4, 3))

    def fn():
        cond = rd.condition(z_quant, hidden, head)
        return rd.resdiff_loss(r, 5, cond, head, np.random.default_rng(seed + 7))

    params = {f"hidden.{i}": h for i, h in enumerate(hidden)}
    params.update(head.parameters(prefix="head."))
    return fn, params


def _loss_transition(seed):
    rng = np.random.default_rng(seed)
    trans = nn.Transition(rng, 6, ratio=2)
    trans.out.w.data[:] = rng.normal(size=trans.out.w.data.shape) * 0.1
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

    def fn():
        return ((x + trans(x)) ** 2).mean()

    params = {"x": x}
    params.update(trans.parameters(prefix="trans."))
    return fn, params


def _loss_pair_bias_attention(seed):
    rng = np.random.default_rng(seed)
    attn = nn.MultiHeadAttention(rng, 8, 2, gated=True)
    bias_proj = geo_arch.PairBias(4, 2)
    bias_proj.proj.data[:] = rng.normal(size=bias_proj.proj.shape) * 0.2
    x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    pair = Tensor(rng.normal(size=(4, 4, 4)), requires_grad=True)

    def fn():
        return (attn(x, bias=bias_proj(pair)) ** 2).mean()

    params = {"x": x, "pair": pair}
    params.update(attn.parameters(prefix="attn."))
    params.update(bias_proj.parameters(prefix="bias."))
    return fn, params


def _loss_relpos_value_attention(lead):
    """`lead` is the input's leading shape: () for one chain, (2,) for two
    chains, as the decoder runs."""
    def build(seed):
        rng = np.random.default_rng(seed)
        block = tok.DecoderBlock(rng, tok.TokenizerConfig(width=8, heads=2))
        block.attn.out.w.data[:] = rng.normal(size=block.attn.out.w.data.shape) * 0.3
        x = Tensor(rng.normal(size=(*lead, 6, 8)), requires_grad=True)
        positions = np.array([0, 1, 2, 5, 6, 40])  # the gap past REL_POS_CLIP repeats clipped bins

        def fn():
            return (block(x, block.rel(positions)) ** 2).mean()

        params = {"x": x}
        params.update(block.parameters(prefix="block."))
        return fn, params

    return build


def _loss_fewer_queries_attention(seed):
    rng = np.random.default_rng(seed)
    attn = nn.MultiHeadAttention(rng, 8, 2, gated=True)
    attn.out.w.data[:] = rng.normal(size=attn.out.w.data.shape) * 0.3
    rel_bias = nn.RelPosBias(rng, 2, clip=3, d_value=4)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    positions = np.array([0, 1, 2, 5, 6, 40])

    def fn():  # the first 4 of 6 rows as queries, as the last trunk block runs when folding
        bias, rel = rel_bias(positions)
        return (attn(x, bias=bias, rel=rel, rows=4) ** 2).mean()

    params = {"x": x}
    params.update(attn.parameters(prefix="attn."))
    params.update(rel_bias.parameters(prefix="rel."))
    return fn, params


def _loss_triangle_update(call):
    def build(seed):
        rng = np.random.default_rng(seed)
        pair = Tensor(rng.normal(size=(4, 4, 5)), requires_grad=True)
        ups = []
        for mode in ("outgoing", "incoming"):
            up = geo_arch.TriangleUpdate(rng, 5, 6, mode)
            up.out.w.data[:] = rng.normal(size=up.out.w.data.shape) * 0.2
            ups.append(up)

        def fn():
            total = Tensor(0.0)
            for up in ups:
                total = total + (call(up, pair) ** 2).mean()
            return total

        params = {"pair": pair}
        for i, up in enumerate(ups):
            params.update(up.parameters(prefix=f"up.{i}."))
        return fn, params

    return build


def _loss_triangle_attention(seed):
    rng = np.random.default_rng(seed)
    pair = Tensor(rng.normal(size=(4, 4, 5)), requires_grad=True)
    attns = []
    for mode in ("starting", "ending"):
        ta = geo_arch.TriangleAttention(rng, 5, 3, 2, mode)
        ta.attn.out.w.data[:] = rng.normal(size=ta.attn.out.w.data.shape) * 0.2
        attns.append(ta)

    def fn():
        total = Tensor(0.0)
        for ta in attns:
            total = total + (ta(pair) ** 2).mean()
        return total

    params = {"pair": pair}
    for i, ta in enumerate(attns):
        params.update(ta.parameters(prefix=f"ta.{i}."))
    return fn, params


def _loss_seqstruct(seed):
    rng = np.random.default_rng(seed)
    ss = geo_arch.SeqStructAttention(rng, 6, 4, 2)
    ss.attn.out.w.data[:] = rng.normal(size=ss.attn.out.w.data.shape) * 0.2
    ss.bias.proj.data[:] = rng.normal(size=ss.bias.proj.shape) * 0.2
    h_seq = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    h_struct = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    pair = Tensor(rng.normal(size=(4, 4, 4)), requires_grad=True)

    def fn():
        d_seq, d_struct = ss(h_seq, h_struct, pair)
        return (d_seq ** 2).mean() + (d_struct ** 2).mean()

    params = {"h_seq": h_seq, "h_struct": h_struct, "pair": pair}
    params.update(ss.parameters(prefix="ss."))
    return fn, params


def _linear(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)  # pair-shaped: w's grad sums rows
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)

    def fn():
        return (ad.linear(x, w, b) ** 2).mean()

    return fn, {"x": x, "w": w, "b": b}


def _layernorm_modulated(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    scale = Tensor(rng.normal(size=(4, 6)) * 0.3, requires_grad=True)
    shift = Tensor(rng.normal(size=(4, 6)) * 0.3, requires_grad=True)
    weights = rng.normal(size=(4, 6))

    def fn():  # per-row scale and shift, as the residual-diffusion adaLN passes them
        out = ad.layernorm(x, 1.0 + scale, shift)
        return (out * weights).sum() + (out ** 2).mean()

    return fn, {"x": x, "scale": scale, "shift": shift}


def _pad(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    weights = rng.normal(size=(6, 7))

    def fn():
        return ((ad.pad(x, ((1, 2), (0, 3))) * weights) ** 2).sum()

    return fn, {"x": x}


def _gate(swish):
    def build(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 6)) * 2.0, requires_grad=True)  # into both tails
        y = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        weights = rng.normal(size=(4, 6))

        def fn():
            out = ad.gate(x, y, swish=swish)
            return (out * weights).sum() + (out ** 2).mean()

        return fn, {"x": x, "y": y}

    return build


SUITE = {
    "index-ce": _loss_ce(groups=1, classes=8),
    "bit-ce": _loss_ce(groups=3, classes=2),
    "repa": _loss_repa,
    "resdiff": _loss_resdiff,
    "transition": _loss_transition,
    "pair-bias-attention": _loss_pair_bias_attention,
    "relpos-value-attention": _loss_relpos_value_attention(lead=()),
    "batched-relpos-value-attention": _loss_relpos_value_attention(lead=(2,)),
    "fewer-queries-attention": _loss_fewer_queries_attention,
    "triangle-update": _loss_triangle_update(lambda up, pair: up(pair)),
    "recompute-triangle-update": _loss_triangle_update(ad.recompute),
    "triangle-attention": _loss_triangle_attention,
    "seqstruct-attention": _loss_seqstruct,
    "linear": _linear,
    "layernorm-modulated": _layernorm_modulated,
    "pad": _pad,
    "gate-sigmoid": _gate(swish=False),
    "gate-swish": _gate(swish=True),
}


def run_grad_suite(seeds=(0, 1, 2), tol=1e-4):
    """[(name@seed, GradCheckReport)] for every loss and seed, in float64."""
    reports = []
    with ad.precision(np.float64):
        for name, builder in SUITE.items():
            for seed in seeds:
                fn, params = builder(seed)
                report = ad.grad_check(fn, params, seed=seed, tol=tol)
                reports.append((f"{name}@{seed}", report))
    return reports
