"""Geometry-aware language-model architecture.

The trunk runs a single stream of 2L tokens (structure tokens at
positions 0..L-1, sequence tokens at L..2L-1, sharing residue indices in
the positional encoding). Geometric sub-layers are flag-gated per block:
pair representation with pair-biased attention and pair transition,
structure-track transition, triangle multiplicative updates, triangle
attention, and SeqStruct attention over feature-concatenated tracks.

`ProteinLM(cfg)` reads all of that from one `config.ModelConfig`: the
flags and dims, `n_blocks`, the token width `k`, the output `head`, the
noise schedule (`T`, `weighting`) and the init `seed`. `EncoderBlock` and
`PairUpdate` read the same config.

Only the model reads `head`, besides `config`'s check. It picks the
structure input: the K bits through a linear map, with a learnable
absorbing row at masked positions (`bit`), or a table of 2^K + 1 index
tokens whose last row, token 2^K, is MASK (`index`). It also picks the
output's G groups of C-way logits: (L, K, 2) or (L, 1, 2^K).

Every attention here is one gated `nn.MultiHeadAttention` after an
`autodiff.LayerNorm` pre-norm: trunk attention over residues (relative
position bias, plus the pair bias when the pair track is on), SeqStruct
attention (pair bias), and triangle attention over each row of the pair
map (each column for "ending"), biased by a projection of the pair map.

Each `EncoderBlock` reads the pair track and returns the residue stream;
a `PairUpdate` (triangle updates, triangle attention, pair transition) then
updates the pair track for the next block. No output reads the pair after
the last block, so `ProteinLM` builds one `PairUpdate` fewer than it has
blocks: `pair_updates[i]` runs between block i and block i + 1.

The pair track's activations grow as L^2, so its sub-layers are where
recomputation (`autodiff.recompute`) frees memory. The pair init and both
triangle updates run through it: each keeps only its input between the
passes and runs a second time in backward. At L=48 a full-geo step then
holds 7.2 MiB after the forward instead of 11.0, and the benchmark's
train-geo peak RSS falls from about 60.4 to 56.0 MiB, for 5-10% more CPU
time per step. The triangle attentions are not recomputed: recomputing
them too took the peak to 54.9 MiB but the step time up by 17-20%, since
their attention core, which rebuilds its weights in backward already,
would run a third time. Nor is the pair transition: its graph would be
rebuilt right where the backward's peak is, so recomputing it frees
nothing at the peak.

Likewise no output reads the sequence rows after the last block when no
sequence position is masked: folding, struct-only training steps and every
forward on an observed state. `ProteinLM.forward` derives that from the
state, and the last block then drops the sequence rows as early as its
config allows: before the attention queries (keys and values still come
from all 2L rows), or after SeqStruct attention, which needs the updated
sequence rows. Its transitions and the final norm run on L rows, and
`LMOutput.seq_logits` is None. The structure rows get the same bits.

What depends only on the length and the parameters (the sinusoidal
embedding, the two modality rows and each block's relative-position bias)
is one `Positional` record. `ProteinLM.forward` builds it unless it is
given one; `diffusion.generate` builds it once per call and hands it to
each of its forwards.

With every flag off the model reduces exactly to the plain two-modality
transformer; pair-bias projections are zero-initialized so a zeroed pair
representation also reproduces the plain forward bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffusion as dfn
from . import nn
from .autodiff import LayerNorm, Linear, Module, Tensor
from .config import ModelConfig
from .errors import ShapeMismatch


# -- pair-representation sub-layers ------------------------------------------

class PairInit(Module):
    """pair[i][j] = MLP3(concat(h[i], h[j])).

    The first layer is linear, so concat(h_i, h_j) @ W + b equals
    (h @ W[:d] + b)_i + (h @ W[d:])_j: two (L, d_pair) projections added by
    broadcasting, with no (L^2, 2 d_model) gather. Exact up to rounding.
    """

    def __init__(self, rng, d_model, d_pair):
        self.mlp = nn.MLP(rng, (2 * d_model, d_pair, d_pair, d_pair))

    def __call__(self, h):
        length, d = h.shape
        first, *rest = self.mlp.layers
        rows = ad.linear(h, first.w[:d], first.b)
        cols = ad.matmul(h, first.w[d:])
        x = ad.reshape(rows, (length, 1, -1)) + ad.reshape(cols, (1, length, -1))
        for layer in rest:
            x = layer(ad.swish(x))
        return x


class PairBias(Module):
    """Per-head attention logit bias from the pair representation.

    The projection `proj` is a bare weight: a bias on it would add one
    constant per head to every logit, which the softmax cancels, so no loss
    could train it. Zero-initialized: a freshly built geometric model
    reproduces the plain transformer forward exactly.
    """

    def __init__(self, d_pair, n_heads):
        self.proj = ad.zeros_param(d_pair, n_heads)

    def __call__(self, pair):
        return ad.transpose(ad.matmul(pair, self.proj), (2, 0, 1))  # (H, L, L)


class TriangleUpdate(Module):
    """Multiplicative triangle update (outgoing or incoming edges). Each of
    its three sigmoid gates times its value is one `autodiff.gate` node."""

    def __init__(self, rng, d_pair, d_hidden, mode):
        self.mode = mode
        self.norm = LayerNorm(d_pair)
        self.gate_a = Linear(rng, d_pair, d_hidden)
        self.val_a = Linear(rng, d_pair, d_hidden)
        self.gate_b = Linear(rng, d_pair, d_hidden)
        self.val_b = Linear(rng, d_pair, d_hidden)
        self.out_gate = Linear(rng, d_pair, d_pair)
        self.out_norm = LayerNorm(d_hidden)
        self.out = Linear(rng, d_hidden, d_pair, zero_init=True)

    def __call__(self, pair):
        z = self.norm(pair)
        a = ad.gate(self.gate_a(z), self.val_a(z))
        b = ad.gate(self.gate_b(z), self.val_b(z))
        mixed = ad.tri_contract(a, b, self.mode)
        delta = self.out(self.out_norm(mixed))
        return ad.gate(self.out_gate(z), delta)


class TriangleAttention(Module):
    """Gated attention along each row (starting) or column (ending) of the
    pair map, with logits biased by the pair representation itself.

    The logit-bias projection `bias` is a bare weight, as `PairBias.proj`
    is: a bias on it would shift every logit of a query row by one
    constant, which the softmax cancels."""

    def __init__(self, rng, d_pair, d_head, n_heads, mode):
        self.mode = mode
        self.norm = LayerNorm(d_pair)
        self.bias = ad.param(rng, d_pair, n_heads)
        self.attn = nn.MultiHeadAttention(rng, d_pair, n_heads, d_head=d_head, gated=True,
                                          zero_init_out=True)

    def __call__(self, pair):
        if self.mode == "ending":
            pair = ad.transpose(pair, (1, 0, 2))
        z = self.norm(pair)
        # (H, j, k) from pair[j][k], shared by rows i
        bias = ad.transpose(ad.matmul(z, self.bias), (2, 0, 1))
        delta = self.attn(z, bias=bias)
        if self.mode == "ending":
            delta = ad.transpose(delta, (1, 0, 2))
        return delta


class SeqStructAttention(Module):
    """Pair-biased gated attention over residues on the feature-wise
    concatenation of the two tracks, split back afterwards."""

    def __init__(self, rng, d_model, d_pair, n_heads):
        self.norm = LayerNorm(2 * d_model)
        self.attn = nn.MultiHeadAttention(rng, 2 * d_model, n_heads, gated=True, zero_init_out=True)
        self.bias = PairBias(d_pair, n_heads)

    def __call__(self, h_seq, h_struct, pair):
        d = h_seq.shape[1]
        joint = ad.concat([h_seq, h_struct], axis=1)
        out = self.attn(self.norm(joint), bias=self.bias(pair))
        return out[:, :d], out[:, d:]


# -- trunk block -------------------------------------------------------------

class EncoderBlock(Module):
    """One trunk block: updates the 2L-row residue stream, reading the pair
    track and its (H, 2L, 2L) relative-position bias `rel_bias` (from
    `ProteinLM.positional`) for its attention bias. It leaves the pair track
    as it is; a `PairUpdate` between two blocks updates it. With
    `struct_only` it returns only the L structure rows."""

    def __init__(self, rng, cfg: ModelConfig):
        d = cfg.d_model
        self.cfg = cfg
        self.attn_norm = LayerNorm(d)
        self.attn = nn.MultiHeadAttention(rng, d, cfg.heads, gated=True)
        self.rel = nn.RelPosBias(rng, cfg.heads)
        self.transition = nn.Transition(rng, d, cfg.transition_ratio)
        if cfg.pair_bias:
            self.pair_bias = PairBias(cfg.d_pair, cfg.heads)
        if cfg.struct_transition:
            self.struct_trans = nn.Transition(rng, d, cfg.transition_ratio)
        if cfg.seqstruct_attention:
            self.seqstruct = SeqStructAttention(rng, d, cfg.d_pair, cfg.heads_seqstruct)

    def __call__(self, h, pair, rel_bias, struct_only=False):
        cfg = self.cfg
        length = h.shape[0] // 2
        bias = rel_bias
        if cfg.pair_bias:
            pb = self.pair_bias(pair)  # (H, L, L) on the struct-struct quadrant
            bias = bias + ad.pad(pb, ((0, 0), (0, length), (0, length)))
        # SeqStruct attention reads the updated sequence rows, so they stay until then
        rows = length if struct_only and not cfg.seqstruct_attention else None
        h = (h if rows is None else h[:rows]) + self.attn(self.attn_norm(h), bias=bias, rows=rows)
        if cfg.seqstruct_attention:
            h_struct, h_seq = h[:length], h[length:]
            d_seq, d_struct = self.seqstruct(h_seq, h_struct, pair)
            h = h_struct + d_struct if struct_only else h + ad.concat([d_struct, d_seq], axis=0)
        if cfg.struct_transition:
            delta = self.struct_trans(h[:length])
            h = h + (delta if struct_only else ad.pad(delta, ((0, length), (0, 0))))
        return h + self.transition(h)


class PairUpdate(Module):
    """The pair track's update between two trunk blocks: triangle updates,
    triangle attention and the pair transition, as each config enables."""

    def __init__(self, rng, cfg: ModelConfig):
        self.cfg = cfg
        self.pair_transition = nn.Transition(rng, cfg.d_pair, cfg.transition_ratio)
        if cfg.triangle_update:
            self.tri_out = TriangleUpdate(rng, cfg.d_pair, cfg.d_tri_update, "outgoing")
            self.tri_in = TriangleUpdate(rng, cfg.d_pair, cfg.d_tri_update, "incoming")
        if cfg.triangle_attention:
            self.tri_start = TriangleAttention(rng, cfg.d_pair, cfg.d_tri_attn_head, cfg.heads_tri, "starting")
            self.tri_end = TriangleAttention(rng, cfg.d_pair, cfg.d_tri_attn_head, cfg.heads_tri, "ending")

    def __call__(self, pair):
        cfg = self.cfg
        if cfg.triangle_update:
            pair = pair + ad.recompute(self.tri_out, pair)
            pair = pair + ad.recompute(self.tri_in, pair)
        if cfg.triangle_attention:
            pair = pair + self.tri_start(pair)
            pair = pair + self.tri_end(pair)
        return pair + self.pair_transition(pair)


# -- full language model -----------------------------------------------------

@dataclass
class Positional:
    """What a forward reads that depends only on the length and the
    parameters. `generate` builds it once per call under `no_grad` and
    passes it to every forward; a forward without it builds its own, so
    training records these ops in its graph as before."""

    length: int  # residues, at positions 0..L-1
    pos_emb: np.ndarray  # (L, d_model) sinusoidal embedding, a constant
    modality: tuple  # (structure rows, sequence rows), two (L, d_model) Tensors
    rel_bias: list  # per block, its (H, 2L, 2L) relative-position bias


class ProteinLM(Module):
    """Joint masked language model over sequence and structure tokens."""

    def __init__(self, cfg: ModelConfig):
        rng = np.random.default_rng(cfg.seed)
        d, k = cfg.d_model, cfg.k
        self.cfg = cfg
        self.k = cfg.k
        self.schedule = dfn.make_schedule(cfg.T, weighting=cfg.weighting)
        self.seq_embed = Tensor(rng.normal(0.0, 0.5, size=(dfn.MASK_AA + 1, d)), requires_grad=True)
        if cfg.head == "bit":
            self.struct_in = Linear(rng, k, d)
            self.absorbing = Tensor(rng.normal(0.0, 0.5, size=(d,)), requires_grad=True)
            self.struct_layout = (k, 2)
        else:
            self.struct_embed = Tensor(rng.normal(0.0, 0.5, size=(2**k + 1, d)), requires_grad=True)
            self.struct_layout = (1, 2**k)
        self.struct_out = Linear(rng, d, int(np.prod(self.struct_layout)))
        self.modality = Tensor(rng.normal(0.0, 0.5, size=(2, d)), requires_grad=True)
        if cfg.pair_bias:
            self.pair_init = PairInit(rng, d, cfg.d_pair)
        self.blocks = [EncoderBlock(rng, cfg) for _ in range(cfg.n_blocks)]
        if cfg.pair_bias:  # no output reads the pair track after the last block
            self.pair_updates = [PairUpdate(rng, cfg) for _ in range(cfg.n_blocks - 1)]
        self.final_norm = LayerNorm(d)
        self.seq_out = Linear(rng, d, dfn.N_AA)

    def _embed_struct(self, state):
        length = len(state)
        if self.cfg.head == "bit":
            emb = self.struct_in(Tensor(state.struct_bits))
            gate = (~state.mask_struct).astype(ad.compute_dtype())[:, None]
            absorbed = ad.reshape(self.absorbing, (1, -1)) * (1.0 - gate)
            return emb * gate + absorbed
        return self.struct_embed[state.struct_index_view()]

    def positional(self, length):
        """The `Positional` record of `length` residues at positions 0..L-1."""
        positions = np.arange(length)
        joint = np.concatenate([positions, positions])  # both tracks share residue indices
        return Positional(
            length=length,
            pos_emb=nn.sinusoidal_embedding(positions, self.cfg.d_model),
            modality=(self.modality[np.zeros(length, dtype=int)],
                      self.modality[np.ones(length, dtype=int)]),
            rel_bias=[block.rel(joint) for block in self.blocks],
        )

    def forward(self, state: dfn.TokenState, positional=None):
        """LMOutput for `state`; `seq_logits` is None when no sequence
        position is masked, since nothing then reads them.

        `positional` is a record from `self.positional` for this state's
        length, built here when not given."""
        length = len(state)
        if positional is None:
            positional = self.positional(length)
        elif positional.length != length:
            raise ShapeMismatch(f"positional record of length {positional.length} "
                                f"for a state of length {length}")
        seq_read = bool(state.mask_seq.any())
        struct_rows, seq_rows = positional.modality
        h_struct = self._embed_struct(state) + positional.pos_emb + struct_rows
        h_seq = self.seq_embed[state.seq_view()] + positional.pos_emb + seq_rows
        h = ad.concat([h_struct, h_seq], axis=0)
        pair = ad.recompute(self.pair_init, h[:length]) if self.cfg.pair_bias else None
        hidden_layers = []
        last = len(self.blocks) - 1
        for i, (block, rel_bias) in enumerate(zip(self.blocks, positional.rel_bias)):
            h = block(h, pair, rel_bias, struct_only=i == last and not seq_read)
            hidden_layers.append(h[:length])
            if pair is not None and i < last:
                pair = self.pair_updates[i](pair)
        h = self.final_norm(h)
        return dfn.LMOutput(
            seq_logits=self.seq_out(h[length:]) if seq_read else None,
            struct_logits=ad.reshape(self.struct_out(h[:length]), (length, *self.struct_layout)),
            hidden_layers=hidden_layers,
        )

    def parameter_count(self):
        return sum(p.size for p in self.parameters().values())
