"""Absorbing discrete diffusion over the joint (sequence, structure-token)
state: noise schedule, forward corruption, the masked cross-entropy loss,
absorbing posterior, and mask-predict generation.

Sequence vocabulary: amino-acid ids 0..19 plus MASK (20). Structure
tokens travel as bit rows in {-1,+1}^K with per-position mask flags; how
the model embeds a masked row is its own affair (`geo_arch.ProteinLM`).

The model predicts a structure token as G groups of C-way logits, (L, G,
C): each group is K/G consecutive bits read as one code in [0, 2^(K/G)),
as `tokenizer.bits_to_index` maps them. The bit head is G = K, C = 2; the
index head is G = 1, C = 2^K. The loss and the sampler read the layout
from that shape alone. A state is one chain; every position is a residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import BadT, ModeInputMissing, ShapeMismatch
from .tokenizer import bits_to_index, index_to_bits, mask_id

N_AA = 20
MASK_AA = 20


@dataclass
class NoiseSchedule:
    T: int
    alpha_bar: np.ndarray  # (T+1,), alpha_bar[0] = 1 .. alpha_bar[T] = 0
    lambda_w: np.ndarray  # (T+1,) per-step loss weights


def make_schedule(T, weighting="uniform"):
    """Linear absorbing schedule: survival alpha_bar_t = 1 - t/T."""
    if T < 2:
        raise BadT(f"T must be >= 2, got {T}")
    t = np.arange(T + 1, dtype=np.float64)
    alpha_bar = 1.0 - t / T
    if weighting == "uniform":
        lam = np.ones(T + 1)
    elif weighting == "inv-t":
        lam = np.ones(T + 1)
        lam[1:] = 1.0 / t[1:]
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return NoiseSchedule(T=T, alpha_bar=alpha_bar, lambda_w=lam)


@dataclass
class TokenState:
    """Joint token state; masked flags are True where the track is hidden."""

    seq: np.ndarray  # (L,) int
    struct_bits: np.ndarray  # (L, K) float in {-1,+1}; rows under mask are ignored
    mask_seq: np.ndarray  # (L,) bool
    mask_struct: np.ndarray  # (L,) bool

    @classmethod
    def observed(cls, seq, struct_bits):
        seq = np.asarray(seq, dtype=np.int64)
        struct_bits = np.asarray(struct_bits, dtype=np.float64)
        length = len(seq)
        return cls(
            seq=seq.copy(),
            struct_bits=struct_bits.copy(),
            mask_seq=np.zeros(length, dtype=bool),
            mask_struct=np.zeros(length, dtype=bool),
        )

    @classmethod
    def all_masked(cls, length, k):
        return cls(
            seq=np.full(length, MASK_AA, dtype=np.int64),
            struct_bits=np.zeros((length, k)),
            mask_seq=np.ones(length, dtype=bool),
            mask_struct=np.ones(length, dtype=bool),
        )

    @property
    def k(self):
        return self.struct_bits.shape[1]

    def __len__(self):
        return len(self.seq)

    def copy(self):
        return TokenState(self.seq.copy(), self.struct_bits.copy(), self.mask_seq.copy(),
                          self.mask_struct.copy())

    def seq_view(self):
        """Sequence ids with MASK_AA at masked positions."""
        out = self.seq.copy()
        out[self.mask_seq] = MASK_AA
        return out

    def struct_index_view(self):
        """Index tokens with the MASK id at masked positions."""
        out = bits_to_index(self.struct_bits)[:, 0]
        out[self.mask_struct] = mask_id(self.k)
        return out

    def fully_unmasked(self):
        return not (self.mask_seq.any() or self.mask_struct.any())


@dataclass
class LMOutput:
    seq_logits: object  # Tensor (L, 20); None when no sequence position is masked
    struct_logits: object  # Tensor (L, G, C): (L, K, 2) for the bit head, (L, 1, 2^K) for index
    hidden_layers: list = field(default_factory=list)  # per-layer (L, D) Tensors


# -- forward corruption ------------------------------------------------------

def forward_mask(x0: TokenState, schedule: NoiseSchedule, t, rng,
                 corrupt_seq=True, corrupt_struct=True):
    """Independently mask each position with probability 1 - alpha_bar_t.

    Conditioning regimes exempt a track by passing corrupt_* = False.
    """
    if not 0 <= t <= schedule.T:
        raise BadT(f"t={t} outside [0, {schedule.T}]")
    out = x0.copy()
    p_mask = 1.0 - schedule.alpha_bar[t]
    if corrupt_seq:
        out.mask_seq = rng.random(len(x0)) < p_mask
    if corrupt_struct:
        out.mask_struct = rng.random(len(x0)) < p_mask
    return out


# -- losses ------------------------------------------------------------------

def _masked_ce(logits, targets, mask):
    """Mean negative log-likelihood over masked positions (0 if none)."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return ad.Tensor(0.0)
    picked = ad.log_softmax(logits, axis=-1)[idx, targets[idx]]
    return -picked.mean()


def seq_ce(output: LMOutput, x0: TokenState, xt: TokenState):
    """Sequence CE; 0 when no sequence position is masked, as then the
    model returns no `seq_logits`."""
    return _masked_ce(output.seq_logits, x0.seq, xt.mask_seq)


def loss_bit(output: LMOutput, x0: TokenState, xt: TokenState, t, schedule: NoiseSchedule):
    """lambda_t * (seq CE + structure CE), each averaged over its masked set.

    One loss for both heads: the structure CE of a position sums the CE of
    each of its G groups under the (L, G, C) logits, so it is the sum of K
    per-bit CEs for the bit head and the 2^K-way index CE for the index
    head."""
    idx = np.flatnonzero(xt.mask_struct)
    if len(idx) == 0:
        struct = ad.Tensor(0.0)
    else:
        groups = output.struct_logits.shape[1]
        lp = ad.log_softmax(output.struct_logits, axis=-1)
        targets = bits_to_index(x0.struct_bits, groups)[idx]  # (n, G)
        rows = np.repeat(idx, groups)
        cols = np.tile(np.arange(groups), len(idx))
        picked = lp[rows, cols, targets.reshape(-1)]
        struct = -picked.sum() * (1.0 / len(idx))  # sum over groups, mean over positions
    return (seq_ce(output, x0, xt) + struct) * schedule.lambda_w[t]


# -- reverse process ---------------------------------------------------------

def unmask_probability(schedule: NoiseSchedule, t, s=None):
    """Absorbing-posterior unmask probability going from step t to step s < t."""
    s = t - 1 if s is None else s
    a_t, a_s = schedule.alpha_bar[t], schedule.alpha_bar[s]
    return (a_s - a_t) / (1.0 - a_t) if a_t < 1.0 else 1.0


def posterior_step(xt: TokenState, x0_pred: TokenState, t, rng, schedule: NoiseSchedule, s=None):
    """Sample x_{t-1}: masked positions unmask to their predicted token with
    probability (alpha_bar_s - alpha_bar_t)/(1 - alpha_bar_t); unmasked
    positions are kept (absorbing posterior)."""
    p_unmask = unmask_probability(schedule, t, s)
    out = xt.copy()
    for mask_attr, value_attr in (("mask_seq", "seq"), ("mask_struct", "struct_bits")):
        reveal = getattr(xt, mask_attr) & (rng.random(len(xt)) < p_unmask)
        getattr(out, value_attr)[reveal] = getattr(x0_pred, value_attr)[reveal]
        getattr(out, mask_attr)[reveal] = False
    return out


# -- prediction sampling -----------------------------------------------------

@dataclass
class Prediction:
    """Sampled x0 guess plus per-position confidence per track."""

    state: TokenState
    conf_seq: np.ndarray
    conf_struct: np.ndarray


def sample_prediction(output: LMOutput, xt: TokenState, temperature, rng):
    """Draw a full x0 candidate at masked positions from the model output."""
    length = len(xt)
    state = xt.copy()
    state.mask_seq = np.zeros(length, dtype=bool)
    state.mask_struct = np.zeros(length, dtype=bool)
    conf_seq = np.zeros(length)
    seq_masked = np.flatnonzero(xt.mask_seq)
    if len(seq_masked):  # the amino acids are one group of N_AA classes
        codes, conf_seq[seq_masked] = _draw(output.seq_logits.data[seq_masked, None], temperature, rng)
        state.seq[seq_masked] = codes[:, 0]
    conf_struct = np.zeros(length)
    idx = np.flatnonzero(xt.mask_struct)
    codes, conf_struct[idx] = _draw(output.struct_logits.data[idx], temperature, rng)
    state.struct_bits[idx] = index_to_bits(codes, xt.k)
    return Prediction(state=state, conf_seq=conf_seq, conf_struct=conf_struct)


def _draw(logits, temperature, rng):
    """A class per (row, group) of (n, G, C) `logits` at `temperature`, and
    each row's confidence, the product over its groups of p(chosen). One
    (n, G) draw takes the same numbers as n draws of G."""
    probs = _temperature_softmax(logits, temperature)
    codes = _draw_from_top(probs, rng)
    return codes, np.take_along_axis(probs, codes[..., None], axis=-1)[..., 0].prod(axis=1)


def _draw_from_top(probs, rng):
    """One inverse-CDF draw of a class per row of `probs`' last axis, one
    uniform u per row, with the classes stacked from the highest down: the
    top class is drawn when u < p(top), so at two classes class 1 is drawn
    exactly when u < p(1)."""
    above = np.cumsum(probs[..., :0:-1], axis=-1)  # mass of the top 1, 2, .., C-1 classes
    u = rng.random(probs.shape[:-1])
    return probs.shape[-1] - 1 - (above <= u[..., None]).sum(axis=-1)


def _temperature_softmax(logits, temperature):
    x = logits / max(temperature, 1e-8)
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


# -- generation --------------------------------------------------------------

def generate(model, length, mode="unconditional", steps=25, strategy="stochastic",
             temperature=1.0, *, rng, seq=None, struct_bits=None):
    """Iterative mask-predict generation.

    mode: 'unconditional' | 'folding' (seq of `length` tokens given, struct
    generated) | 'inverse_folding' (`length` rows of struct bits given, seq
    generated). `model` exposes .positional(length), .forward(TokenState,
    positional=...) -> LMOutput, .schedule and .k. The positional record
    is built once, under `no_grad`, and passed to every forward, since
    positions do not change between steps. The output's `seq_logits` are
    read only when the state masks some sequence position, and may be None
    otherwise, as in folding. `steps` is in [1, T].
    """
    schedule = model.schedule
    if not 1 <= steps <= schedule.T:
        raise BadT(f"steps={steps} outside [1, T={schedule.T}]")
    k = model.k
    state = TokenState.all_masked(length, k)
    if mode == "folding":
        if seq is None:
            raise ModeInputMissing("folding mode requires seq")
        if len(seq) != length:
            raise ShapeMismatch(f"folding seq has {len(seq)} tokens for length {length}")
        state.seq = np.asarray(seq, dtype=np.int64).copy()
        state.mask_seq[:] = False
    elif mode == "inverse_folding":
        if struct_bits is None:
            raise ModeInputMissing("inverse_folding mode requires struct_bits")
        if len(struct_bits) != length:
            raise ShapeMismatch(f"inverse_folding struct_bits has {len(struct_bits)} rows "
                                f"for length {length}")
        state.struct_bits = np.asarray(struct_bits, dtype=np.float64).copy()
        state.mask_struct[:] = False
    elif mode != "unconditional":
        raise ValueError(f"unknown mode {mode!r}")

    with ad.no_grad():
        positional = model.positional(length)
    grid = np.unique(np.round(np.linspace(0, schedule.T, steps + 1)).astype(int))[::-1]
    for t, s in zip(grid[:-1], grid[1:]):
        if state.fully_unmasked():
            break
        with ad.no_grad():
            output = model.forward(state, positional=positional)
        pred = sample_prediction(output, state, temperature, rng)
        if strategy == "stochastic":
            state = posterior_step(state, pred.state, t, rng, schedule, s=s)
        elif strategy == "confidence":
            state = _confidence_step(state, pred, schedule, s)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
    assert state.fully_unmasked()
    return state


def _confidence_step(xt: TokenState, pred: Prediction, schedule: NoiseSchedule, s):
    """Unmask the highest-confidence masked positions; the number revealed
    follows the alpha_bar schedule. Ties break toward lower position index."""
    out = xt.copy()
    keep_frac = schedule.alpha_bar[s]
    for mask_attr, value_attr, conf in (
        ("mask_seq", "seq", pred.conf_seq),
        ("mask_struct", "struct_bits", pred.conf_struct),
    ):
        mask = getattr(xt, mask_attr)
        n_masked = mask.sum()
        # alpha_bar[0] = 1, so at s = 0 every masked position is revealed
        target_unmasked = int(round(len(xt) * keep_frac))
        n_reveal = min(max(target_unmasked - (len(xt) - n_masked), 0), n_masked)
        if n_reveal == 0:
            continue
        cand = np.flatnonzero(mask)
        reveal = cand[np.lexsort((cand, -conf[cand]))][:n_reveal]
        getattr(out, value_attr)[reveal] = getattr(pred.state, value_attr)[reveal]
        getattr(out, mask_attr)[reveal] = False
    return out
