"""The four benchmark workloads and the op clock that times them.

Every workload is a closed loop with one client in one process: training
runs one step after another, and sampling folds one structure after
another. An op is one training step or one structure folded. Inputs are
seeded synthetic backbones from `geometry.synth_backbone`; the library
sees only those inputs.

Training runs go through `training.train_lm` and `tokenizer.train_tokenizer`
unchanged. Both loops read `len(dataset)` first thing in every step, so the
dataset handed to them is a list whose length lookup marks the step
boundary and ends the run when the time is up (`ClockedList`). Two probes
read what the loops do not return: the loss of each step (at
`Tensor.backward`) and the residues it processed (at
`diffusion.forward_mask` or `tokenizer.reconstruction_loss`, which also
checks the reconstructions are finite).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from bitfold import autodiff as ad
from bitfold import diffusion as dfn
from bitfold import evalsuite, training
from bitfold import geometry as geo
from bitfold import tokenizer as tok
from bitfold.config import ModelConfig

# Model weights and the training and sampling randomness use one fixed seed,
# like a fixed checkpoint and recipe; --seed draws only the inputs. With the
# model seed tied to --seed as well, loss_tail of train-plain spread 22%
# (quartile distance over the median) across five seeds, against 3% with it fixed.
MODEL_SEED = 0
# Longer than any run, so the learning-rate schedule never depends on run length.
LR_HORIZON = 1_000_000
LM_LR_WARMUP = 20  # the default 2000-step warm-up would leave the lr near zero
GEO_FLAGS = dict(pair_bias=True, struct_transition=True, triangle_update=True,
                 triangle_attention=True, seqstruct_attention=True)
FOLD_STEPS = 25
FOLD_STRATEGY = "confidence"


class Stop(Exception):
    """Raised at an op boundary: set-up is over, or the measured time is."""


class OpClock:
    """Marks op starts. Ops before index 0 are warm-up and count as set-up.

    With `final` false the clock stops at the first timed op, which ends one
    set-up repetition. Otherwise it stops at the first op boundary after
    `seconds` of timed ops, once at least `min_ops` ops have completed.
    """

    def __init__(self, warmup, seconds, min_ops, final, tracer=None):
        self.index = -warmup - 1
        self.seconds = seconds
        self.min_ops = min_ops
        self.final = final
        self.tracer = tracer
        self.setup_end = None
        self.starts = []  # start of each timed op, then the end of the last one

    def tick(self):
        now = time.perf_counter()
        self.index += 1
        if self.index < 0:
            return
        if self.index == 0:
            self.setup_end = now
            if not self.final:
                raise Stop
        self.starts.append(now)
        if self.index >= self.min_ops and now - self.starts[0] >= self.seconds:
            raise Stop
        if self.tracer is not None:
            self.tracer.mark_op(self.index)

    def durations_ms(self):
        return [1e3 * (b - a) for a, b in zip(self.starts, self.starts[1:])]


class ClockedList(list):
    """A training dataset whose length lookup is the step clock."""

    def __init__(self, items, clock):
        super().__init__(items)
        self.clock = clock

    def __len__(self):
        self.clock.tick()
        return super().__len__()

    def __bool__(self):  # a truth test (`if not dataset`) is not a step
        return super().__len__() > 0


class Record:
    """What the ops produced, keyed by timed op index (warm-up ops are < 0)."""

    def __init__(self):
        self.clock = None
        self.loss = {}
        self.residues = {}
        self.failures = {}  # op index -> what went wrong; one failed op each

    def fail(self, what):
        self.failures.setdefault(self.clock.index, what)

    def check(self, ok, what):
        if not ok:
            self.fail(what)


def install_probes(patcher, record, kind):
    """Probes on the training loops; `kind` is 'lm' or 'tokenizer'."""

    def on_backward(fn):
        def backward(loss):
            value = loss.item()
            record.check(np.isfinite(value), f"non-finite loss {value}")
            record.loss[record.clock.index] = value
            return fn(loss)

        return backward

    patcher.wrap(ad.Tensor, "backward", on_backward)
    if kind == "lm":
        def on_mask(fn):
            def forward_mask(x0, *args, **kwargs):
                record.residues[record.clock.index] = len(x0)
                return fn(x0, *args, **kwargs)

            return forward_mask

        patcher.wrap(dfn, "forward_mask", on_mask)
    else:
        def on_recon(fn):
            def reconstruction_loss(pred_coords, target, *args, **kwargs):
                record.check(np.isfinite(pred_coords.data).all(), "non-finite reconstruction")
                record.residues[record.clock.index] = len(target)
                return fn(pred_coords, target, *args, **kwargs)

            return reconstruction_loss

        patcher.wrap(tok, "reconstruction_loss", on_recon)


# -- inputs -------------------------------------------------------------------

def stratified_lengths(lo, hi, copies, seed):
    """`copies` rounds of every even length in [lo, hi], each round in seeded
    order. Each seed gets the same mix of lengths, so seeds vary the
    structures and not the work, and any run of whole rounds is balanced."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.permutation(np.arange(lo, hi + 1, 2)) for _ in range(copies)])


def synth_pairs(lengths, seed):
    return [geo.synth_backbone(geo.SynthSpec(length=int(n)), seed=seed * 1000 + i)
            for i, n in enumerate(lengths)]


def tokenizer_config(cfg: ModelConfig):
    return tok.TokenizerConfig(k=cfg.k, width=cfg.tok_width, blocks=cfg.tok_blocks,
                               heads=cfg.tok_heads)


# -- workloads ------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    probe: str  # which probes the loop needs: 'lm', 'tokenizer' or '' (own loop)
    warmup: int  # untimed ops at the end of set-up
    loss_end: int  # loss_tail averages timed ops [loss_end - loss_window, loss_end)
    loss_window: int
    lengths: tuple  # (lo, hi) residue range
    per_length: int  # structures per length in the input pool

    @property
    def training(self):
        return bool(self.probe)

    def build(self, seed, clock, record):
        """Make the inputs and models; return the call that runs the ops."""
        lengths = stratified_lengths(*self.lengths, self.per_length, seed)
        pairs = synth_pairs(lengths, seed)
        if self.name == "train-tokenizer":
            dataset = ClockedList([s for s, _ in pairs], clock)
            return lambda: tok.train_tokenizer(dataset, tok.TokenizerConfig(), seed=MODEL_SEED,
                                               steps=LR_HORIZON)
        cfg = ModelConfig(seed=MODEL_SEED, steps=LR_HORIZON, warmup=LM_LR_WARMUP,
                          **(GEO_FLAGS if self.name == "train-geo" else {}))
        tok_params = tok.TokenizerParams(tokenizer_config(cfg), seed=MODEL_SEED)
        lm = training.build_lm(cfg)
        if self.training:
            dataset = ClockedList(pairs, clock)
            return lambda: training.train_lm(lm, tok_params, dataset, cfg)
        return lambda: fold_loop(lm, tok_params, pairs, clock, record)


WORKLOADS = {
    w.name: w for w in (
        Workload("train-plain", "lm", warmup=3, loss_end=400, loss_window=200,
                 lengths=(32, 64), per_length=1),
        Workload("train-geo", "lm", warmup=2, loss_end=80, loss_window=40,
                 lengths=(48, 48), per_length=16),
        # loss_tail averages one fold of each of the 51 structures
        Workload("fold-sample", "", warmup=1, loss_end=51, loss_window=51,
                 lengths=(48, 80), per_length=3),
        # the tokenizer loss depends strongly on which structures a step sees,
        # so its pool is larger and its window longer
        Workload("train-tokenizer", "tokenizer", warmup=2, loss_end=240, loss_window=180,
                 lengths=(32, 64), per_length=6),
    )
}


def fold_loop(lm, tok_params, pairs, clock, record):
    """Fold the pool's structures in turn until the clock stops.

    A raised error counts as one failed op and the loop goes on, since
    folds are independent.
    """
    rng = np.random.default_rng(MODEL_SEED)
    for i in itertools.count():
        clock.tick()
        structure, seq = pairs[i % len(pairs)]
        record.residues[clock.index] = len(structure)
        try:
            record.loss[clock.index] = fold_one(lm, tok_params, structure, seq, rng, record)
        except Exception as exc:  # any error is a failed op; the next fold is independent
            record.fail(f"{type(exc).__name__}: {exc}")


def fold_one(lm, tok_params, structure, seq, rng, record):
    """encode -> generate (folding) -> decode -> RMSD/TM, with output checks."""
    with ad.no_grad():
        z = tok.encode(structure, tok_params)
        state = dfn.generate(lm, len(structure), mode="folding", steps=FOLD_STEPS,
                             strategy=FOLD_STRATEGY, rng=rng, seq=seq)
        coords = tok.decode(ad.Tensor(state.struct_bits), tok_params).data
    true_bits = np.where(z.data >= 0.0, 1.0, -1.0)
    record.check(state.fully_unmasked(), "state not fully unmasked")
    record.check(np.all(np.abs(state.struct_bits) == 1.0), "bits outside {-1,+1}")
    record.check(np.array_equal(state.seq, seq), "folding changed the given sequence")
    record.check(np.isfinite(coords).all(), "non-finite coordinates")
    pred = geo.BackboneStructure(coords, structure.chain_ids, structure.source_id)
    rmsd, tm = geo.rmsd(pred, structure), geo.tm_score(pred, structure)
    acc = evalsuite.token_accuracy(state.struct_bits, true_bits)["bit_acc"]
    record.check(np.isfinite(rmsd) and rmsd >= 0.0, f"bad RMSD {rmsd}")
    record.check(np.isfinite(tm) and 0.0 <= tm <= 1.0, f"bad TM {tm}")
    record.check(0.0 <= acc <= 1.0, f"bad bit accuracy {acc}")
    return rmsd
