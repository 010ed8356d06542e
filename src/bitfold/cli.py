"""Command-line interface.

Subcommands: gen-data, train-tokenizer, train-lm, finetune-fm,
train-resdiff, sample, eval, grad-check. All randomness derives
from --seed; the commands that build or load a model read their
configuration from --config files with --set key=value overrides.
train-lm takes its seed and step count from the config's `seed` and
`steps`, which --seed and --steps override when given. Exit code 2 on
usage errors, 1 on runtime failures.

Each subcommand loads its inputs, makes its library calls and saves the
result. The stages after train-tokenizer hand the loaded models, with no
wrapper, to `training.train_lm`, `hybrid_fm.fm_finetune`,
`resdiff.train_resdiff`, `hybrid_fm.fm_generate`, `tokenizer.decode` or
`evalsuite.folding_eval`.

A command that loads a checkpoint must repeat that component's config keys
(`config.COMPONENT_KEYS`), and only those: an LM trained with
`--set pair_bias=true` is sampled with `--set pair_bias=true`, while its
sampler and training keys are free to differ.

An LM checkpoint holds the LM's parameters alone: the REPA head that
`training.train_lm` builds and trains under `repa_enabled` is not saved.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import diffusion as dfn
from . import evalsuite
from . import geometry as geo
from . import hybrid_fm
from . import resdiff as rd
from . import tokenizer as tok
from . import training
from .config import check_architecture, format_config, load_config
from .errors import (
    BitfoldError, DegenerateInput, InvalidConfig, LengthMismatch, ModeInputMissing, ParseError,
)


# -- dataset layout -----------------------------------------------------------

def write_sample(directory, structure, seq):
    base = os.path.join(directory, structure.source_id)
    with open(base + ".bkb", "w") as fh:
        fh.write(geo.write_backbone(structure))
    with open(base + ".seq", "w") as fh:
        fh.write(" ".join(str(int(a)) for a in seq) + "\n")


def load_dataset(directory):
    """Sorted (structure, sequence) pairs from `<id>.bkb` / `<id>.seq` files."""
    items = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".bkb"):
            continue
        base = os.path.join(directory, name[: -len(".bkb")])
        structure = geo.load_backbone(base + ".bkb")
        seq = load_sequence(base + ".seq")
        if len(seq) != len(structure):
            raise LengthMismatch(
                f"{base}.seq: {len(seq)} residues, but {base}.bkb has {len(structure)}"
            )
        items.append((structure, seq))
    if not items:
        raise DegenerateInput(f"no training items: --data {directory} has no .bkb files")
    return items


def load_sequence(path):
    """The amino-acid ids in the file at `path`: integers in [0, 20)
    separated by whitespace."""
    with open(path) as fh:
        tokens = fh.read().split()
    for i, token in enumerate(tokens, start=1):
        if not (token.isdecimal() and int(token) < dfn.N_AA):
            raise ParseError(f"{path}: token {i}: expected an amino-acid id "
                             f"in [0, {dfn.N_AA}), got {token!r}")
    return np.array([int(token) for token in tokens], dtype=np.int64)


def load_samples(directory):
    """Every `<id>.bkb` backbone in `directory`, sorted by name, all of one length."""
    paths = [os.path.join(directory, name) for name in sorted(os.listdir(directory))
             if name.endswith(".bkb")]
    if not paths:
        raise DegenerateInput(f"no samples: --data {directory} has no .bkb files")
    samples = [geo.load_backbone(path) for path in paths]
    for path, structure in zip(paths, samples):
        if len(structure) != len(samples[0]):
            raise LengthMismatch(
                f"{path}: {len(structure)} residues, but {paths[0]} has {len(samples[0])}"
            )
    return samples


# -- checkpoint helpers -------------------------------------------------------

def _save_model(path, module, cfg, step=0):
    ckpt.save_checkpoint(path, module.parameters(), format_config(cfg), step=step)


def _load(path, module, cfg, component):
    """Restore `module` from `path` once the stored config agrees with `cfg`
    on `component`'s keys."""
    tensors, stored, _ = ckpt.load_checkpoint(path)
    check_architecture(path, stored, cfg, component)
    try:
        ckpt.restore_parameters(module, tensors)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from None
    return module


def load_lm(path, cfg):
    return _load(path, training.build_lm(cfg), cfg, "lm")


def load_tokenizer(path, cfg):
    return _load(path, tok.TokenizerParams(_tok_cfg(cfg)), cfg, "tokenizer")


def _tok_cfg(cfg):
    return tok.TokenizerConfig(k=cfg.k, width=cfg.tok_width, blocks=cfg.tok_blocks, heads=cfg.tok_heads)


def _resdiff_head(cfg, seed):
    return rd.ResDiffHead(
        k=cfg.k, d_hidden=cfg.resdiff_hidden, n_layers=cfg.resdiff_layers,
        d_lm=cfg.d_model, n_lm_layers=cfg.n_blocks, t_r=cfg.resdiff_t_r, seed=seed,
    )


# -- subcommands --------------------------------------------------------------

def cmd_gen_data(args):
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.n):
        length = int(rng.integers(args.min_len, args.max_len + 1))
        structure, seq = geo.synth_backbone(geo.SynthSpec(length=length),
                                            seed=args.seed * 100003 + i)
        structure.source_id = f"synth{i:05d}"
        write_sample(args.out, structure, seq)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def cmd_train_tokenizer(args):
    cfg = load_config(args.config, args.set or [])
    dataset = load_dataset(args.data)
    structures = [s for s, _ in dataset]
    params, report = tok.train_tokenizer(
        structures, _tok_cfg(cfg), seed=args.seed, steps=args.steps,
        log_every=args.log_every,
    )
    _save_model(args.out, params, cfg, step=args.steps)
    print("reconstruction:", report.summary())
    return 0


def cmd_train_lm(args):
    cfg = load_config(args.config, args.set or [])
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.steps = args.steps
    dataset = load_dataset(args.data)
    tokenizer_params = load_tokenizer(args.tokenizer, cfg)
    lm = training.build_lm(cfg)
    losses = training.train_lm(lm, tokenizer_params, dataset, cfg, log_every=args.log_every)
    _save_model(args.out, lm, cfg, step=cfg.steps)
    if losses:
        print(f"final loss {losses[-1]:.4f} over {len(losses)} steps")
    else:
        print("loss report empty")
    return 0


def cmd_finetune_fm(args):
    cfg = load_config(args.config, args.set or [])
    dataset = load_dataset(args.data)
    tokenizer_params = load_tokenizer(args.tokenizer, cfg)
    lm = load_lm(args.ckpt, cfg)
    hybrid_fm.fm_finetune(
        lm, tokenizer_params, dataset, steps=args.steps, seed=args.seed,
        peak=cfg.lr_peak, warmup=cfg.warmup, floor=cfg.lr_floor, log_every=args.log_every,
    )
    _save_model(args.out, lm, cfg, step=args.steps)
    return 0


def cmd_train_resdiff(args):
    cfg = load_config(args.config, args.set or [])
    dataset = load_dataset(args.data)
    tokenizer_params = load_tokenizer(args.tokenizer, cfg)
    lm = load_lm(args.ckpt, cfg)
    head = _resdiff_head(cfg, args.seed)
    rd.train_resdiff(
        head, lm, tokenizer_params, dataset, steps=args.steps, seed=args.seed,
        peak=cfg.lr_peak, warmup=cfg.warmup, floor=cfg.lr_floor, log_every=args.log_every,
    )
    _save_model(args.out, head, cfg, step=args.steps)
    return 0


def cmd_sample(args):
    cfg = load_config(args.config, args.set or [])
    tokenizer_params = load_tokenizer(args.tokenizer, cfg)
    lm = load_lm(args.ckpt, cfg)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.n):
        if cfg.fm_enabled:
            structure = hybrid_fm.fm_generate(lm, tokenizer_params, args.length, rng,
                                              n_steps=cfg.fm_n_steps)
        else:
            state = dfn.generate(
                lm, args.length, mode="unconditional", steps=args.steps,
                strategy=args.strategy, temperature=args.temperature, rng=rng,
            )
            coords = tok.decode(state.struct_bits, tokenizer_params).data
            structure = geo.BackboneStructure(coords, np.zeros(args.length, dtype=int))
        structure.source_id = f"sample{i:04d}"
        with open(os.path.join(args.out, f"{structure.source_id}.bkb"), "w") as fh:
            fh.write(geo.write_backbone(structure))
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def cmd_eval(args):
    if args.mode == "folding":
        if args.ckpt is None:
            raise ModeInputMissing("eval --mode folding needs --ckpt, the LM checkpoint to fold with")
        if args.tokenizer is None:
            raise ModeInputMissing("eval --mode folding needs --tokenizer, the tokenizer checkpoint")
    cfg = load_config(args.config, args.set or [])
    if args.mode == "diversity":
        samples = load_samples(args.data)
        print(f"diversity: {evalsuite.diversity(samples):.4f} over {len(samples)} samples")
        return 0
    tokenizer_params = load_tokenizer(args.tokenizer, cfg)
    dataset = load_dataset(args.data)
    lm = load_lm(args.ckpt, cfg)
    head = None
    if args.resdiff:
        head = _load(args.resdiff, _resdiff_head(cfg, args.seed), cfg, "resdiff")
    report = evalsuite.folding_eval(
        lm, tokenizer_params, dataset, steps=args.steps, seed=args.seed, resdiff_head=head,
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    print(report.summary())
    return 0


def cmd_grad_check(_args):
    from .gradsuite import run_grad_suite

    reports = run_grad_suite()
    worst = max(reports, key=lambda r: r[1].max_rel_err)
    for name, rep in reports:
        print(f"{name}: max rel err {rep.max_rel_err:.2e} ({'pass' if rep.passed else 'FAIL'})")
    print(f"worst: {worst[0]} {worst[1].max_rel_err:.2e}")
    return 0 if all(rep.passed for _, rep in reports) else 1


# -- parser -------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="bitfold", description="Token-based protein structure modeling")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        return p

    p = sub.add_parser("gen-data", help="generate synthetic backbones")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-len", type=int, default=16)
    p.add_argument("--max-len", type=int, default=48)
    p.set_defaults(func=cmd_gen_data)

    p = common(sub.add_parser("train-tokenizer"))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train_tokenizer)

    p = common(sub.add_parser("train-lm"))
    p.add_argument("--data", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None, help="overrides the config's steps")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train_lm, seed=None)  # --seed overrides the config's seed

    p = common(sub.add_parser("finetune-fm"))
    p.add_argument("--data", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_finetune_fm)

    p = common(sub.add_parser("train-resdiff"))
    p.add_argument("--data", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train_resdiff)

    p = common(sub.add_parser("sample"))
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--strategy", default="confidence", choices=("stochastic", "confidence"))
    p.add_argument("--temperature", type=float, default=1.0)
    p.set_defaults(func=cmd_sample)

    p = common(sub.add_parser("eval"))
    p.add_argument("--mode", required=True, choices=("folding", "diversity"))
    p.add_argument("--data", required=True)
    p.add_argument("--tokenizer", default=None, help="needed for --mode folding")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--resdiff", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--steps", type=int, default=25)
    p.set_defaults(func=cmd_eval)

    sub.add_parser("grad-check").set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BitfoldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
