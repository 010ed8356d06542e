"""Ablation-grid harness: train and evaluate a set of model variants on
one dataset with a shared tokenizer, reporting folding metrics per row.

Rows are deterministic given the seed and sorted by configuration name.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import evalsuite
from . import training
from .config import ModelConfig

DEFAULT_GRID = {
    "0-baseline-index": {"head": "index"},
    "1-bit": {"head": "bit"},
    "2-geo-bit": {"head": "bit", "pair_bias": True},
    "3-geo-bit-repa": {"head": "bit", "pair_bias": True, "repa_enabled": True},
    "4-geo-bit-repa-sft": {
        "head": "bit", "pair_bias": True, "repa_enabled": True, "folding_sft": True,
    },
}


def reproduce_grid(dataset, tokenizer_params, base_cfg: ModelConfig = None, grid=None,
                   eval_steps=25, seed=0, log_every=0):
    """One row per configuration: train a fresh LM, evaluate folding.

    `grid` maps row name -> ModelConfig field overrides applied on top of
    `base_cfg`. Returns a list of row dicts sorted by name.
    """
    base_cfg = ModelConfig() if base_cfg is None else base_cfg
    grid = DEFAULT_GRID if grid is None else grid
    rows = []
    for name in sorted(grid):
        cfg = replace(base_cfg, **grid[name])
        cfg.seed = seed
        cfg.validate()
        lm = training.build_lm(cfg)
        t0 = time.time()
        training.train_lm(lm, tokenizer_params, dataset, cfg, log_every=log_every)
        train_seconds = time.time() - t0
        report = evalsuite.folding_eval(
            lm, tokenizer_params, dataset, steps=eval_steps, seed=seed,
        )
        agg = report.aggregates()
        rows.append({
            "name": name,
            "rmsd": agg["rmsd"]["mean"],
            "tm": agg["tm"]["mean"],
            "bit_acc": agg["bit_acc"]["mean"],
            "index_acc": agg["index_acc"]["mean"],
            "train_seconds": train_seconds,
        })
    return rows


def format_grid(rows):
    header = f"{'name':24s} {'rmsd':>8s} {'tm':>6s} {'bit':>6s} {'index':>6s} {'sec':>7s}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['name']:24s} {r['rmsd']:8.3f} {r['tm']:6.3f} {r['bit_acc']:6.3f} "
            f"{r['index_acc']:6.3f} {r['train_seconds']:7.1f}"
        )
    return "\n".join(lines)


def diversity_protocol(sample_fn, lengths=evalsuite.DIVERSITY_LENGTHS,
                       n_samples=evalsuite.DIVERSITY_N_SAMPLES, seed=0):
    """Diversity at each length: sample_fn(length, rng) -> BackboneStructure."""
    out = {}
    for length in lengths:
        rng = np.random.default_rng(seed + length)
        samples = [sample_fn(length, rng) for _ in range(n_samples)]
        out[length] = evalsuite.diversity(samples)
    return out
