"""Metrics: token accuracies, folding evaluation, and cluster-based
diversity, reported as CSV / text.

bit accuracy >= index accuracy holds by construction: a correct index
implies all of its bits are correct, never the converse.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import diffusion as dfn
from . import geometry as geo
from . import resdiff as rd
from . import tokenizer as tok
from .errors import LengthMismatch

CSV_HEADER = "id,rmsd,tm,bit_acc,index_acc"
DIVERSITY_TM_THRESHOLD = 0.5


def token_accuracy(pred, truth):
    """{bit_acc, index_acc} between predicted and true (L, K) bit arrays,
    NaN for L = 0."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape[0] != truth.shape[0]:
        raise LengthMismatch(f"{pred.shape[0]} vs {truth.shape[0]}")
    if len(pred) == 0:
        return {"bit_acc": float("nan"), "index_acc": float("nan")}
    match = (pred > 0) == (truth > 0)
    return {"bit_acc": float(match.mean()), "index_acc": float(match.all(axis=1).mean())}


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)  # dicts: id, rmsd, tm, bit_acc, index_acc
    runtime: float = 0.0

    def aggregates(self):
        out = {}
        for key in ("rmsd", "tm", "bit_acc", "index_acc"):
            values = [r[key] for r in self.rows if np.isfinite(r[key])]
            out[key] = {
                "mean": float(np.mean(values)) if values else float("nan"),
                "median": float(np.median(values)) if values else float("nan"),
            }
        return out

    def to_csv(self):
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            buf.write(f"{r['id']},{r['rmsd']:.6f},{r['tm']:.6f},{r['bit_acc']:.6f},{r['index_acc']:.6f}\n")
        return buf.getvalue()

    def summary(self):
        agg = self.aggregates()
        lines = [f"samples: {len(self.rows)}", f"runtime_s: {self.runtime:.3f}"]
        for key, stats in agg.items():
            lines.append(f"{key}: mean {stats['mean']:.4f} median {stats['median']:.4f}")
        return "\n".join(lines)


def folding_eval(lm, tokenizer_params, dataset, steps=25, seed=0, resdiff_head=None):
    """Folding-mode generation, with the confidence strategy at temperature
    1, and structure metrics per dataset item.

    `dataset` is a list of (structure, sequence) pairs with ground truth.
    """
    t0 = time.time()
    report = EvalReport()
    rng = np.random.default_rng(seed)
    for structure, seq in dataset:
        true_bits = tok.tokenize(structure, tokenizer_params).bits
        out = dfn.generate(
            lm, len(structure), mode="folding", steps=steps, strategy="confidence",
            rng=rng, seq=np.asarray(seq),
        )
        pred_bits = out.struct_bits
        acc = token_accuracy(pred_bits, true_bits)
        decode_bits = pred_bits
        if resdiff_head is not None:
            with ad.no_grad():
                cond = rd.condition(pred_bits, rd.lm_hidden(lm, out), resdiff_head)
            decode_bits = pred_bits + rd.resdiff_sample(cond.data, resdiff_head, rng)
        coords = tok.decode(decode_bits, tokenizer_params).data
        pred = geo.BackboneStructure(coords, structure.chain_ids, structure.source_id)
        report.rows.append({
            "id": structure.source_id,
            "rmsd": geo.rmsd(pred, structure),
            "tm": geo.tm_score(pred, structure),
            "bit_acc": acc["bit_acc"],
            "index_acc": acc["index_acc"],
        })
    report.runtime = time.time() - t0
    return report


def diversity(samples):
    """Normalized cluster count in (0, 1] via greedy leader clustering.

    Samples are scanned in order; each joins the first cluster whose
    representative scores tm >= DIVERSITY_TM_THRESHOLD against it, else
    founds a new cluster. Returns n_clusters / n_samples.
    """
    if not samples:
        raise ValueError("need at least one sample")
    length = len(samples[0])
    for s in samples[1:]:
        if len(s) != length:
            raise LengthMismatch(f"{len(s)} vs {length}")
    leaders = []
    for s in samples:
        for leader in leaders:
            if geo.tm_score(s, leader) >= DIVERSITY_TM_THRESHOLD:
                break
        else:
            leaders.append(s)
    return len(leaders) / len(samples)

