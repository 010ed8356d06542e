"""Evaluation suite: folding evaluation runs its model calls without a
graph, and its ResDiff refinement matches the inline path it replaced."""

import numpy as np

import bitfold.autodiff as ad
from bitfold import diffusion as dfn
from bitfold import evalsuite
from bitfold import geo_arch as ga
from bitfold import geometry as geo
from bitfold import resdiff as rd
from bitfold import tokenizer as tok
from bitfold.config import ModelConfig


def test_folding_eval_resdiff_records_no_graph():
    k, n_blocks, d_model = 4, 2, 32
    lm = ga.ProteinLM(ModelConfig(d_model=d_model, heads=4, n_blocks=n_blocks, k=k))
    tokenizer_params = tok.TokenizerParams(tok.TokenizerConfig(k=k, width=32, blocks=1), seed=0)
    head = rd.ResDiffHead(k=k, d_hidden=8, n_layers=1, d_lm=d_model, n_lm_layers=n_blocks,
                          t_r=4, seed=0)
    dataset = [geo.synth_backbone(geo.SynthSpec(length=8), seed=0)]

    recording = []
    forward = lm.forward

    def spy(*args, **kwargs):
        recording.append(ad._grad_enabled)
        return forward(*args, **kwargs)

    lm.forward = spy
    report = evalsuite.folding_eval(lm, tokenizer_params, dataset, steps=2, resdiff_head=head)
    assert len(report.rows) == 1
    assert len(recording) > 2  # the generation steps plus the resdiff conditioning call
    assert not any(recording)


def _inline_resdiff_rows(lm, tokenizer_params, dataset, steps, seed, head):
    """(rmsd, tm) per item, with the ResDiff conditioning written out as
    `folding_eval` once computed it."""
    rows = []
    rng = np.random.default_rng(seed)
    for structure, seq in dataset:
        out = dfn.generate(lm, len(structure), mode="folding", steps=steps,
                           strategy="confidence", rng=rng, seq=np.asarray(seq))
        pred_bits = out.struct_bits
        with ad.no_grad():
            lm_out = lm.forward(out)
            hidden = [h.data for h in lm_out.hidden_layers]
            cond = rd.condition(pred_bits, hidden, head)
        decode_bits = pred_bits + rd.resdiff_sample(cond.data, head, rng)
        with ad.no_grad():
            coords = tok.decode(ad.Tensor(decode_bits), tokenizer_params).data
        pred = geo.BackboneStructure(coords, structure.chain_ids, structure.source_id)
        rows.append((geo.rmsd(pred, structure), geo.tm_score(pred, structure)))
    return rows


def test_folding_eval_resdiff_matches_inline_conditioning():
    k, n_blocks, d_model = 4, 2, 16
    lm = ga.ProteinLM(ModelConfig(d_model=d_model, heads=2, n_blocks=n_blocks, k=k))
    tokenizer_params = tok.TokenizerParams(tok.TokenizerConfig(k=k, width=16, blocks=1, heads=2),
                                           seed=0)
    head = rd.ResDiffHead(k=k, d_hidden=8, n_layers=2, d_lm=d_model, n_lm_layers=n_blocks,
                          t_r=5, seed=0)
    rng = np.random.default_rng(1)
    for norm in head.norms:  # nonzero modulation, so the conditioning reaches the residuals
        norm.mod.w.data[:] = rng.normal(size=norm.mod.w.data.shape) * 0.1
    head.layer_logits.data[:] = [0.3, -0.2]
    dataset = [geo.synth_backbone(geo.SynthSpec(length=n), seed=i) for i, n in enumerate((8, 11))]
    report = evalsuite.folding_eval(lm, tokenizer_params, dataset, steps=3, seed=2,
                                    resdiff_head=head)
    got = [(row["rmsd"], row["tm"]) for row in report.rows]
    assert got == _inline_resdiff_rows(lm, tokenizer_params, dataset, 3, 2, head)
