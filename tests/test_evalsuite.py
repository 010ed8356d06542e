"""Evaluation suite: folding evaluation runs its model calls without a graph."""

import bitfold.autodiff as ad
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
