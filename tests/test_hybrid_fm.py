"""Hybrid flow matching: the interpolant and the Euler sampler, driven by an
oracle denoiser that always returns the target."""

import numpy as np
import pytest

from bitfold import geometry as geo
from bitfold import hybrid_fm as fm
from bitfold.errors import TimeOrder


def make_target(seed=0, length=12):
    structure, _ = geo.synth_backbone(geo.SynthSpec(length=length), seed=seed)
    return structure


def ca_centred(structure):
    return structure.coords - structure.coords[:, 1, :].mean(axis=0)


@pytest.mark.parametrize("n_steps", [1, 5])
def test_fm_generate_with_oracle_denoiser_reaches_target(n_steps):
    target = make_target()
    centred = geo.BackboneStructure(ca_centred(target), target.chain_ids)

    def oracle(state):
        return centred

    out = fm.fm_generate(None, len(target), np.random.default_rng(1), n_steps=n_steps,
                         denoiser=oracle)
    assert geo.rmsd(out, target) < 1e-9


def test_corrupt_at_t1_is_the_centred_target():
    target = make_target(seed=2)
    state = fm.corrupt(target, 1.0, np.random.default_rng(3))
    assert state.t == 1.0
    np.testing.assert_array_equal(state.structure.coords, ca_centred(target))


def test_time_order_violations_raise():
    target = make_target()
    with pytest.raises(TimeOrder):
        fm.corrupt(target, 1.5, np.random.default_rng(0))
    with pytest.raises(TimeOrder):
        fm.fm_generate(None, len(target), np.random.default_rng(0), n_steps=0,
                       denoiser=lambda state: target)
