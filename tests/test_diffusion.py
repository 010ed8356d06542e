"""Absorbing diffusion: schedule, corruption, losses, posterior, generation."""

import numpy as np
import pytest

from bitfold import autodiff as ad
from bitfold import diffusion as dfn
from bitfold import tokenizer as tok
from bitfold.autodiff import Tensor
from bitfold.errors import BadT, ModeInputMissing, ShapeMismatch


def make_state(rng, length=8, k=3):
    seq = rng.integers(0, 20, size=length)
    bits = np.where(rng.random((length, k)) < 0.5, 1.0, -1.0)
    return dfn.TokenState.observed(seq, bits)


# -- schedule ----------------------------------------------------------------

def test_schedule_linear_values():
    s = dfn.make_schedule(10)
    assert s.alpha_bar[5] == pytest.approx(0.5)
    assert s.alpha_bar[10] == 0.0
    assert s.alpha_bar[1] / s.alpha_bar[0] == pytest.approx(1 - 1 / 10)
    assert np.all(np.diff(s.alpha_bar) < 0)


def test_schedule_bad_t():
    with pytest.raises(BadT):
        dfn.make_schedule(1)


def test_schedule_weightings():
    uniform = dfn.make_schedule(10, weighting="uniform")
    invt = dfn.make_schedule(10, weighting="inv-t")
    assert np.all(uniform.lambda_w == 1.0)
    assert invt.lambda_w[4] == pytest.approx(0.25)


# -- forward corruption -------------------------------------------------------

def test_forward_mask_identity_at_t0():
    rng = np.random.default_rng(0)
    x0 = make_state(rng)
    xt = dfn.forward_mask(x0, dfn.make_schedule(10), 0, rng)
    assert not xt.mask_seq.any() and not xt.mask_struct.any()


def test_forward_mask_frequency_monte_carlo():
    # alpha_bar = 0.7 at t=3, T=10 -> mask probability 0.30
    rng = np.random.default_rng(1)
    schedule = dfn.make_schedule(10)
    x0 = make_state(rng, length=8)
    hits = sum(dfn.forward_mask(x0, schedule, 3, rng).mask_struct.sum() for _ in range(10_000))
    assert hits / (8 * 10_000) == pytest.approx(0.30, abs=0.015)


def test_forward_mask_composition_matches_direct():
    """Composing per-step kernels equals one-shot masking with 1 - alpha_bar_t."""
    rng = np.random.default_rng(2)
    schedule = dfn.make_schedule(6)
    length, t_target, n = 8, 4, 10_000
    composed_counts = np.zeros(length)
    for _ in range(n):
        masked = np.zeros(length, dtype=bool)
        for t in range(1, t_target + 1):
            # per-step kernel: survive with probability alpha_bar_t / alpha_bar_{t-1}
            masked |= rng.random(length) >= schedule.alpha_bar[t] / schedule.alpha_bar[t - 1]
        composed_counts += masked
    p_direct = 1.0 - schedule.alpha_bar[t_target]
    expected = p_direct
    observed = composed_counts.mean() / n
    # chi-square over the pooled Bernoulli counts
    total = length * n
    obs = np.array([composed_counts.sum(), total - composed_counts.sum()])
    exp = np.array([expected * total, (1 - expected) * total])
    chi2 = ((obs - exp) ** 2 / exp).sum()
    assert chi2 < 6.635  # 1 dof, p > 0.01
    assert observed == pytest.approx(p_direct, abs=0.02)


# -- losses ------------------------------------------------------------------

# The structure logits of each head, as `ProteinLM` lays them out: G groups of C classes.
LAYOUTS = {"bit": lambda k: (k, 2), "index": lambda k: (1, 2**k)}


def _perfect_output(x0, k, head):
    length = len(x0)
    seq_logits = np.full((length, 20), -30.0)
    seq_logits[np.arange(length), x0.seq] = 30.0
    groups, classes = LAYOUTS[head](k)
    struct = np.full((length, groups, classes), -30.0)
    codes = tok.bits_to_index(x0.struct_bits, groups)
    for i in range(length):
        struct[i, np.arange(groups), codes[i]] = 30.0
    return dfn.LMOutput(seq_logits=Tensor(seq_logits), struct_logits=Tensor(struct))


@pytest.mark.parametrize("head", ["index", "bit"])
def test_loss_zero_for_perfect_prediction(head):
    rng = np.random.default_rng(4)
    x0 = make_state(rng)
    schedule = dfn.make_schedule(10)
    xt = dfn.forward_mask(x0, schedule, 8, rng)
    out = _perfect_output(x0, 3, head)
    assert dfn.loss_bit(out, x0, xt, 8, schedule).item() == pytest.approx(0.0, abs=1e-12)


def test_loss_uniform_values():
    rng = np.random.default_rng(5)
    k = 3
    x0 = make_state(rng, k=k)
    schedule = dfn.make_schedule(10)
    xt = x0.copy()
    xt.mask_struct[:] = True  # struct fully masked, seq untouched
    length = len(x0)
    for head in ("index", "bit"):
        uniform = dfn.LMOutput(seq_logits=Tensor(np.zeros((length, 20))),
                               struct_logits=Tensor(np.zeros((length, *LAYOUTS[head](k)))))
        assert dfn.loss_bit(uniform, x0, xt, 5, schedule).item() == pytest.approx(k * np.log(2))


def test_loss_zero_when_nothing_masked():
    rng = np.random.default_rng(6)
    x0 = make_state(rng)
    schedule = dfn.make_schedule(10)
    out = _perfect_output(x0, 3, "bit")
    out.seq_logits = Tensor(np.zeros((len(x0), 20)))  # even bad logits cost nothing
    assert dfn.loss_bit(out, x0, x0, 3, schedule).item() == 0.0


def test_struct_only_loss_needs_no_seq_logits():
    """With no sequence position masked the model returns no sequence
    logits; the loss then counts only the structure term, on either head."""
    rng = np.random.default_rng(21)
    k = 3
    x0 = make_state(rng, k=k)
    schedule = dfn.make_schedule(10)
    xt = x0.copy()
    xt.mask_struct[[0, 5]] = True
    length = len(x0)
    for head in ("bit", "index"):
        struct = Tensor(rng.normal(size=(length, *LAYOUTS[head](k))))
        with_seq = dfn.LMOutput(Tensor(rng.normal(size=(length, 20))), struct)
        without = dfn.LMOutput(None, struct)
        assert dfn.seq_ce(without, x0, xt).item() == 0.0
        assert (dfn.loss_bit(without, x0, xt, 3, schedule).item()
                == dfn.loss_bit(with_seq, x0, xt, 3, schedule).item())


# -- the two losses the grouped one replaced, kept as reference; they take the
# output layer's flat (L, 2^K) or (L, 2K) logits

def _old_loss_index(seq_logits, flat_logits, x0, xt, t, schedule):
    lam = schedule.lambda_w[t]
    struct_targets = tok.bits_to_index(x0.struct_bits)[:, 0]
    struct = dfn._masked_ce(flat_logits, struct_targets, xt.mask_struct)
    return (dfn.seq_ce(dfn.LMOutput(seq_logits, None), x0, xt) + struct) * lam


def _old_loss_bit(seq_logits, flat_logits, x0, xt, t, schedule):
    lam = schedule.lambda_w[t]
    length, k = x0.struct_bits.shape
    idx = np.flatnonzero(xt.mask_struct)
    lp = ad.log_softmax(ad.reshape(flat_logits, (length, k, 2)), axis=-1)
    bit_targets = (x0.struct_bits > 0).astype(np.int64)
    rows = np.repeat(idx, k)
    cols = np.tile(np.arange(k), len(idx))
    picked = lp[rows, cols, bit_targets[idx].reshape(-1)]
    struct = -picked.sum() * (1.0 / len(idx))
    return (dfn.seq_ce(dfn.LMOutput(seq_logits, None), x0, xt) + struct) * lam


def _value_and_grads(loss_fn, head, grouped, seed):
    """The loss and the gradients of its logits, in the compute dtype, on a
    state with both tracks partly masked. The logits are the output
    layer's flat ones, viewed in `head`'s (L, G, C) layout when `grouped`."""
    rng = np.random.default_rng(seed)
    x0 = make_state(rng, length=7, k=3)
    schedule = dfn.make_schedule(10)
    xt = dfn.forward_mask(x0, schedule, 6, rng)
    xt.mask_seq[0] = xt.mask_struct[0] = True
    layout = LAYOUTS[head](3)
    seq_logits = Tensor(rng.normal(size=(7, 20)), requires_grad=True)
    flat = Tensor(rng.normal(size=(7, layout[0] * layout[1])), requires_grad=True)
    struct = ad.reshape(flat, (7, *layout)) if grouped else flat
    loss = loss_fn(seq_logits, struct, x0, xt, 6, schedule)
    loss.backward()
    return loss.item(), seq_logits.grad, flat.grad


@pytest.mark.parametrize("head,old_loss", [("index", _old_loss_index), ("bit", _old_loss_bit)],
                         ids=["index", "bit"])
def test_grouped_loss_equals_the_old_head_loss(head, old_loss):
    """On the (L, 1, 2^K) layout the loss and its gradients equal the old
    `loss_index`, and on (L, K, 2) the old `loss_bit`, bit for bit."""
    def grouped(seq_logits, struct_logits, x0, xt, t, schedule):
        return dfn.loss_bit(dfn.LMOutput(seq_logits, struct_logits), x0, xt, t, schedule)

    for seed in range(4):
        got = _value_and_grads(grouped, head, True, seed)
        want = _value_and_grads(old_loss, head, False, seed)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, w)


def test_bit_loss_equals_index_loss_at_k1():
    """At K = 1 the two layouts coincide, and the old index and bit losses
    give the grouped loss's value."""
    rng = np.random.default_rng(8)
    length = 6
    x0 = make_state(rng, length=length, k=1)
    schedule = dfn.make_schedule(10)
    xt = dfn.forward_mask(x0, schedule, 7, rng)
    logits = rng.normal(size=(length, 2))
    seq_logits = Tensor(rng.normal(size=(length, 20)))
    grouped = dfn.loss_bit(dfn.LMOutput(seq_logits, Tensor(logits[:, None, :])), x0, xt, 7,
                           schedule).item()
    for old_loss in (_old_loss_index, _old_loss_bit):
        assert old_loss(seq_logits, Tensor(logits), x0, xt, 7, schedule).item() == pytest.approx(
            grouped, abs=1e-12)


# -- posterior ----------------------------------------------------------------

def test_unmask_probability_formula():
    schedule = dfn.make_schedule(10)
    # alpha_bar: t=6 -> 0.4, t=4 -> 0.6; (0.6 - 0.4) / (1 - 0.4) = 1/3
    assert dfn.unmask_probability(schedule, 6, 4) == pytest.approx(1 / 3)


def test_posterior_step_t1_unmasks_all():
    rng = np.random.default_rng(9)
    x0 = make_state(rng)
    xt = x0.copy()
    xt.mask_seq[:] = True
    xt.mask_struct[:] = True
    schedule = dfn.make_schedule(10)
    out = dfn.posterior_step(xt, x0, 1, rng, schedule)
    assert out.fully_unmasked()
    np.testing.assert_array_equal(out.seq, x0.seq)


def test_posterior_never_remasks():
    rng = np.random.default_rng(10)
    x0 = make_state(rng)
    schedule = dfn.make_schedule(10)
    xt = dfn.forward_mask(x0, schedule, 9, rng)
    state = xt
    for t in range(9, 0, -1):
        nxt = dfn.posterior_step(state, x0, t, rng, schedule)
        assert not (nxt.mask_seq & ~state.mask_seq).any()
        assert not (nxt.mask_struct & ~state.mask_struct).any()
        state = nxt
    assert state.fully_unmasked()


def test_posterior_matches_bruteforce_enumeration():
    """Exact check: the implemented unmask probability reproduces the Bayes
    posterior of the forward kernel, enumerated by hand, over a vocab
    {a, b, MASK}, L=2, T=3 chain; total variation < 1e-12."""
    schedule = dfn.make_schedule(3)
    for t in range(1, 4):
        a_t = schedule.alpha_bar[t]
        a_s = schedule.alpha_bar[t - 1]
        if a_t >= 1.0:
            continue
        # forward: x_{t-1}=x0 survives to t with alpha_bar_t; P(x_{t-1}=x0) = a_s
        # posterior for x_t = MASK:
        p_keep = a_s * (1.0 - (a_t / a_s if a_s > 0 else 0.0))  # x_{t-1}=x0, masked at step t
        p_was_masked = 1.0 - a_s
        exact_unmask = a_s * 1.0 - a_t  # P(x_{t-1} = x0, x_t = M) numerator: a_s - a_t
        exact = exact_unmask / (exact_unmask + p_was_masked)
        impl = dfn.unmask_probability(schedule, t)
        assert abs(impl - exact) < 1e-12
        del p_keep
        # joint over 2 independent positions: TV of product distributions
        probs_impl = np.array([impl, 1 - impl])
        probs_exact = np.array([exact, 1 - exact])
        joint_impl = np.outer(probs_impl, probs_impl).ravel()
        joint_exact = np.outer(probs_exact, probs_exact).ravel()
        assert 0.5 * np.abs(joint_impl - joint_exact).sum() < 1e-12


def test_posterior_step_empirical_frequency():
    rng = np.random.default_rng(11)
    x0 = make_state(rng, length=4)
    xt = x0.copy()
    xt.mask_struct[:] = True
    schedule = dfn.make_schedule(10)
    p = dfn.unmask_probability(schedule, 6)
    hits = sum(
        (~dfn.posterior_step(xt, x0, 6, rng, schedule).mask_struct).sum()
        for _ in range(5000)
    )
    assert hits / (4 * 5000) == pytest.approx(p, abs=0.02)


# -- prediction sampling and generation ---------------------------------------

def test_sample_prediction_bit_confidence_is_product():
    rng = np.random.default_rng(12)
    length, k = 3, 2
    x0 = make_state(rng, length=length, k=k)
    xt = x0.copy()
    xt.mask_struct[:] = True
    logits = np.zeros((length, k, 2))
    logits[:, :, 1] = 1.0  # favor bit = +1 everywhere, so the draws mix both signs
    out = dfn.LMOutput(Tensor(np.zeros((length, 20))), Tensor(logits))
    pred = dfn.sample_prediction(out, xt, 1.0, rng)
    p_one = 1.0 / (1.0 + np.exp(-1.0))
    drawn = np.where(pred.state.struct_bits > 0, p_one, 1.0 - p_one)
    assert set(pred.state.struct_bits.ravel()) == {-1.0, 1.0}
    assert pred.conf_struct == pytest.approx(drawn.prod(axis=1))


def test_sample_prediction_index_frequencies():
    """At one group of 8 classes each index token is drawn at its softmax
    probability, within 4 sigma over 20k draws, and its confidence is that
    probability."""
    n, k = 20_000, 3
    xt = dfn.TokenState.all_masked(n, k)
    xt.mask_seq[:] = False
    logits = np.array([0.5, -1.0, 2.0, 0.0, -0.5, 1.0, -2.0, 0.3])
    out = dfn.LMOutput(None, Tensor(np.broadcast_to(logits, (n, 1, 8)).copy()))
    pred = dfn.sample_prediction(out, xt, 1.0, np.random.default_rng(24))
    probs = dfn._temperature_softmax(out.struct_logits.data[0, 0], 1.0)
    codes = tok.bits_to_index(pred.state.struct_bits)[:, 0]
    counts = np.bincount(codes, minlength=8)
    sigma = np.sqrt(n * probs * (1.0 - probs))
    assert np.all(np.abs(counts - n * probs) < 4.0 * sigma), (counts, n * probs)
    np.testing.assert_array_equal(pred.conf_struct, probs[codes])


def test_sample_prediction_sequence_frequencies():
    """Each amino acid is drawn at its softmax probability, within 4 sigma
    over 20k draws, and its confidence is that probability."""
    n = 20_000
    xt = dfn.TokenState.all_masked(n, 2)
    xt.mask_struct[:] = False
    logits = np.linspace(-2.0, 2.0, dfn.N_AA)[np.random.default_rng(25).permutation(dfn.N_AA)]
    out = dfn.LMOutput(Tensor(np.broadcast_to(logits, (n, dfn.N_AA)).copy()), Tensor(np.zeros((n, 2, 2))))
    pred = dfn.sample_prediction(out, xt, 1.0, np.random.default_rng(26))
    probs = dfn._temperature_softmax(out.seq_logits.data[0], 1.0)
    counts = np.bincount(pred.state.seq, minlength=dfn.N_AA)
    sigma = np.sqrt(n * probs * (1.0 - probs))
    assert np.all(np.abs(counts - n * probs) < 4.0 * sigma), (counts, n * probs)
    np.testing.assert_array_equal(pred.conf_seq, probs[pred.state.seq])


class OracleModel:
    """Always predicts one fixed state, with certainty."""

    def __init__(self, x0, T=10):
        self.x0 = x0
        self.k = x0.k
        self.schedule = dfn.make_schedule(T)

    def positional(self, length):
        return None  # positions do not reach this model

    def forward(self, state, positional=None):
        length = len(state)
        seq_logits = np.full((length, 20), -30.0)
        seq_logits[np.arange(length), self.x0.seq] = 30.0
        struct = np.full((length, self.k, 2), -30.0)
        targets = (self.x0.struct_bits > 0).astype(int)
        for i in range(length):
            struct[i, np.arange(self.k), targets[i]] = 30.0
        return dfn.LMOutput(Tensor(seq_logits), Tensor(struct))


def test_generate_folding_preserves_sequence():
    rng = np.random.default_rng(13)
    x0 = make_state(rng, length=6)
    model = OracleModel(x0)
    out = dfn.generate(model, 6, mode="folding", steps=5, rng=rng, seq=x0.seq)
    np.testing.assert_array_equal(out.seq, x0.seq)
    assert out.fully_unmasked()


def test_generate_oracle_recovers_tokens():
    rng = np.random.default_rng(14)
    x0 = make_state(rng, length=6)
    model = OracleModel(x0)
    for strategy in ("stochastic", "confidence"):
        out = dfn.generate(model, 6, mode="unconditional", steps=10, strategy=strategy, rng=rng)
        np.testing.assert_array_equal(out.struct_bits, x0.struct_bits)
        np.testing.assert_array_equal(out.seq, x0.seq)


def test_generate_single_step_unmasks_everything():
    rng = np.random.default_rng(15)
    x0 = make_state(rng, length=5)
    model = OracleModel(x0)
    out = dfn.generate(model, 5, steps=1, rng=rng)
    assert out.fully_unmasked()


def test_generate_folding_reads_no_seq_logits():
    """Folding masks no sequence position, so a model may leave
    `seq_logits` out, as `ProteinLM` does."""
    rng = np.random.default_rng(22)
    x0 = make_state(rng, length=6)
    model = OracleModel(x0)
    oracle_forward = model.forward

    def forward(state, positional=None):
        assert not state.mask_seq.any()
        out = oracle_forward(state, positional)
        out.seq_logits = None
        return out

    model.forward = forward
    out = dfn.generate(model, 6, mode="folding", steps=5, strategy="confidence", rng=rng,
                       seq=x0.seq)
    np.testing.assert_array_equal(out.struct_bits, x0.struct_bits)


@pytest.mark.parametrize("steps", [0, -3, 11])
def test_generate_steps_outside_range(steps):
    model = OracleModel(make_state(np.random.default_rng(23), length=4))
    with pytest.raises(BadT, match=rf"steps={steps} outside \[1, T=10\]"):
        dfn.generate(model, 4, steps=steps, rng=np.random.default_rng(0))


def test_generate_mode_input_missing():
    rng = np.random.default_rng(16)
    model = OracleModel(make_state(rng, length=4))
    with pytest.raises(ModeInputMissing):
        dfn.generate(model, 4, mode="folding", steps=5, rng=rng)
    with pytest.raises(ModeInputMissing):
        dfn.generate(model, 4, mode="inverse_folding", steps=5, rng=rng)


@pytest.mark.parametrize("mode", ["folding", "inverse_folding"])
def test_generate_rejects_given_track_of_other_length(mode):
    """The given track must have `length` rows; the state would otherwise
    take the track's length while its masks keep `length`."""
    x0 = make_state(np.random.default_rng(23), length=5)
    with pytest.raises(ShapeMismatch, match="has 5 .* for length 6"):
        dfn.generate(OracleModel(x0), 6, mode=mode, steps=5, rng=np.random.default_rng(0),
                     seq=x0.seq, struct_bits=x0.struct_bits)


def test_generate_inverse_folding_preserves_struct():
    rng = np.random.default_rng(17)
    x0 = make_state(rng, length=6)
    model = OracleModel(x0)
    out = dfn.generate(model, 6, mode="inverse_folding", steps=5, rng=rng,
                       struct_bits=x0.struct_bits)
    np.testing.assert_array_equal(out.struct_bits, x0.struct_bits)


# -- the per-position loops the vectorized sampler replaced, kept as reference --

def _loop_sample_prediction(output, xt, temperature, rng):
    length = len(xt)
    state = xt.copy()
    state.mask_seq = np.zeros(length, dtype=bool)
    state.mask_struct = np.zeros(length, dtype=bool)
    seq_p = dfn._temperature_softmax(output.seq_logits.data, temperature)
    conf_seq = np.zeros(length)
    for i in np.flatnonzero(xt.mask_seq):
        u = rng.random()  # inverse CDF, the classes stacked from the highest down
        choice = dfn.N_AA - 1
        mass = seq_p[i, choice]
        while mass <= u and choice > 0:
            choice -= 1
            mass += seq_p[i, choice]
        state.seq[i] = choice
        conf_seq[i] = seq_p[i, choice]
    conf_struct = np.zeros(length)
    probs = dfn._temperature_softmax(output.struct_logits.data.reshape(length, xt.k, 2), temperature)
    for i in np.flatnonzero(xt.mask_struct):
        p_one = probs[i, :, 1]
        ones = rng.random(xt.k) < p_one
        state.struct_bits[i] = np.where(ones, 1.0, -1.0)
        conf_struct[i] = float(np.prod(np.where(ones, p_one, 1.0 - p_one)))
    return dfn.Prediction(state=state, conf_seq=conf_seq, conf_struct=conf_struct)


def _loop_posterior_step(xt, x0_pred, t, rng, schedule, s=None):
    p_unmask = dfn.unmask_probability(schedule, t, s)
    out = xt.copy()
    for mask_attr, value_attr in (("mask_seq", "seq"), ("mask_struct", "struct_bits")):
        reveal = getattr(xt, mask_attr) & (rng.random(len(xt)) < p_unmask)
        for i in np.flatnonzero(reveal):
            getattr(out, value_attr)[i] = getattr(x0_pred, value_attr)[i]
        getattr(out, mask_attr)[reveal] = False
    return out


def _loop_confidence_step(xt, pred, schedule, s):
    out = xt.copy()
    keep_frac = schedule.alpha_bar[s]
    for mask_attr, value_attr, conf in (
        ("mask_seq", "seq", pred.conf_seq),
        ("mask_struct", "struct_bits", pred.conf_struct),
    ):
        mask = getattr(xt, mask_attr)
        maskable = len(xt)
        if not mask.any():
            continue
        target_unmasked = int(round(maskable * keep_frac)) if s > 0 else maskable
        n_reveal = min(max(target_unmasked - (maskable - mask.sum()), 0), mask.sum())
        if s == 0:
            n_reveal = mask.sum()
        cand = np.flatnonzero(mask)
        for i in cand[np.lexsort((cand, -conf[cand]))][:n_reveal]:
            getattr(out, value_attr)[i] = getattr(pred.state, value_attr)[i]
            getattr(out, mask_attr)[i] = False
    return out


class NoisyModel:
    """Bit-head model whose logits are a fixed random sequence, one per call."""

    def __init__(self, k=4, T=10):
        self.k = k
        self.schedule = dfn.make_schedule(T)
        self.rng = np.random.default_rng(18)

    def positional(self, length):
        return None  # positions do not reach this model

    def forward(self, state, positional=None):
        length = len(state)
        return dfn.LMOutput(Tensor(self.rng.normal(size=(length, 20)) * 2.0),
                            Tensor(self.rng.normal(size=(length, self.k, 2)) * 2.0))


@pytest.mark.parametrize("mode,strategy", [("folding", "confidence"), ("unconditional", "stochastic")])
def test_generate_matches_per_position_loops(monkeypatch, mode, strategy):
    length = 12
    seq = np.random.default_rng(19).integers(0, 20, size=length)

    def run():
        return dfn.generate(NoisyModel(), length, mode=mode, steps=7, strategy=strategy,
                            rng=np.random.default_rng(20), seq=seq)

    got = run()
    monkeypatch.setattr(dfn, "sample_prediction", _loop_sample_prediction)
    monkeypatch.setattr(dfn, "posterior_step", _loop_posterior_step)
    monkeypatch.setattr(dfn, "_confidence_step", _loop_confidence_step)
    want = run()
    np.testing.assert_array_equal(got.seq, want.seq)
    np.testing.assert_array_equal(got.struct_bits, want.struct_bits)
    np.testing.assert_array_equal(got.mask_seq, want.mask_seq)
    np.testing.assert_array_equal(got.mask_struct, want.mask_struct)
