"""The shared training loop `optim.fit` and the four trainers built on it."""

import numpy as np
import pytest

from bitfold import autodiff as ad
from bitfold import diffusion as dfn
from bitfold import geometry as geo
from bitfold import hybrid_fm, optim, training
from bitfold import repa as repa_mod
from bitfold import resdiff as rd
from bitfold import tokenizer as tok
from bitfold.autodiff import Tensor
from bitfold.config import ModelConfig
from bitfold.errors import NonFiniteLoss, NonFiniteValue


@pytest.fixture(scope="module")
def pairs():
    return [geo.synth_backbone(geo.SynthSpec(length=n), seed=i)
            for i, n in enumerate((12, 16, 14))]


@pytest.fixture(scope="module")
def tok_params():
    return tok.TokenizerParams(tok.TokenizerConfig(width=16, blocks=1, heads=2), seed=0)


def small_cfg(**kw):
    base = dict(d_model=16, d_pair=8, heads=2, n_blocks=1, tok_width=16, T=8,
                seed=3, steps=8, warmup=3)
    return ModelConfig(**{**base, **kw})


class CountingList(list):
    """A list that counts its length lookups; a truth test is not one."""

    def __init__(self, items):
        super().__init__(items)
        self.len_calls = 0

    def __len__(self):
        self.len_calls += 1
        return super().__len__()

    def __bool__(self):
        return super().__len__() > 0


# -- train_lm against the loop it replaced ------------------------------------

def _teacher_targets(structure, tokenizer_params):
    """Frozen-encoder hidden states of one structure, from an encoder pass of
    their own: the REPA targets as they were first computed."""
    with ad.no_grad():
        _, hidden = tokenizer_params.encoder(tok.invariant_features(structure))
    return hidden.data.copy()


def _loop_train_lm(lm, tokenizer_params, dataset, cfg):
    """The LM training loop as it stood before `optim.fit`, with the REPA
    head seeded by `cfg.seed` and teacher targets indexed by item."""
    trained = dict(lm.parameters())
    if cfg.repa_enabled:
        repa_head = repa_mod.RepaHead(cfg.d_model, cfg.tok_width, cfg.n_blocks, seed=cfg.seed)
        trained.update(repa_head.parameters(prefix="repa."))
        targets = [_teacher_targets(s, tokenizer_params) for s, _ in dataset]
    opt = optim.Adam(trained)
    rng = np.random.default_rng(cfg.seed)
    states = []
    for structure, seq in dataset:
        with ad.no_grad():
            z = tok.encode(structure, tokenizer_params)
        bits = np.where(z.data >= 0.0, 1.0, -1.0)
        states.append(dfn.TokenState.observed(np.asarray(seq), bits))
    losses = []
    for step in range(cfg.steps):
        i = int(rng.integers(len(dataset)))
        x0 = states[i]
        t = int(rng.integers(1, lm.schedule.T + 1))
        mode = training.sample_mode(rng, cfg.folding_sft)
        xt = dfn.forward_mask(
            x0, lm.schedule, t, rng,
            corrupt_seq=mode in ("both", "seq_only"),
            corrupt_struct=mode in ("both", "struct_only"),
        )
        if not (xt.mask_seq.any() or xt.mask_struct.any()):
            losses.append(0.0)
            continue
        out = lm.forward(xt)
        loss = dfn.loss_bit(out, x0, xt, t, lm.schedule)
        if cfg.repa_enabled and cfg.repa_weight != 0.0:
            loss = loss + cfg.repa_weight * repa_mod.repa_loss(
                out.hidden_layers, repa_head, targets[i]
            )
        opt.zero_grad()
        loss.backward()
        opt.step(lr=optim.warmup_linear_decay(
            step, cfg.steps, peak=cfg.lr_peak, warmup=min(cfg.warmup, max(cfg.steps // 10, 1)),
            floor=cfg.lr_floor,
        ))
        losses.append(loss.item())
    return losses


@pytest.mark.parametrize("flags", [
    {},
    {"pair_bias": True, "repa_enabled": True},
    {"head": "index"},
    {"folding_sft": True},
], ids=["plain", "pair_bias-repa", "index-head", "folding_sft"])
def test_train_lm_matches_old_loop(pairs, tok_params, flags):
    cfg = small_cfg(**flags)

    def run(train):
        lm = training.build_lm(cfg)
        return train(lm, tok_params, pairs, cfg), lm.parameters()

    got_losses, got = run(training.train_lm)
    want_losses, want = run(_loop_train_lm)
    assert got_losses == want_losses
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_array_equal(got[name].data, want[name].data, err_msg=name)


def test_repa_is_on_by_config_and_aligns_to_the_drawn_item(tok_params, monkeypatch):
    """Targets follow the drawn item, not its `source_id`: both structures
    here share one id, and their lengths tell them apart."""
    dataset = [geo.synth_backbone(geo.SynthSpec(length=n), seed=n) for n in (12, 16)]
    for structure, _ in dataset:
        structure.source_id = "shared"
    want = {len(s): _teacher_targets(s, tok_params) for s, _ in dataset}
    seen = []

    def recording_repa_loss(hidden_layers, head, targets):
        length = hidden_layers[0].shape[0]
        np.testing.assert_array_equal(targets, want[length])
        seen.append(length)
        return original(hidden_layers, head, targets)

    original = repa_mod.repa_loss
    monkeypatch.setattr(repa_mod, "repa_loss", recording_repa_loss)
    cfg = small_cfg(repa_enabled=True)
    training.train_lm(training.build_lm(cfg), tok_params, dataset, cfg)
    assert set(seen) == {12, 16}


def test_repa_encodes_each_item_once(pairs, tok_params, monkeypatch):
    """One encoder pass per item gives the tokens and the teacher targets of
    two separate passes, bit for bit."""
    states, targets = training.encode_dataset(pairs, tok_params, with_targets=True)
    for (structure, seq), state, target in zip(pairs, states, targets):
        want = dfn.TokenState.observed(np.asarray(seq), tok.tokenize(structure, tok_params).bits)
        np.testing.assert_array_equal(state.struct_bits, want.struct_bits)
        np.testing.assert_array_equal(state.seq, want.seq)
        np.testing.assert_array_equal(target, _teacher_targets(structure, tok_params))
    calls = []
    encoder = tok_params.encoder

    def counting_encoder(*args):
        calls.append(1)
        return encoder(*args)

    monkeypatch.setattr(tok_params, "encoder", counting_encoder)
    cfg = small_cfg(repa_enabled=True, steps=2)
    training.train_lm(training.build_lm(cfg), tok_params, pairs, cfg)
    assert len(calls) == len(pairs)


# -- the benchmark's step clock -------------------------------------------------

def test_train_lm_reads_len_once_per_step(pairs, tok_params):
    dataset = CountingList(pairs)
    training.train_lm(training.build_lm(small_cfg()), tok_params, dataset, small_cfg(steps=5))
    assert dataset.len_calls == 5


def test_train_tokenizer_reads_len_once_per_step(pairs):
    dataset = CountingList([s for s, _ in pairs])
    tok.train_tokenizer(dataset, tok.TokenizerConfig(width=16, blocks=1, heads=2),
                        seed=0, steps=4)
    assert dataset.len_calls == 4


def test_fit_leaves_no_gradient_behind(pairs, tok_params):
    """Gradients are cleared after each Adam step, so none outlive `fit`."""
    lm = training.build_lm(small_cfg(**GEO_FLAGS))
    training.train_lm(lm, tok_params, pairs, small_cfg(**GEO_FLAGS, steps=3))
    params, _ = tok.train_tokenizer([s for s, _ in pairs],
                                    tok.TokenizerConfig(width=16, blocks=1, heads=2),
                                    seed=0, steps=3)
    for trained in (lm.parameters(), params.parameters()):
        assert [name for name, p in trained.items() if p.grad is not None] == []


def test_fit_starts_without_stale_gradients(pairs, tok_params):
    """Gradients already on the parameters when `fit` starts (a
    hand-run backward leaves them) do not enter its first Adam step."""
    cfg = small_cfg(steps=3)
    clean, stale = training.build_lm(cfg), training.build_lm(cfg)
    for p in stale.parameters().values():
        p.grad = np.ones_like(p.data)
    assert (training.train_lm(clean, tok_params, pairs, cfg)
            == training.train_lm(stale, tok_params, pairs, cfg))
    for name, p in clean.parameters().items():
        np.testing.assert_array_equal(stale.parameters()[name].data, p.data, err_msg=name)


# -- non-finite values name the trainer and the step ----------------------------

def _poison(module):
    for p in module.parameters().values():
        p.data[...] = np.nan


def test_fm_finetune_nonfinite_forward_raises(pairs, tok_params):
    lm = training.build_lm(small_cfg())
    _poison(lm)
    with pytest.raises(NonFiniteLoss, match="fm-finetune loss at step 0"):
        hybrid_fm.fm_finetune(lm, tok_params, pairs, steps=2, peak=1e-4, warmup=2000, floor=1e-5)


def test_train_resdiff_nonfinite_loss_raises(pairs, tok_params):
    head = rd.ResDiffHead(k=8, d_hidden=8, n_layers=1, d_lm=16, n_lm_layers=1, t_r=4)
    _poison(head)
    with pytest.raises(NonFiniteLoss, match="resdiff loss at step 0"):
        rd.train_resdiff(head, training.build_lm(small_cfg()), tok_params, pairs, steps=2,
                         peak=1e-4, warmup=2000, floor=1e-5)


# -- train_resdiff against the command-line loop it replaced ------------------

def _cli_resdiff_triples(lm, tokenizer_params, dataset):
    """(residual, bits, LM hidden states) per item, built as the
    train-resdiff command once built them before training."""
    samples = []
    for structure, seq in dataset:
        with ad.no_grad():
            z = tok.encode(structure, tokenizer_params)
        bits = np.where(z.data >= 0.0, 1.0, -1.0)
        state = dfn.TokenState.observed(seq, bits)
        with ad.no_grad():
            out = lm.forward(state)
        hidden = [h.data for h in out.hidden_layers]
        samples.append((z.data - bits, bits, hidden))
    return samples


def _triples_train_resdiff(samples, head, steps, seed, *, peak, warmup, floor):
    rng = np.random.default_rng(seed)

    def step_loss(i):
        r, z_quant, hidden_layers = samples[i]
        cond = rd.condition(z_quant, hidden_layers, head)
        return rd.resdiff_loss(r, int(rng.integers(1, head.t_r + 1)), cond, head, rng), ""

    optim.fit(head.parameters(), samples, steps, rng, step_loss, "resdiff", peak, warmup, floor)


def test_train_resdiff_matches_the_triples_loop(pairs, tok_params):
    """The library trainer builds the same inputs as the command-line loop
    and trains the head to the same bits."""
    lm = training.build_lm(small_cfg(n_blocks=2))
    heads = [rd.ResDiffHead(k=8, d_hidden=8, n_layers=2, d_lm=16, n_lm_layers=2, t_r=6, seed=1)
             for _ in range(3)]
    hyper = dict(peak=1e-2, warmup=1, floor=1e-5)
    rd.train_resdiff(heads[0], lm, tok_params, pairs, 6, seed=4, **hyper)
    _triples_train_resdiff(_cli_resdiff_triples(lm, tok_params, pairs), heads[1], 6, 4, **hyper)
    got, want, fresh = (head.parameters() for head in heads)
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name].data, want[name].data, err_msg=name)
    assert all(not np.array_equal(got[name].data, fresh[name].data) for name in got)


# -- fit ------------------------------------------------------------------------

def test_fit_skipped_step_records_zero_and_leaves_adam(monkeypatch):
    opts = []

    class RecordingAdam(optim.Adam):
        def __init__(self, params):
            super().__init__(params)
            opts.append(self)

    monkeypatch.setattr(optim, "Adam", RecordingAdam)
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    calls = []

    def step_loss(i):
        calls.append(i)
        if len(calls) % 2 == 0:
            return None
        return (w * w).sum(), ""

    losses = optim.fit({"w": w}, [0, 1], 4, np.random.default_rng(0), step_loss, "toy",
                       peak=0.1, warmup=1)
    assert len(calls) == 4
    assert losses[1] == 0.0 and losses[3] == 0.0
    assert losses[0] > 0.0 and losses[2] > 0.0
    assert opts[0].t == 2

    before = w.data.copy()
    losses = optim.fit({"w": w}, [0], 3, np.random.default_rng(0), lambda i: None, "toy",
                       peak=0.1, warmup=1)
    assert losses == [0.0, 0.0, 0.0]
    assert opts[1].t == 0
    np.testing.assert_array_equal(w.data, before)


def test_fit_clips_the_warmup_to_a_tenth_of_the_run(monkeypatch):
    """A run of 50 steps under a warmup of 2000 reaches the peak lr at step 4."""
    lrs = []

    class RecordingAdam(optim.Adam):
        def step(self, lr):
            lrs.append(lr)
            super().step(lr)

    monkeypatch.setattr(optim, "Adam", RecordingAdam)
    w = Tensor(np.ones(2), requires_grad=True)
    optim.fit({"w": w}, [0], 50, np.random.default_rng(0), lambda i: ((w * w).sum(), ""),
              "toy", peak=0.1, warmup=2000)
    assert len(lrs) == 50
    assert lrs[3] < lrs[4] == 0.1


def test_fit_rejects_empty_items():
    with pytest.raises(ValueError, match="no training items"):
        optim.fit({}, [], 3, np.random.default_rng(0), lambda i: None, "toy",
                  peak=0.1, warmup=1)


def test_fit_wraps_nonfinite_value():
    w = Tensor(np.ones(2), requires_grad=True)

    def step_loss(i):
        raise NonFiniteValue("boom")

    with pytest.raises(NonFiniteLoss, match="non-finite toy loss at step 0: boom"):
        optim.fit({"w": w}, [0], 2, np.random.default_rng(0), step_loss, "toy",
                  peak=0.1, warmup=1)


# -- whole-buffer Adam against the per-array loop -------------------------------------

class LoopAdam:
    """Adam as one update per parameter array: the reference for `optim.Adam`."""

    def __init__(self, params):
        self.params = dict(params)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


@pytest.mark.parametrize("chunk", [5, 12, optim.CHUNK])
def test_adam_steps_like_the_per_array_loop(monkeypatch, chunk):
    """Parameters become views of the buffer; a step skips exactly the
    parameters without a gradient, whose data and moments stay as they were.
    Chunks of 5 and 12 scalars end inside parameters and on their ends.
    Both run in the compute dtype, float32, on float32 gradients."""
    monkeypatch.setattr(optim, "CHUNK", chunk)
    rng = np.random.default_rng(0)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 2)}
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    got = {k: Tensor(x.copy(), requires_grad=True) for k, x in init.items()}
    want = {k: Tensor(x.copy(), requires_grad=True) for k, x in init.items()}
    opt, ref = optim.Adam(got), LoopAdam(want)
    assert opt.data.dtype == opt.m.dtype == opt.v.dtype == np.float32
    for k in got:
        assert np.shares_memory(got[k].data, opt.data)
    for step, with_grad in enumerate(("abc", "ac", "b", "", "bc")):
        grads = {k: rng.normal(size=shapes[k]).astype(np.float32) for k in with_grad}
        for params in (got, want):
            for k, p in params.items():
                p.grad = grads[k].copy() if k in grads else None
        opt.step(lr=0.01 * (step + 1))
        ref.step(lr=0.01 * (step + 1))
        for k in shapes:
            np.testing.assert_array_equal(got[k].data, want[k].data)


GEO_FLAGS = dict(pair_bias=True, struct_transition=True, triangle_update=True,
                 triangle_attention=True, seqstruct_attention=True)
ADAM_CASES = {
    "plain": {},
    "full-geo-repa": {**GEO_FLAGS, "repa_enabled": True},
    "struct-only": {"folding_sft": True},
    "second-fit": {},
    "tokenizer": None,
}


@pytest.mark.parametrize("case", list(ADAM_CASES))
def test_whole_buffer_adam_matches_per_array_loop(pairs, tok_params, monkeypatch, case):
    """Trained parameters and losses are bit-equal under `optim.Adam` and the
    per-array loop. Struct-only steps leave the sequence head without a
    gradient, so its parameters keep their initial values; `fit` clears
    gradients after each step, so the head's is checked as each Adam step
    sees it. `second-fit` trains the same LM twice, each run with an Adam
    of its own. Chunks of 1000 scalars make every run of these small
    models span several."""
    monkeypatch.setattr(optim, "CHUNK", 1000)

    def run(adam):
        head_grads = []

        class HeadWatch(adam):
            def __init__(self, params):
                self.head = dict(params)["seq_out.w"]
                super().__init__(params)

            def step(self, lr):
                head_grads.append(self.head.grad)
                super().step(lr)

        monkeypatch.setattr(optim, "Adam", HeadWatch if case == "struct-only" else adam)
        if case == "tokenizer":
            cfg = tok.TokenizerConfig(width=16, blocks=1, heads=2)
            params, report = tok.train_tokenizer([s for s, _ in pairs], cfg, seed=0, steps=8)
            return list(report.summary().values()), params.parameters()
        cfg = small_cfg(**ADAM_CASES[case])
        lm = training.build_lm(cfg)
        losses = training.train_lm(lm, tok_params, pairs, cfg)
        if case == "second-fit":
            losses += training.train_lm(lm, tok_params, pairs, cfg)
        if case == "struct-only":
            fresh = training.build_lm(cfg)
            assert head_grads and all(g is None for g in head_grads)
            np.testing.assert_array_equal(lm.seq_out.w.data, fresh.seq_out.w.data)
        return losses, lm.parameters()

    got_losses, got = run(optim.Adam)
    want_losses, want = run(LoopAdam)
    assert got_losses == want_losses
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name].data, want[name].data, err_msg=name)


# -- the compute dtype ----------------------------------------------------------

def test_no_op_computes_in_float64(pairs, tok_params, monkeypatch):
    """Two steps of every trainer and one fold: every op output and every
    gradient is float32, so nothing in the graph is promoted to float64.
    Every gradient, a leaf's or an op output's, goes through `Node._accum`."""
    wide = set()
    make, accum = ad._make, ad.Node._accum

    def checked_make(data, parents, backward):
        dtype = np.asarray(data).dtype
        if dtype != np.float32:
            wide.add(f"{backward.__qualname__.split('.')[0]} output {dtype}")
        return make(data, parents, backward)

    def checked_accum(node, g):
        if g.dtype != np.float32:
            wide.add(f"gradient {g.dtype} of shape {node.shape}")
        return accum(node, g)

    monkeypatch.setattr(ad, "_make", checked_make)
    monkeypatch.setattr(ad.Node, "_accum", checked_accum)
    lm = training.build_lm(small_cfg(steps=2))
    training.train_lm(lm, tok_params, pairs, small_cfg(steps=2))
    cfg = small_cfg(steps=2, repa_enabled=True, **GEO_FLAGS)
    training.train_lm(training.build_lm(cfg), tok_params, pairs, cfg)
    tok.train_tokenizer([s for s, _ in pairs], tok.TokenizerConfig(width=16, blocks=1, heads=2),
                        seed=0, steps=2)
    hybrid_fm.fm_finetune(lm, tok_params, pairs, steps=2, peak=1e-4, warmup=1, floor=1e-5)
    head = rd.ResDiffHead(k=8, d_hidden=8, n_layers=1, d_lm=16, n_lm_layers=1, t_r=4)
    rd.train_resdiff(head, lm, tok_params, pairs, steps=2, peak=1e-4, warmup=1, floor=1e-5)
    _, seq = pairs[0]
    dfn.generate(lm, len(seq), mode="folding", steps=4, rng=np.random.default_rng(0), seq=seq)
    assert sorted(wide) == []
