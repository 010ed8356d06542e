"""Forward semantics and finite-difference gradient checks for the tensor core."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from bitfold import autodiff as ad
from bitfold import diffusion as dfn
from bitfold import kernels
from bitfold.config import ModelConfig
from bitfold.errors import DetachedLoss, NonFiniteValue, NotScalar, ShapeMismatch
from bitfold.geo_arch import PairInit, ProteinLM, TriangleUpdate


def test_matmul_identity_exact():
    a = ad.Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    ident = ad.Tensor(np.eye(3)[:, :2])
    out = ad.matmul(a, ident)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [4.0, 5.0]])


def test_softmax_symmetry():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


@pytest.mark.usefixtures("float64")
def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ad.softmax(ad.Tensor(rng.normal(size=(5, 7)) * 10))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layernorm_constant_rows_map_to_zero():
    out = ad.layernorm(ad.Tensor(np.full((3, 8), 4.2)), 1.0, 0.0)
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


@pytest.mark.usefixtures("float64")
def test_layernorm_row_mean_tiny():
    rng = np.random.default_rng(1)
    out = ad.layernorm(ad.Tensor(rng.normal(size=(4, 16))), 1.0, 0.0)
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10


def test_backward_quadratic_analytic():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0], atol=1e-12)


def test_unreached_parameter_gets_no_grad():
    w = ad.Tensor([1.0], requires_grad=True)
    p = ad.Tensor([5.0], requires_grad=True)
    (w * w).sum().backward()
    assert p.grad is None  # treated as zero by callers


@pytest.mark.usefixtures("float64")
def test_sigmoid_matches_formula_bit_for_bit():
    """The one-buffer sigmoid equals 1 / (1 + exp(-x)), saturated tails included."""
    tails = [-800.0, -710.0, -700.0, 700.0, 710.0, 800.0, 0.0]
    x = np.concatenate([np.random.default_rng(0).normal(scale=20.0, size=200), tails])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
        got = ad.sigmoid(ad.Tensor(x)).data
    np.testing.assert_array_equal(got, want)
    assert got[-7] == 0.0 and got[-2] == 1.0


def test_backward_rejects_nonscalar():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NotScalar):
        (w * w).backward()


def test_backward_rejects_detached():
    with pytest.raises(DetachedLoss):
        ad.Tensor([3.0]).sum().backward()


def test_nonfinite_forward_raises():
    with pytest.raises(NonFiniteValue) as info:
        ad.log(ad.Tensor([0.0]))
    assert "log" in str(info.value)
    assert "(1,)" in str(info.value)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))


def test_forward_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 6))
    a = ad.softmax(ad.layernorm(ad.Tensor(x), 1.0, 0.0)).data
    b = ad.softmax(ad.layernorm(ad.Tensor(x), 1.0, 0.0)).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.usefixtures("float64")
def test_grad_check_quadratic_tight():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.normal(size=(4,)), requires_grad=True)
    report = ad.grad_check(lambda: (w * w).sum(), {"w": w}, step=1e-5, seed=0)
    assert report.max_rel_err < 1e-8


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_check_primitive_soup(seed):
    """Composite touching every primitive matches finite differences."""
    rng = np.random.default_rng(seed)
    params = {
        "w": ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True),
        "m": ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True),
        "b": ad.Tensor(rng.normal(size=(4,)), requires_grad=True),
        "p": ad.Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True),
        "x": ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True),
    }
    idx = np.array([0, 2, 1, 0])

    def fn():
        w, m, b, p, x = (params[k] for k in "wmbpx")
        h = ad.matmul(w, m) + b
        h = ad.layernorm(h, 1.0, 0.0)
        h = ad.swish(h) + ad.tanh(h) * ad.sigmoid(h)
        h = ad.softmax(h, axis=-1)
        h = ad.log(h + 1.0) + ad.exp(h * 0.1) + ad.sqrt(h + 2.0)
        h = ad.relu(h - 0.5) + ad.sin(h) * ad.cos(h)
        g = h[idx]
        c = ad.concat([g, g * 2.0], axis=1)
        t = ad.tri_contract(p, p * 0.5, "outgoing") + ad.tri_contract(p, p, "incoming")
        d = ad.pair_dist(x)
        s = ad.where(np.eye(4, 8, dtype=bool), c, c * 3.0).sum()
        return s + t.mean() + d.mean() + ad.log_softmax(g, axis=-1).sum() * 0.01

    report = ad.grad_check(fn, params, step=1e-5, seed=seed)
    assert report.passed, str(report)


def test_sign_ste_forward_and_gradient():
    z = ad.Tensor([0.3, -1.2, 0.0], requires_grad=True)
    bits = ad.sign_ste(z)
    np.testing.assert_array_equal(bits.data, [1.0, -1.0, 1.0])
    (bits * ad.Tensor([1.0, 2.0, 3.0])).sum().backward()
    np.testing.assert_array_equal(z.grad, [1.0, 2.0, 3.0])  # identity surrogate


@pytest.mark.usefixtures("float64")
def test_tri_contract_matches_einsum_both_backends():
    # The name predates the single numpy backend; the check is against plain einsum.
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5, 3))
    b = rng.normal(size=(5, 5, 3))
    want_out = np.einsum("ikd,jkd->ijd", a, b)
    want_in = np.einsum("kid,kjd->ijd", a, b)
    np.testing.assert_allclose(ad.tri_contract(ad.Tensor(a), ad.Tensor(b), "outgoing").data, want_out, atol=1e-12)
    np.testing.assert_allclose(ad.tri_contract(ad.Tensor(a), ad.Tensor(b), "incoming").data, want_in, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_pair_dist_matches_direct():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3)) * 4
    d = ad.pair_dist(ad.Tensor(x), eps=0.0).data
    want = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    np.testing.assert_allclose(d, want, atol=1e-12)


def _pdist_by_axis(x, eps=1e-8):
    """`kernels.pdist` as an (L, L, 3) difference array summed over its last axis."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1) + eps)


def _pdist_grad_by_axis(x, d, g):
    """`kernels.pdist_grad` as an (L, L, 3) product summed over j, then over i."""
    diff = x[:, None, :] - x[None, :, :]
    w = g / d
    gx = (w[:, :, None] * diff).sum(axis=1)
    gx -= (w[:, :, None] * diff).sum(axis=0)
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [2, 17, 64])
def test_pdist_kernels_match_the_summed_difference_array(dtype, length):
    """The column-by-column kernels add in the order the (L, L, 3) sums do,
    so they give the same bits."""
    rng = np.random.default_rng(length)
    x = (rng.normal(size=(length, 3)) * 10).astype(dtype)
    g = rng.normal(size=(length, length)).astype(dtype)
    d = kernels.pdist(x, 1e-8)
    assert d.dtype == dtype
    np.testing.assert_array_equal(d, _pdist_by_axis(x))
    gx = kernels.pdist_grad(x, d, g, 1e-8)
    assert gx.dtype == dtype
    np.testing.assert_array_equal(gx, _pdist_grad_by_axis(x, d, g))


@pytest.mark.parametrize("shape", [(16,), ()], ids=["channels", "scalar"])
def test_unbroadcast_sums_a_pair_gradient_within_the_float32_bound(shape):
    """Summing n float32 terms in any order lies within gamma_(n-1) *
    sum |x| of the exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 4.4); the float64 sum of the same terms stands in for
    the exact one."""
    grad = np.random.default_rng(14).normal(size=(48, 48, 16)).astype(np.float32)
    got = ad._unbroadcast(grad, shape)
    assert got.shape == shape and got.dtype == np.float32
    terms = grad.astype(np.float64).reshape(-1, *shape)
    want, magnitude = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    u = np.finfo(np.float32).eps / 2
    n = terms.shape[0]
    bound = (n - 1) * u / (1 - (n - 1) * u) * magnitude
    assert np.all(np.abs(got - want) <= bound)


def test_no_grad_builds_no_graph():
    w = ad.Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        out = (w * w).sum()
    assert not out.requires_grad


_TAKE_RNG = np.random.default_rng(6)
TAKE_CASES = [
    pytest.param((5, 4), (slice(1, 4), slice(None, None, 2)), id="basic-slice"),
    pytest.param((5, 4), -2, id="negative-int"),
    pytest.param((6, 3), np.array([0, 2, 2, 5, 0, 2]), id="int-array-repeats"),
    pytest.param((9, 4), _TAKE_RNG.integers(0, 9, size=(5, 5)), id="relpos-table"),
    pytest.param((4, 3, 2), (np.array([0, 1, 1, 3, 0, 1]), np.array([2, 0, 0, 1, 2, 0]),
                             np.array([1, 0, 0, 1, 1, 0])), id="loss-pick"),
    pytest.param((6, 4, 3), (np.array([1, 3, 3, 0]), 2, slice(None)), id="mixed"),
    pytest.param((5, 4), _TAKE_RNG.random((5, 4)) < 0.5, id="bool-mask"),
]


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("shape,idx", TAKE_CASES)
def test_take_backward_matches_add_at(shape, idx):
    rng = np.random.default_rng(7)
    a = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    out = ad.take(a, idx)
    g = rng.normal(size=out.shape)
    (out * ad.Tensor(g)).sum().backward()
    want = np.zeros(shape)
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(a.grad, want)


@pytest.mark.parametrize("shape,idx", [TAKE_CASES[0], TAKE_CASES[2], TAKE_CASES[5]])
def test_take_backward_sums_signed_zeros_to_positive_zero(shape, idx):
    """Every path adds the gradient onto zeros, as a scatter-add does, so a
    -0.0 gradient arrives as +0.0, basic slicing included."""
    a = ad.Tensor(np.ones(shape), requires_grad=True)
    out = ad.take(a, idx)
    out._node.backward(np.full(out.shape, -0.0, dtype=np.float32))
    assert not np.signbit(a.grad).any()


GATHER_CASES = [  # (shape, index, on the np.take fast path)
    pytest.param((6,), np.array([4, 0, 0, 5]), True, id="1d-on-1d"),
    pytest.param((6, 3), np.array([[0, 5], [-1, 2], [5, 5]]), True, id="2d-negative"),
    pytest.param((3, 9), (slice(None), _TAKE_RNG.integers(-9, 9, size=(5, 5))), True,
                 id="lead-slice-2d"),
    pytest.param((2, 3, 7), (slice(None), slice(None), np.array([6, -7, 3])), True,
                 id="two-lead-slices"),
    pytest.param((5, 4), _TAKE_RNG.random((5, 4)) < 0.5, False, id="bool-mask"),
    pytest.param((5, 4), (slice(None), _TAKE_RNG.random(4) < 0.5), False, id="lead-slice-bool"),
    pytest.param((4, 3), (np.array([0, 3, 3]), np.array([2, 0, 1])), False, id="two-arrays"),
    pytest.param((4, 3), (slice(1, None), np.array([2, 0])), False, id="partial-slice"),
]


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("shape,idx,fast", GATHER_CASES)
def test_take_fast_path_matches_fancy_indexing(monkeypatch, shape, idx, fast):
    """Full slices then one integer array go through `np.take` in the
    forward, with the bits of fancy indexing, and backward sums them per
    leading index without gathering; other indices do not."""
    calls = []
    np_take = np.take
    monkeypatch.setattr(np, "take", lambda *a, **kw: calls.append(1) or np_take(*a, **kw))
    rng = np.random.default_rng(12)
    data = rng.normal(size=shape)
    a = ad.Tensor(data, requires_grad=True)
    out = ad.take(a, idx)
    np.testing.assert_array_equal(out.data, data[idx])
    g = rng.normal(size=out.shape)
    (out * ad.Tensor(g)).sum().backward()
    want = np.zeros(shape)
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(a.grad, want)
    assert len(calls) == (1 if fast else 0)


@pytest.mark.usefixtures("float64")
def test_gradient_aliasing_one_leaf_both_add_operands():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = rng.normal(size=(3, 4))
    loss = ((x + x) * ad.Tensor(c)).sum() + (x * x).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, 2.0 * c + 2.0 * x.data, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_gradient_aliasing_shared_upstream():
    rng = np.random.default_rng(9)
    a = ad.Tensor(rng.normal(size=(4,)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4,)), requires_grad=True)
    c, d = rng.normal(size=4), rng.normal(size=4)
    ((a + b) * ad.Tensor(c)).sum().backward()
    np.testing.assert_array_equal(a.grad, c)
    np.testing.assert_array_equal(b.grad, c)
    # A later accumulation into `a` must not reach `b`, which may share its array.
    (a * ad.Tensor(d)).sum().backward()
    np.testing.assert_allclose(a.grad, c + d, atol=1e-15)
    np.testing.assert_array_equal(b.grad, c)

    # The same within one graph: `a` is used again after the shared add.
    a.zero_grad()
    b.zero_grad()
    (((a + b) * ad.Tensor(c)).sum() + (a * ad.Tensor(d)).sum()).backward()
    np.testing.assert_allclose(a.grad, c + d, atol=1e-15)
    np.testing.assert_array_equal(b.grad, c)


def _split_heads(x, n_heads):
    """(..., L, H*d) -> (..., H, L, d) as reshape and transpose nodes."""
    x = ad.reshape(x, x.shape[:-1] + (n_heads, -1))
    n = x.ndim
    return ad.transpose(x, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))


def _merge_heads(x):
    """(..., H, L, d) -> (..., L, H*d) as transpose and reshape nodes."""
    n = x.ndim
    x = ad.transpose(x, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))
    return ad.reshape(x, x.shape[:-2] + (-1,))


def _attention_chain(q, k, v, n_heads, scale, bias=None, rel=None):
    """The unfused op chain `attention` replaces, kept as its reference:
    the heads split and merged by graph nodes around it."""
    q, k, v = (_split_heads(x, n_heads) for x in (q, k, v))
    axes = list(range(q.ndim))
    axes[-2], axes[-1] = axes[-1], axes[-2]
    logits = ad.matmul(q, ad.transpose(k, tuple(axes))) * scale
    if bias is not None:
        logits = logits + bias
    attn = ad.softmax(logits, axis=-1)
    ctx = ad.matmul(attn, v)
    if rel is not None:
        table, diff = rel
        heads, length = attn.shape[0], attn.shape[1]
        relv = ad.transpose(table[diff], (2, 0, 1, 3))  # (H, L, L, dv)
        ctx = ctx + (ad.reshape(attn, (heads, length, length, 1)) * relv).sum(axis=2)
    return _merge_heads(ctx)


def _attention_head_by_head(q, k, v, n_heads, scale, bias=None, rel=None):
    """The chain packed heads replace, on (L, H*d) inputs: split the heads
    (reshape, transpose), run each head alone as single-head attention,
    merge them back (transpose, reshape)."""
    q, k, v = (_split_heads(x, n_heads) for x in (q, k, v))
    heads = []
    for h in range(n_heads):
        out = ad.attention(q[h], k[h], v[h], 1, scale, bias=None if bias is None else bias[h],
                           rel=None if rel is None else (rel[0][:, h:h + 1], rel[1]))
        heads.append(ad.reshape(out, (1,) + out.shape))
    return _merge_heads(ad.concat(heads, axis=0))


def _packed(shape):
    """The packed (..., L, H*d) shape of head-major (..., H, L, d)."""
    *lead, heads, length, d = shape
    return (*lead, length, heads * d)


_REPEATED_BINS = np.clip(np.subtract.outer([0, 1, 2, 5, 6, 40], [0, 1, 2, 5, 6, 40]), -3, 3) + 3
ATTENTION_CASES = [
    pytest.param((2, 6, 3), (2, 6, 6), True, id="heads-bias-rel"),
    pytest.param((6, 2, 6, 3), (1, 2, 6, 6), False, id="rows-broadcast-bias"),
    pytest.param((2, 6, 3), None, False, id="no-bias"),
]


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("shape,bias_shape,with_rel", ATTENTION_CASES)
def test_attention_matches_op_chain(shape, bias_shape, with_rel):
    """`shape` is the head-major (..., H, L, d) shape; q, k and v are packed."""
    heads = shape[-3]
    weights = np.random.default_rng(10).normal(size=_packed(shape))

    def run(fn):
        rng = np.random.default_rng(11)
        q, k, v = (ad.Tensor(rng.normal(size=_packed(shape)), requires_grad=True) for _ in range(3))
        leaves = [q, k, v]
        bias = rel = None
        if bias_shape is not None:
            bias = ad.Tensor(rng.normal(size=bias_shape), requires_grad=True)
            leaves.append(bias)
        if with_rel:  # 7 bins over (H, d_v); the clipped bins 0 and 6 repeat
            table = ad.Tensor(rng.normal(size=(7, heads, shape[-1])), requires_grad=True)
            leaves.append(table)
            rel = (table, _REPEATED_BINS)
        out = fn(q, k, v, heads, 1.0 / np.sqrt(shape[-1]), bias=bias, rel=rel)
        (out * ad.Tensor(weights)).sum().backward()
        return out.data, [t.grad for t in leaves]

    got, got_grads = run(ad.attention)
    want, want_grads = run(_attention_chain)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, atol=1e-12, rtol=0)
    if not with_rel:  # same ops in the same order: bit-identical
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)


def test_attention_fewer_queries_match_leading_rows():
    """Lq < Lk queries give the first Lq rows of the square attention, bit
    for bit, with bias and relative values cut to those rows; gradients
    agree to rounding (the square run also sums zero rows). At both query
    counts the packed heads give the head-by-head chain's output bit for
    bit, and its gradients to rounding."""
    rng = np.random.default_rng(13)
    heads, length, rows, d = 2, 6, 4, 3
    data = [rng.normal(size=(length, heads * d)) for _ in range(3)]
    bias_data = rng.normal(size=(heads, length, length))
    table_data = rng.normal(size=(7, heads, d))
    weights = rng.normal(size=(rows, heads * d))
    results = {}
    for fn in (ad.attention, _attention_head_by_head):
        for n in (rows, length):
            q, k, v = (ad.Tensor(x.copy(), requires_grad=True) for x in data)
            bias = ad.Tensor(bias_data.copy(), requires_grad=True)
            table = ad.Tensor(table_data.copy(), requires_grad=True)
            out = fn(q[:n], k, v, heads, 1.0 / np.sqrt(d), bias=bias[:, :n],
                     rel=(table, _REPEATED_BINS[:n]))
            (out[:rows] * ad.Tensor(weights)).sum().backward()
            results[fn, n] = [out.data] + [t.grad for t in (q, k, v, bias, table)]
    comparisons = [((ad.attention, rows), (ad.attention, length), slice(rows))]
    for n in (rows, length):
        comparisons.append(((ad.attention, n), (_attention_head_by_head, n), slice(None)))
    for got_key, want_key, kept in comparisons:
        (got, *got_grads), (want, *want_grads) = results[got_key], results[want_key]
        np.testing.assert_array_equal(got, want[kept])
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, atol=1e-12, rtol=0)


def _attention_scaled_as_given(q, k, v, n_heads, scale, weights):
    """Unbiased `ad.attention`, forward and backward, multiplying by `scale`
    as given: the expression `attention` used before it cast the scale to
    the compute dtype, so a float64 scale ran float64 loops on float32
    logits. Returns the output and the gradients of q, k and v for the
    loss sum(out * weights)."""
    def split(x):
        return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, -1)), -2, -3)

    def merge(x):
        x = np.swapaxes(x, -2, -3)
        return x.reshape(x.shape[:-2] + (-1,))

    qh, kh, vh = split(q), split(k), split(v)
    a = qh @ np.swapaxes(kh, -1, -2)
    a *= scale
    a -= np.fmax.reduce(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    g = split(weights)
    ga = g @ np.swapaxes(vh, -1, -2)
    ga -= (ga * a).sum(axis=-1, keepdims=True)
    ga *= a
    ga *= scale
    grads = [ga @ kh, np.swapaxes(np.swapaxes(qh, -1, -2) @ ga, -1, -2),
             np.swapaxes(a, -1, -2) @ g]
    return [merge(x) for x in [a @ vh] + grads]


@pytest.mark.parametrize("d_head", [8, 16])
def test_attention_scales_float32_logits_by_a_float32_scale(d_head):
    """A float64 `scale` gives the bits of that scale cast to float32. At
    d_head 16, 1/sqrt(16) is a power of two, so that is also every bit of
    the float64 expression; at d_head 8 the float64 expression rounds
    differently."""
    rng = np.random.default_rng(15)
    heads, shape = 2, (6, 9, 2 * d_head)  # triangle attention's rows of pair positions
    data = [rng.normal(size=shape).astype(np.float32) for _ in range(4)]
    scale = np.float64(1.0 / np.sqrt(d_head))
    q, k, v = (ad.Tensor(x, requires_grad=True) for x in data[:3])
    out = ad.attention(q, k, v, heads, scale)
    (out * ad.Tensor(data[3])).sum().backward()
    got = [out.data, q.grad, k.grad, v.grad]
    assert all(x.dtype == np.float32 for x in got)
    cast = _attention_scaled_as_given(*data[:3], heads, np.float32(scale), data[3])
    for g, w in zip(got, cast):
        np.testing.assert_array_equal(g, w)
    if d_head == 16:
        as_given = _attention_scaled_as_given(*data[:3], heads, scale, data[3])
        for g, w in zip(got, as_given):
            np.testing.assert_array_equal(g, w)


@pytest.mark.usefixtures("float64")
def test_attention_nonfinite_logits_raise():
    rng = np.random.default_rng(12)
    q = ad.Tensor(np.full((4, 6), 1e200))
    v = ad.Tensor(rng.normal(size=(4, 6)))
    with pytest.raises(NonFiniteValue) as info:
        ad.attention(q, q, v, 2, 0.5)  # 1e200 * 1e200 overflows the logits
    assert "attention" in str(info.value)
    assert "logits shape (2, 4, 4)" in str(info.value)


# -- fused linear, layernorm and pad against the op chains they replace ---------

def _run_both(fused, chain, shapes, weights_shape, seed):
    """Forward data and input gradients of `fused` and `chain` on one input."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) for s in shapes]
    weights = rng.normal(size=weights_shape)
    results = []
    for fn in (fused, chain):
        leaves = [ad.Tensor(v.copy(), requires_grad=True) for v in values]
        out = fn(*leaves)
        (out * ad.Tensor(weights)).sum().backward()
        results.append((out.data, [t.grad for t in leaves]))
    return results


def _assert_bit_identical(results):
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_array_equal(got, want)
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert g is not None and w is not None
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 3, 4)], ids=["2d", "pair"])
def test_linear_matches_matmul_add(x_shape):
    results = _run_both(ad.linear, lambda x, w, b: ad.matmul(x, w) + b,
                        [x_shape, (4, 6), (6,)], x_shape[:-1] + (6,), seed=20)
    _assert_bit_identical(results)


LAYERNORM_CASES = [
    pytest.param((5, 6), (6,), (6,), id="2d-affine"),
    pytest.param((3, 3, 6), (6,), (6,), id="pair-affine"),
    pytest.param((5, 6), (5, 6), (5, 6), id="2d-modulated"),
]


@pytest.mark.parametrize("x_shape,gamma_shape,beta_shape", LAYERNORM_CASES)
def test_layernorm_matches_normalize_mul_add(x_shape, gamma_shape, beta_shape):
    results = _run_both(ad.layernorm,
                        lambda x, gamma, beta: ad.layernorm(x, 1.0, 0.0) * gamma + beta,
                        [x_shape, gamma_shape, beta_shape], x_shape, seed=21)
    _assert_bit_identical(results)


def _pad_chain(a, widths):
    """Zero padding as the concatenation of zero blocks it replaces."""
    for axis, (lo, hi) in enumerate(widths):
        shape = list(a.shape)
        parts = []
        if lo:
            shape[axis] = lo
            parts.append(ad.Tensor(np.zeros(shape)))
        parts.append(a)
        if hi:
            shape[axis] = hi
            parts.append(ad.Tensor(np.zeros(shape)))
        a = ad.concat(parts, axis=axis)
    return a


@pytest.mark.parametrize("shape,widths", [
    pytest.param((3, 4), ((1, 2), (0, 3)), id="2d"),
    pytest.param((2, 3, 3), ((0, 0), (0, 3), (0, 3)), id="bias-quadrant"),
])
def test_pad_matches_zero_concat(shape, widths):
    out_shape = tuple(n + lo + hi for n, (lo, hi) in zip(shape, widths))
    results = _run_both(lambda a: ad.pad(a, widths), lambda a: _pad_chain(a, widths),
                        [shape], out_shape, seed=22)
    _assert_bit_identical(results)


@pytest.mark.parametrize("x_shape,w_shape", [((2, 3), (4, 2)), ((3,), (3, 2))], ids=["width", "1d"])
def test_linear_shape_mismatch(x_shape, w_shape):
    with pytest.raises(ShapeMismatch):
        ad.linear(ad.Tensor(np.ones(x_shape)), ad.Tensor(np.ones(w_shape)), ad.Tensor(np.zeros(2)))


@pytest.mark.usefixtures("float64")
def test_linear_and_layernorm_nonfinite_raise():
    big = ad.Tensor(np.full((2, 3), 1e200))
    with pytest.raises(NonFiniteValue, match=r"linear, output shape \(2, 4\)"):
        ad.linear(big, ad.Tensor(np.full((3, 4), 1e200)), ad.Tensor(np.zeros(4)))
    x = ad.Tensor([[0.0, 1.0, 2.0]])
    with pytest.raises(NonFiniteValue, match=r"layernorm, output shape \(1, 3\)"):
        ad.layernorm(x, ad.Tensor(np.full(3, 1e308)), ad.Tensor(np.full(3, 1e308)))


def test_linear_and_layernorm_modules_record_one_node():
    rng = np.random.default_rng(23)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    lin, norm = ad.Linear(rng, 4, 5), ad.LayerNorm(4)
    assert lin(x)._node.parents == (x._node, lin.w._node, lin.b._node)
    assert norm(x)._node.parents == (x._node, norm.gamma._node, norm.beta._node)


def _sigmoid_gate_chain(x, y):
    """The op chain `gate` replaces, kept as its reference."""
    return ad.sigmoid(x) * y


def _swish_gate_chain(x, y):
    """The op chain `gate(swish=True)` replaces, kept as its reference."""
    return ad.mul(x, ad.sigmoid(x)) * y


GATE_CASES = [
    pytest.param(ad.gate, _sigmoid_gate_chain, 2, id="gate-sigmoid"),
    pytest.param(lambda x, y: ad.gate(x, y, swish=True), _swish_gate_chain, 2, id="gate-swish"),
    pytest.param(ad.swish, lambda x: ad.mul(x, ad.sigmoid(x)), 1, id="swish"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("fused,chain,n_inputs", GATE_CASES)
def test_gate_matches_sigmoid_mul_chain(fused, chain, n_inputs, dtype):
    """Same output and gradients, bit for bit; x reaches past -88 and +88,
    where float32's sigmoid saturates."""
    rng = np.random.default_rng(24)
    values = [rng.normal(size=(3, 5, 4)) * 40.0] + [rng.normal(size=(3, 5, 4))
                                                   for _ in range(n_inputs - 1)]
    weights = rng.normal(size=(3, 5, 4))
    results = []
    with ad.precision(dtype):
        for fn in (fused, chain):
            leaves = [ad.Tensor(v.copy(), requires_grad=True) for v in values]
            out = fn(*leaves)
            (out * ad.Tensor(weights)).sum().backward()
            assert out.data.dtype == dtype
            results.append((out.data, [t.grad for t in leaves]))
    _assert_bit_identical(results)


def test_gate_records_one_node_and_rejects_unequal_shapes():
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    y = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    assert ad.gate(x, y)._node.parents == (x._node, y._node)
    assert ad.swish(x)._node.parents == (x._node, x._node)
    with pytest.raises(ShapeMismatch):
        ad.gate(x, ad.Tensor(np.ones(3)))


def _captured_arrays(fn, seen=None):
    """Every array a function's closure reaches, through nested functions
    and lists (as `recompute`'s input arrays)."""
    seen = set() if seen is None else seen
    found = []
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # a name the function never bound, as `table` without `rel`
            continue
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, list):
            found += [v for v in value if isinstance(v, np.ndarray)]
        elif callable(value) and getattr(value, "__closure__", None) and id(value) not in seen:
            seen.add(id(value))
            found += _captured_arrays(value, seen)
    return found


def _assert_keeps_no_array_like(node, shape, inputs):
    """No array the node's backward keeps, other than the data of its
    `inputs` or a view of it, has `shape` or owns as many elements."""
    size = int(np.prod(shape))
    for arr in _captured_arrays(node._backward):
        if any(np.shares_memory(arr, t.data) for t in inputs):
            continue
        assert arr.shape != tuple(shape), arr.shape
        assert arr.base is not None or arr.size < size, arr.shape


@pytest.mark.parametrize("shape,bias_shape,with_rel", ATTENTION_CASES)
def test_attention_backward_keeps_no_weights(shape, bias_shape, with_rel):
    """The node keeps the row max and sum, not the (..., H, Lq, Lk) weights."""
    heads, length = shape[-3], shape[-2]
    rng = np.random.default_rng(25)
    q, k, v = (ad.Tensor(rng.normal(size=_packed(shape)), requires_grad=True) for _ in range(3))
    bias = None if bias_shape is None else ad.Tensor(rng.normal(size=bias_shape), requires_grad=True)
    rel = None
    if with_rel:
        rel = (ad.Tensor(rng.normal(size=(7, heads, shape[-1])), requires_grad=True), _REPEATED_BINS)
    out = ad.attention(q, k, v, heads, 0.5, bias=bias, rel=rel)
    inputs = [t for t in (q, k, v, bias, rel[0] if rel else None) if t is not None]
    _assert_keeps_no_array_like(out, shape[:-1] + (length,), inputs)


@pytest.mark.parametrize("x_shape,gamma_shape,beta_shape", LAYERNORM_CASES)
def test_layernorm_backward_keeps_no_normalized_input(x_shape, gamma_shape, beta_shape):
    """The node keeps each row's mean and inverse deviation, not x-hat."""
    rng = np.random.default_rng(26)
    x, gamma, beta = (ad.Tensor(rng.normal(size=s), requires_grad=True)
                      for s in (x_shape, gamma_shape, beta_shape))
    _assert_keeps_no_array_like(ad.layernorm(x, gamma, beta), x_shape, [x, gamma, beta])


# -- the compute dtype ----------------------------------------------------------

def test_precision_restores_the_dtype_on_exit_and_on_error():
    assert ad.compute_dtype() is np.float32
    with ad.precision(np.float64):
        assert ad.Tensor([1.0]).data.dtype == np.float64
        with ad.precision(np.float32):
            assert ad.Tensor([1.0]).data.dtype == np.float32
        assert ad.compute_dtype() is np.float64
    assert ad.compute_dtype() is np.float32
    with pytest.raises(ShapeMismatch):
        with ad.precision(np.float64):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    assert ad.compute_dtype() is np.float32
    assert ad.Tensor([1.0]).data.dtype == np.float32


def test_sigmoid_is_finite_in_float32():
    """exp overflows float32 at 88, not 709: the saturated tails stay 0 and 1,
    and the overflow, which gives the exact 0, raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.sigmoid(ad.Tensor([-100.0, 100.0])).data
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, [0.0, 1.0])


def test_linear_float32_overflow_names_the_op():
    """1e20 fits float32, but a product of two does not."""
    big = ad.Tensor(np.full((2, 3), 1e20))
    with pytest.raises(NonFiniteValue, match=r"linear, output shape \(2, 4\)"):
        ad.linear(big, ad.Tensor(np.full((3, 4), 1e20)), ad.Tensor(np.zeros(4)))


@pytest.mark.usefixtures("float64")
def test_backward_releases_every_op_output():
    """Once the walk has passed an op output, its gradient and graph
    references are gone, the root's included; only the leaves keep their
    gradients.
    `h` has three consumers: both operands of `h * h` and `h * c`."""
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = rng.normal(size=(3, 4))
    h = x * w
    squares, scaled = h * h, h * ad.Tensor(c)
    sums = squares.sum(), scaled.sum()
    loss = sums[0] + sums[1]
    loss.backward()
    for node in (t._node for t in (h, squares, scaled, *sums, loss)):
        assert node.grad is None and node.parents == () and node.backward is None
    upstream = 2.0 * x.data * w.data + c  # d loss / d h
    np.testing.assert_allclose(x.grad, upstream * w.data, atol=1e-12)
    np.testing.assert_allclose(w.grad, upstream * x.data, atol=1e-12)


def _traced_full_geo_step(length=32):
    """Traced memory of one full-geo forward, `loss_bit` and backward at
    `length`: (peak over the step, held after forward, peak of the
    backward). Every number counts from the start of the forward."""
    cfg = ModelConfig(pair_bias=True, struct_transition=True, triangle_update=True,
                      triangle_attention=True, seqstruct_attention=True)
    lm = ProteinLM(cfg.validate())
    rng = np.random.default_rng(0)
    t = cfg.T // 2
    x0 = dfn.TokenState.observed(rng.integers(20, size=length),
                                 rng.choice([-1.0, 1.0], size=(length, cfg.k)))
    xt = dfn.forward_mask(x0, lm.schedule, t, rng)
    tracemalloc.start()
    try:
        loss = dfn.loss_bit(lm.forward(xt), x0, xt, t, lm.schedule)
        start, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(forward_peak, backward_peak), start, backward_peak


def test_full_geo_backward_only_lowers_traced_memory():
    """A backward frees each op output's arrays as it passes it, so its
    traced peak stays close to what the graph holds when it starts (1.8x
    when every array lived until the walk ended)."""
    _, start, peak = _traced_full_geo_step()
    assert peak <= 1.25 * start, (peak / start, start)


def test_full_geo_step_traced_peak():
    """Fused gates, the weights and x-hat recomputed in backward, nodes
    that keep only the arrays their backward reads, the pair init and the
    triangle updates recomputed and the blocked gate backward keep the
    step's traced peak at L=32 near 4.5 MiB (6.5 MiB without the last two,
    7.5 MiB when every op output also lived until backward passed its
    consumers, 9.3 MiB when the graph also kept the sigmoids, the swish
    products, every attention's weights and every layernorm's normalized
    input)."""
    peak = _traced_full_geo_step()[0]
    assert peak <= 8.0 * 2**20, peak / 2**20


def test_full_geo_graph_holds_only_what_backward_reads():
    """After a full-geo forward and `loss_bit` at L=48 the graph holds about
    7.2 MiB; it held 11.0 MiB before the pair init and the triangle updates
    were recomputed in backward, and 13.1 MiB while every op output also
    stayed alive until backward passed its consumers."""
    held = _traced_full_geo_step(48)[1]
    assert held <= 12.0 * 2**20, held / 2**20


def test_op_output_that_no_backward_reads_is_freed():
    """A Linear output that only feeds an `add`, and the input of a `pad`,
    are freed once the caller drops their Tensors; a `mul` operand is kept,
    since the other operand's gradient reads it."""
    rng = np.random.default_rng(27)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    lin = ad.Linear(rng, 4, 4)
    residual, padded, product = lin(x), lin(x), lin(x)
    refs = [weakref.ref(t.data) for t in (residual, padded, product)]
    outs = [x + residual, ad.pad(padded, ((1, 0), (0, 2))), product * x]
    del residual, padded, product
    assert [r() is None for r in refs] == [True, True, False]
    sum(out.sum() for out in outs).backward()
    assert x.grad is not None and lin.w.grad is not None


def test_full_geo_recompute_lowers_held_memory_and_backward_peak():
    """With the pair init and the triangle updates recomputed in backward and
    the gate backward run in blocks, a full-geo step at L=48 holds about
    7.2 MiB after the forward and peaks at about 8.2 MiB in backward (11.0
    and 13.0 MiB before: the peak came at the pair transition's swish-gate
    backward, with four gate-sized temporaries)."""
    _, held, peak = _traced_full_geo_step(48)
    assert held <= 8.0 * 2**20, held / 2**20
    assert peak <= 9.5 * 2**20, peak / 2**20


# -- the blocked gate backward --------------------------------------------------

GATE_BLOCK_SHAPES = [
    pytest.param((3, 5, 4), id="below-a-block"),
    pytest.param((ad.BLOCK // 64, 8, 8), id="one-block"),
    pytest.param((2 * ad.BLOCK // 64 + 5, 8, 8), id="partial-last-block"),
    pytest.param((3, ad.BLOCK + 5), id="rows-over-a-block"),
]


@pytest.mark.parametrize("shape", GATE_BLOCK_SHAPES)
@pytest.mark.parametrize("fused,chain", [pytest.param(ad.gate, _sigmoid_gate_chain, id="sigmoid"),
                                         pytest.param(lambda x, y: ad.gate(x, y, swish=True),
                                                      _swish_gate_chain, id="swish")])
def test_gate_blocks_match_the_op_chain(fused, chain, shape):
    """Every block gives the bits of the unblocked op chain, also for an
    upstream gradient in another memory layout (through a transpose)."""
    rng = np.random.default_rng(28)
    values = [rng.normal(size=shape) * 40.0, rng.normal(size=shape)]
    weights = ad.Tensor(rng.normal(size=shape[::-1]))
    results = []
    for fn in (fused, chain):
        leaves = [ad.Tensor(v, requires_grad=True) for v in values]
        out = fn(*leaves)
        (ad.transpose(out) * weights).sum().backward()
        results.append((out.data, [t.grad for t in leaves]))
    _assert_bit_identical(results)


# -- module-level recomputation -------------------------------------------------

RECOMPUTE_CASES = [  # (builder, input shape, an intermediate shape of the sub-layer)
    pytest.param(lambda rng: TriangleUpdate(rng, 8, 12, "outgoing"), (7, 7, 8), (7, 7, 12),
                 id="triangle-outgoing"),
    pytest.param(lambda rng: TriangleUpdate(rng, 8, 12, "incoming"), (7, 7, 8), (7, 7, 12),
                 id="triangle-incoming"),
    pytest.param(lambda rng: PairInit(rng, 10, 8), (7, 10), (7, 7, 8), id="pair-init"),
]


def _randomized(module, rng):
    """`module` with every parameter redrawn: no zero init hides a term."""
    for p in module.parameters().values():
        p.data[...] = rng.normal(scale=0.5, size=p.shape)
    return module


def _direct_and_recomputed(module, x, input_grad=True):
    """Output and input gradient, then each parameter's gradient, of the
    direct call and of `recompute`, under one weighted-sum loss."""
    results = []
    for call in (module, lambda t: ad.recompute(module, t)):
        module.zero_grad()
        leaf = ad.Tensor(x, requires_grad=input_grad)
        out = call(leaf)
        weights = np.random.default_rng(29).normal(size=out.shape)
        (out * ad.Tensor(weights)).sum().backward()
        results.append([out.data, leaf.grad] + [p.grad for p in module.parameters().values()])
    return results


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("build,shape,hidden", RECOMPUTE_CASES)
def test_recompute_matches_the_direct_call(build, shape, hidden, seed):
    """Output, input gradient and every parameter gradient, bit for bit,
    in float32."""
    rng = np.random.default_rng(seed)
    module = _randomized(build(rng), rng)
    got, want = _direct_and_recomputed(module, rng.normal(size=shape))[::-1]
    assert got[0].dtype == np.float32
    for g, w in zip(got, want):
        assert g is not None and w is not None
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("build,shape,hidden", RECOMPUTE_CASES)
def test_recompute_node_keeps_only_its_inputs(build, shape, hidden):
    """The node keeps the input array and none of the sub-layer's
    intermediate arrays; its parents are the input's and the parameters'
    nodes."""
    rng = np.random.default_rng(30)
    module = build(rng)
    x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    out = ad.recompute(module, x)
    kept = _captured_arrays(out._backward)
    assert kept and all(np.shares_memory(arr, x.data) for arr in kept)
    _assert_keeps_no_array_like(out, hidden, [x])
    assert out._node.parents == (x._node, *(p._node for p in module.parameters().values()))


def test_recompute_without_a_graph_is_the_direct_call():
    """Without recording, or when neither the input nor any parameter needs
    a gradient, it returns the direct call's bits and builds no node."""
    rng = np.random.default_rng(31)
    module = _randomized(TriangleUpdate(rng, 8, 12, "outgoing"), rng)
    x = ad.Tensor(rng.normal(size=(7, 7, 8)), requires_grad=True)
    with ad.no_grad():
        out, want = ad.recompute(module, x), module(x)
    assert out._node is None
    np.testing.assert_array_equal(out.data, want.data)
    for p in module.parameters().values():
        p._node = None  # frozen
    out = ad.recompute(module, ad.Tensor(x.data))
    assert out._node is None
    np.testing.assert_array_equal(out.data, want.data)


def test_recompute_trains_parameters_when_no_input_needs_a_gradient():
    rng = np.random.default_rng(32)
    module = _randomized(TriangleUpdate(rng, 8, 12, "incoming"), rng)
    got, want = _direct_and_recomputed(module, rng.normal(size=(7, 7, 8)), input_grad=False)[::-1]
    assert got[1] is None and want[1] is None
    for g, w in zip(got[2:], want[2:]):
        assert g is not None
        np.testing.assert_array_equal(g, w)


def test_full_geo_step_calls_backward_once(monkeypatch):
    """The recomputed sub-layers walk their graphs without `Tensor.backward`,
    which callers may wrap to read the loss once per step."""
    calls = []
    backward = ad.Tensor.backward
    monkeypatch.setattr(ad.Tensor, "backward", lambda self: calls.append(self) or backward(self))
    cfg = ModelConfig(d_model=16, d_pair=8, heads=2, n_blocks=3, T=8, pair_bias=True,
                      struct_transition=True, triangle_update=True, triangle_attention=True,
                      seqstruct_attention=True).validate()
    lm = ProteinLM(cfg)
    rng = np.random.default_rng(33)
    x0 = dfn.TokenState.observed(rng.integers(20, size=10), rng.choice([-1.0, 1.0], size=(10, cfg.k)))
    xt = dfn.forward_mask(x0, lm.schedule, cfg.T // 2, rng)
    dfn.loss_bit(lm.forward(xt), x0, xt, cfg.T // 2, lm.schedule).backward()
    assert len(calls) == 1
    assert all(p.grad is not None for p in lm.pair_init.parameters().values())
    assert all(p.grad is not None for p in lm.pair_updates[0].tri_in.parameters().values())
