"""Reverse-mode automatic differentiation over dense float32 arrays.

A Tensor wraps a numpy array. An op with an input that needs a gradient
also gives its output a graph `Node`, which records the op; calling
``backward`` on a scalar loss walks the nodes in reverse topological order
and accumulates gradients into the node of every reachable tensor with
``requires_grad=True``. The graph is rebuilt on every forward pass and
freed node by node as backward walks it.

Precision: every Tensor holds an array of the one compute dtype, float32,
as in mixed-precision training (Micikevicius et al. 2018): the graph
computes in float32, while geometry (Kabsch, RMSD, TM-score) and other
reference checks stay in float64 outside it. `precision(dtype)` sets the
dtype for the code inside it, as `no_grad` sets graph recording; it is the
only place the dtype changes. The finite-difference gradient suite runs
under `precision(np.float64)`. Parameters, their gradients and every op
output share the dtype, and constants that modules build for the graph
are made in it (`compute_dtype()`), so no op computes in float64.

Every primitive validates that its output is finite and raises
NonFiniteValue otherwise, naming the op and the output shape, so training
loops fail at the op that produced the bad value rather than many steps
later. That covers float32 overflow, which comes far sooner than float64's
(`exp` overflows at 88, not 709; a product overflows past 3.4e38).

Besides elementwise, reduction, shape and normalization primitives, the
module has fused primitives with hand-written backward passes: `linear`
(matmul plus bias), `layernorm` (normalization plus its affine scale and
shift), `pad` (zero padding), `attention` (every softmax attention in the
package, on packed heads, with optional bias and Shaw relative values),
`gate` (a sigmoid or swish gate times a value, as in gated transitions
and triangle updates), `tri_contract` and `pair_dist`. Each records one
graph node where the op chain it replaces recorded several, so fewer
intermediate arrays stay alive until backward.

Recomputation: some nodes keep less than their backward reads and
recompute the rest, exactly, with the forward's ops in the forward's order
(activation recomputation, Chen et al. 2016). Within one op, `gate` and
`swish` recompute their sigmoid from the input, `layernorm` its normalized
input from its row mean and inverse deviation, and `attention` its weights
from its row max and sum. Across a whole sub-layer, `recompute(module,
*inputs)` runs the module without recording and keeps one node with only
the input arrays; its backward runs the module again, recording, and walks
that graph, so none of the sub-layer's intermediate arrays stay alive
between the passes, at the cost of a second forward. Models choose which
sub-layers to recompute by memory freed per millisecond recomputed
(selective recomputation, Korthikanti et al. 2022). Backward passes also
bound their own temporaries: `gate`'s runs in blocks of about BLOCK
scalars and makes no temporary of the gate's size besides the two
gradients it returns.

Nodes and data: a Tensor holds its array and its node; the node holds the
gradient, the parent nodes and the backward closure, never a Tensor. A
tensor that needs no gradient has no node, and a leaf's node has no
parents and no closure. Each closure captures the nodes it sends gradients
to and only the arrays its backward reads, as PyTorch saves only the
tensors a backward needs (Paszke et al. 2019). `add`, `sub`, `sign_ste`,
`where` and the shape ops (`tsum`, `reshape`, `transpose`, `concat`,
`take`, `pad`) read no input; `mul`, `matmul`, `linear` and
`tri_contract` read an operand only for the other operand's gradient;
`exp`, `sqrt`, `tanh`, `sigmoid`, `softmax` and `log_softmax` read only
their output; the other ops read the inputs their gradients need. So an
op output that no backward reads, such as a projection that only feeds a
residual add, is freed as soon as its caller drops the Tensor, not when
backward reaches its consumer.

Gradient ownership: after ``backward`` only the leaves keep ``.grad``.
Once an op output's backward closure has run, no gradient can reach its
node any more, so the walk drops the node's gradient, parents and closure
there and then, and the arrays the closure saved are freed as soon as no
node still waiting needs them. No gradient array is ever written in
place. A node keeps the first gradient it receives as it is (a broadcast
view if its shape differs) and adds later ones out of place, so a leaf's
``.grad`` may alias the upstream gradient or a sibling's (the two operands
of ``add`` share one array). Code that reads ``.grad`` must copy it before
modifying it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DetachedLoss, NonFiniteValue, NotScalar, ShapeMismatch

LAYERNORM_EPS = 1e-5
BLOCK = 16384  # scalars per pass of a blocked backward: its scratch stays in cache

_grad_enabled = True
_dtype = np.float32


def compute_dtype():
    """The dtype every Tensor holds: float32 unless `precision` says otherwise."""
    return _dtype


@contextlib.contextmanager
def precision(dtype):
    """Compute in `dtype` inside the block and restore the previous dtype on
    exit, also on an exception. Tensors made inside hold `dtype` arrays;
    tensors made before keep theirs, so build the parameters inside too."""
    global _dtype
    prev = _dtype
    _dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _dtype = prev


@contextlib.contextmanager
def _recording(enabled):
    """Record the graph inside the block if `enabled`, restoring the
    previous setting on exit."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = enabled
    try:
        yield
    finally:
        _grad_enabled = prev


def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    return _recording(False)


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise NonFiniteValue("non-finite value in tensor data")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting).

    The leading axes that `shape` lacks are summed as one BLAS product, a
    row of ones times `grad` flattened to (rows, trailing size), in
    `grad`'s dtype: BLAS's order of summation over the rows, not numpy's
    pairwise one, which would sum an (L, L, d) gradient one d-wide row at
    a time. Axes where `shape` has 1 are then summed by numpy."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        n_rows, trailing = math.prod(grad.shape[:extra]), grad.shape[extra:]
        rows = grad.reshape(n_rows, math.prod(trailing))
        grad = (np.ones(n_rows, grad.dtype) @ rows).reshape(trailing)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Node:
    """The graph side of a tensor that needs a gradient: the shape of its
    data, its gradient, the nodes it sends gradients to and the closure
    that sends them (None for a leaf)."""

    __slots__ = ("shape", "grad", "parents", "backward")

    def __init__(self, shape, parents, backward):
        self.shape = shape
        self.grad = None
        self.parents = parents
        self.backward = backward

    def _accum(self, g):
        """Add `g` to the gradient; every gradient arrives here."""
        if self.grad is None:
            self.grad = g if g.shape == self.shape else np.broadcast_to(g, self.shape)
        else:
            self.grad = self.grad + g


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=_dtype)
        _check_finite(arr)
        self.data = arr
        self._node = Node(arr.shape, (), None) if requires_grad else None

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def _backward(self):
        """The backward closure of the op that made this tensor, which the
        walk calls; None for a leaf or a tensor without a gradient."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    # -- graph mechanics ----------------------------------------------------
    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        The walk pops the nodes in reverse topological order. After a
        node's backward closure has run, its parents, its closure and its
        gradient are dropped, so the arrays each closure saved are released
        as the walk passes it; only the leaves keep ``.grad``.
        """
        if self.size != 1:
            raise NotScalar(f"backward requires a scalar, got shape {self.shape}")
        root = self._node
        if root is None:
            raise DetachedLoss("loss does not depend on any tracked parameter")
        root.grad = np.ones_like(self.data)
        _walk(root)

    def zero_grad(self):
        if self._node is not None:
            self._node.grad = None

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def _walk(root):
    """Run the backward closure of every node that `root` reaches, `root`
    first, in reverse topological order; `root.grad` is the seed. After a
    node's closure has run, its parents, closure and gradient are dropped.
    `Tensor.backward` and `recompute` both walk through here."""
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    while topo:
        node = topo.pop()
        backward = node.backward
        if backward is None:
            continue  # a leaf
        if node.grad is not None:
            backward(node.grad)
        # every consumer has run: nothing else reaches this node
        node.parents = ()
        node.backward = None
        node.grad = None


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    """The op output over `data`. `parents` are the inputs' nodes, None for
    an input that needs no gradient; the output gets a node when graph
    recording is on and some input has one."""
    try:
        out = Tensor(data)
    except NonFiniteValue:
        op = backward.__qualname__.split(".")[0]
        raise NonFiniteValue(
            f"non-finite value produced by {op}, output shape {np.shape(data)}") from None
    if _grad_enabled and any(parents):
        out._node = Node(out.data.shape, tuple(filter(None, parents)), backward)
    return out


def _other_operands(a, b):
    """The data of `a` if `b` needs a gradient and the data of `b` if `a`
    does: what a product's backward reads."""
    return (a.data if b._node is not None else None,
            b.data if a._node is not None else None)


# -- arithmetic -------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = a._node, b._node

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(g, nb.shape))

    return _make(a.data + b.data, (na, nb), bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = a._node, b._node

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(-g, nb.shape))

    return _make(a.data - b.data, (na, nb), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = a._node, b._node
    a_data, b_data = _other_operands(a, b)

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g * b_data, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(g * a_data, nb.shape))

    return _make(a.data * b.data, (na, nb), bw)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = a._node, b._node
    a_data, b_data = a.data if nb is not None else None, b.data

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g / b_data, na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(-g * a_data / (b_data * b_data), nb.shape))

    return _make(a.data / b.data, (na, nb), bw)


def power(a, p):
    a = as_tensor(a)
    p = float(p)
    na, a_data = a._node, a.data

    def bw(g):
        na._accum(g * p * a_data ** (p - 1.0))

    return _make(a.data ** p, (na,), bw)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    na, nb = a._node, b._node
    a_data, b_data = _other_operands(a, b)

    def bw(g):
        if na is not None:
            if b_data.ndim > 1:
                ga = g @ np.swapaxes(b_data, -1, -2)
            else:
                ga = np.outer(g, b_data) if len(na.shape) > 1 else g * b_data
            na._accum(_unbroadcast(ga, na.shape))
        if nb is not None:
            gb = np.swapaxes(a_data, -1, -2) @ g if a_data.ndim > 1 else np.outer(a_data, g)
            nb._accum(_unbroadcast(gb, nb.shape))

    return _make(a.data @ b.data, (na, nb), bw)


def linear(x, w, b):
    """x @ w + b as one node, with the bias added into the matmul's output.

    `x` is (..., n, d_in) with at least one leading axis, `w` (d_in, d_out)
    and `b` (d_out,). Forward and backward compute the arrays of the chain
    `matmul` then `add` in its order.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"linear: {x.shape} @ {w.shape}")
    out = x.data @ w.data
    out += b.data
    nx, nw, nb = x._node, w._node, b._node
    x_data, w_data = _other_operands(x, w)

    def bw(g):
        if nb is not None:
            nb._accum(_unbroadcast(g, nb.shape))
        if nx is not None:
            nx._accum(g @ w_data.T)
        if nw is not None:
            nw._accum(_unbroadcast(np.swapaxes(x_data, -1, -2) @ g, nw.shape))

    return _make(out, (nx, nw, nb), bw)


# -- elementwise nonlinearities ---------------------------------------------

def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    na = a._node

    def bw(g):
        na._accum(g * out)

    return _make(out, (na,), bw)


def log(a):
    a = as_tensor(a)
    na, a_data = a._node, a.data

    def bw(g):
        na._accum(g / a_data)

    return _make(np.log(a.data), (na,), bw)


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)
    na = a._node

    def bw(g):
        na._accum(g * 0.5 / out)

    return _make(out, (na,), bw)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    na = a._node

    def bw(g):
        na._accum(g * (1.0 - out * out))

    return _make(out, (na,), bw)


def _sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in one buffer, `out` or a new one. Below -88 in
    float32 (-709 in float64) exp(-x) overflows to inf and the result is
    the exact 0, so the overflow is not warned about."""
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def sigmoid(a):
    a = as_tensor(a)
    out = _sigmoid(a.data)
    na = a._node

    def bw(g):
        na._accum(g * out * (1.0 - out))

    return _make(out, (na,), bw)


def gate(x, y, swish=False):
    """act(x) * y as one node, act being sigmoid, or swish (x * sigmoid(x))
    with `swish`; `x` and `y` have the same shape.

    Backward recomputes sigmoid(x) from `x`, so the graph keeps neither
    the sigmoid nor the swish product. Both passes compute the arrays of the
    chain `sigmoid(x) * y` (`mul(x, sigmoid(x)) * y`) in its order. The
    backward runs over blocks of whole rows of the first axis, about BLOCK
    scalars each, in any memory layout: it allocates only the two
    gradients and reuses two block-sized scratch buffers, so it makes no
    other temporary of the gate's size.
    """
    x, y = as_tensor(x), as_tensor(y)
    if x.shape != y.shape:
        raise ShapeMismatch(f"gate: {x.shape} vs {y.shape}")
    out = _sigmoid(x.data)
    if swish:
        out *= x.data
    out *= y.data
    nx, ny = x._node, y._node
    x_data, y_data = x.data, y.data if nx is not None else None

    def bw(g):
        shape = g.shape or (1,)  # blocks of whole rows along the first axis
        xr, gr = x_data.reshape(shape), g.reshape(shape)
        yr = None if nx is None else y_data.reshape(shape)
        dtype = np.result_type(g, x_data)
        gx = None if nx is None else np.empty(shape, dtype)
        gy = None if ny is None else np.empty(shape, dtype)
        step = max(1, min(shape[0], BLOCK // max(math.prod(shape[1:]), 1)))
        s_buf, t_buf = np.empty((2, step) + shape[1:], dtype)
        for lo in range(0, shape[0], step):
            rows = slice(lo, lo + step)
            xb, gb = xr[rows], gr[rows]
            s = _sigmoid(xb, out=s_buf[:len(xb)])
            if gy is not None:
                if swish:
                    np.multiply(xb, s, out=gy[rows])
                    gy[rows] *= gb
                else:
                    np.multiply(gb, s, out=gy[rows])
            if gx is not None:
                t = t_buf[:len(xb)] if swish else gx[rows]
                np.multiply(gb, yr[rows], out=t)  # reaches act(x)
                if swish:  # x * s: x gets t * s, and t * x reaches s
                    np.multiply(t, s, out=gx[rows])
                    t *= xb
                t *= s  # through the sigmoid: t * s * (1 - s)
                np.subtract(1.0, s, out=s)
                t *= s
                if swish:
                    gx[rows] += t
        if ny is not None:
            ny._accum(gy.reshape(ny.shape))
        if nx is not None:
            nx._accum(gx.reshape(nx.shape))

    return _make(out, (nx, ny), bw)


def relu(a):
    a = as_tensor(a)
    na, a_data = a._node, a.data

    def bw(g):
        na._accum(g * (a_data > 0.0))

    return _make(np.maximum(a.data, 0.0), (na,), bw)


def swish(a):
    """x * sigmoid(x) as one node: `gate(x, x)`, which gives the bits of
    `mul(x, sigmoid(x))` in both passes."""
    return gate(a, a)


def sin(a):
    a = as_tensor(a)
    na, a_data = a._node, a.data

    def bw(g):
        na._accum(g * np.cos(a_data))

    return _make(np.sin(a.data), (na,), bw)


def cos(a):
    a = as_tensor(a)
    na, a_data = a._node, a.data

    def bw(g):
        na._accum(-g * np.sin(a_data))

    return _make(np.cos(a.data), (na,), bw)


def sign_ste(a):
    """sign with sign(0)=+1; straight-through identity gradient."""
    a = as_tensor(a)
    na = a._node

    def bw(g):
        na._accum(g)

    return _make(np.where(a.data >= 0.0, 1.0, -1.0).astype(a.data.dtype), (na,), bw)


# -- reductions -------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    na = a._node

    def bw(g):
        if axis is None:
            na._accum(np.broadcast_to(g, na.shape).copy() if np.ndim(g) else np.full(na.shape, g))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            na._accum(np.broadcast_to(gg, na.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (na,), bw)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.size if axis is None else np.prod([a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    return mul(tsum(a, axis, keepdims), 1.0 / float(n))


# -- shape ops --------------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    na = a._node

    def bw(g):
        na._accum(g.reshape(na.shape))

    return _make(a.data.reshape(shape), (na,), bw)


def transpose(a, axes=None):
    a = as_tensor(a)
    na = a._node

    def bw(g):
        inv = None if axes is None else np.argsort(axes)
        na._accum(np.transpose(g, inv))

    return _make(np.transpose(a.data, axes), (na,), bw)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    nodes = [t._node for t in tensors]

    def bw(g):
        parts = np.split(g, splits, axis=axis)
        for n, p in zip(nodes, parts):
            if n is not None:
                n._accum(p)

    return _make(out, nodes, bw)


def take(a, idx):
    """Basic slicing or integer-array gather; backward scatters-adds.

    Three cases, each with the bits of an unbuffered scatter-add that sums
    in float64 in output order and rounds once, as `np.bincount` does:
    - basic indexing writes the gradient into zeros; adding 0.0 first
      turns -0.0 into +0.0, as that sum does;
    - full slices followed by one integer array run on numpy's `take`
      fast path, and backward sums the gradient with one bincount over
      that array's positions per leading index;
    - any other index gathers the flat source position of every output
      element and sums per position with one bincount.
    """
    a = as_tensor(a)
    na = a._node
    lead, arr = (), idx
    if isinstance(idx, tuple) and idx:
        *lead, arr = idx
    if (isinstance(arr, np.ndarray) and arr.dtype.kind in "iu"
            and all(isinstance(s, slice) and s == slice(None) for s in lead)):
        axis = len(lead)

        def bw(g):
            shape = na.shape
            n, rows, cols = shape[axis], math.prod(shape[:axis]), math.prod(shape[axis + 1:])
            bins = arr.ravel()
            if bins.size and bins.min() < 0:  # they count from the end, as in np.take
                bins = bins % n
            if cols > 1:
                bins = (bins[:, None] * cols + np.arange(cols)).ravel()
            g = g.reshape(rows, -1)
            grad = np.empty((rows, n * cols), g.dtype)
            for r in range(rows):
                grad[r] = np.bincount(bins, weights=g[r], minlength=n * cols)  # always float64
            na._accum(grad.reshape(shape))

        return _make(np.take(a.data, arr, axis=axis), (na,), bw)

    out = a.data[idx]
    if np.may_share_memory(out, a.data):  # basic indexing: a view, no element twice
        def bw(g):
            grad = np.zeros(na.shape, g.dtype)
            grad[idx] = g + 0.0
            na._accum(grad)

    else:
        def bw(g):
            size = math.prod(na.shape)
            pos = np.arange(size).reshape(na.shape)[idx]
            summed = np.bincount(pos.ravel(), weights=g.ravel(), minlength=size)  # always float64
            na._accum(summed.astype(g.dtype, copy=False).reshape(na.shape))

    return _make(out, (na,), bw)


def pad(a, widths):
    """Zero-pad `a` by (before, after) counts per axis; backward slices.

    `widths` has one (before, after) pair per axis, as in `np.pad`.
    """
    a = as_tensor(a)
    inner = tuple(slice(lo, lo + n) for (lo, _), n in zip(widths, a.shape))
    na = a._node

    def bw(g):
        na._accum(g[inner])

    return _make(np.pad(a.data, widths), (na,), bw)


def where(cond, a, b):
    """cond is a constant boolean array; gradients flow to both branches."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    na, nb = a._node, b._node

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(np.where(cond, g, 0.0), na.shape))
        if nb is not None:
            nb._accum(_unbroadcast(np.where(cond, 0.0, g), nb.shape))

    return _make(np.where(cond, a.data, b.data), (na, nb), bw)


# -- normalizations ---------------------------------------------------------

def softmax(a, axis=-1):
    a = as_tensor(a)
    x = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(x)
    out = e / e.sum(axis=axis, keepdims=True)
    na = a._node

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        na._accum((g - dot) * out)

    return _make(out, (na,), bw)


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    x = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(x).sum(axis=axis, keepdims=True))
    out = x - lse
    na = a._node

    def bw(g):
        sm = np.exp(out)
        na._accum(g - sm * g.sum(axis=axis, keepdims=True))

    return _make(out, (na,), bw)


def layernorm(a, gamma, beta, eps=LAYERNORM_EPS):
    """Normalize the trailing axis to zero mean and unit variance, then
    scale by `gamma` and shift by `beta`, as one node.

    `gamma` and `beta` broadcast against the output: (d,) for a learned
    affine, (L, d) for a per-row modulation. Constant rows normalize to
    zeros: variance 0 plus eps avoids division by zero. Forward and backward
    compute the arrays of the chain `normalize * gamma + beta` in its order.
    The node keeps each row's mean and inverse deviation; backward
    recomputes the normalized input from them.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data
    na, ngamma, nbeta = a._node, gamma._node, beta._node
    a_data, gamma_data = a.data, gamma.data if na is not None else None

    def bw(g):
        if nbeta is not None:
            nbeta._accum(_unbroadcast(g, nbeta.shape))
        xhat = a_data - mu
        xhat *= inv
        if ngamma is not None:
            ngamma._accum(_unbroadcast(g * xhat, ngamma.shape))
        if na is not None:
            gn = g * gamma_data
            gm = gn.mean(axis=-1, keepdims=True)
            gxm = (gn * xhat).mean(axis=-1, keepdims=True)
            na._accum(inv * (gn - gm - xhat * gxm))

    return _make(out, (na, ngamma, nbeta), bw)


# -- fused attention --------------------------------------------------------

def attention(q, k, v, n_heads, scale, bias=None, rel=None):
    """softmax(q @ k^T * scale + bias) @ v per head, as one node.

    `q`, `k` and `v` hold `n_heads` heads packed along the last axis,
    (..., L, H * d); attention runs along the second-to-last axis and any
    leading axes are independent rows. The output is packed the same way,
    (..., Lq, H * d_v). The head split and merge are numpy views in both
    passes: the per-head arrays are (..., H, L, d).

    `q` may have fewer rows than `k` and `v` (Lq <= Lk): each query row
    attends over all Lk keys. `bias` broadcasts against the (..., H, Lq, Lk)
    logits.

    `rel = (table, diff)` adds Shaw relative values, out[h, i] += sum_j
    a[h, i, j] * table[diff[i, j], h]: `table` is an (R, H, d_v) Tensor and
    `diff` an (Lq, Lk) int array of bins. Summing the attention per bin,
    B[h, i, r] = sum_{j: diff[i, j] = r} a[h, i, j], makes that term
    B @ table, so no (H, Lq, Lk, d_v) array is built in either pass.
    `rel` works with leading axes too: every row shares the one table and
    bin map, and the table's gradient is summed over the rows. Each row
    gets the bits it gets when attended alone.
    The forward runs in the order of the unfused op chain and without `rel`
    gives the same bits.

    `scale` is cast once to the dtype of `q`, and both passes multiply the
    logits (and backward their gradient) by that value, so a float64 scale
    on float32 logits costs no float64 loop; a scale that is a power of
    two, as 1/sqrt(16) is, keeps every bit.

    The node keeps only each row's logit max and exp sum, as FlashAttention
    (Dao et al. 2022) does: backward rebuilds the weights with the
    forward's ops in the forward's order, so it gets the same bits, and no
    (..., H, Lq, Lk) array stays alive between the passes.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    nq, nk, nv = q._node, k._node, v._node
    parents = [nq, nk, nv]

    def split(x):  # (..., L, H*d) -> (..., H, L, d), a view when x is contiguous
        return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, -1)), -2, -3)

    def merge(x, shape):  # (..., H, L, d) -> (..., L, H*d)
        return np.swapaxes(x, -2, -3).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = qh.dtype.type(scale)
    bias_data = nbias = None
    if bias is not None:
        bias = as_tensor(bias)
        bias_data, nbias = bias.data, bias._node
        parents.append(nbias)

    def logits():
        a = qh @ np.swapaxes(kh, -1, -2)  # turned into weights in place
        a *= scale
        if bias_data is not None:
            a += bias_data
        return a

    a = logits()
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"non-finite value produced by attention, logits shape {a.shape}")
    row_max = np.fmax.reduce(a, axis=-1, keepdims=True)  # finite logits: fmax equals max, and is faster
    a -= row_max
    np.exp(a, out=a)
    row_sum = a.sum(axis=-1, keepdims=True)
    a /= row_sum
    out = a @ vh
    tv = ntable = None
    if rel is not None:
        table, diff = rel
        ntable = table._node
        parents.append(ntable)
        n_bins, block = table.shape[0], diff.shape[0] * table.shape[0]
        cells = np.arange(diff.shape[0])[:, None] * n_bins + diff  # bins in one (Lq, R) block
        planes = a.size // diff.size  # the leading axes times the heads

        def bin_sums(a):  # (..., H, Lq, R)
            bins = np.arange(planes).reshape(-1, 1, 1) * block + cells
            per_bin = np.bincount(bins.ravel(), weights=a.ravel(), minlength=planes * block)
            per_bin = per_bin.astype(a.dtype, copy=False)  # bincount always returns float64
            return per_bin.reshape(a.shape[:-1] + (n_bins,))

        tv = np.swapaxes(table.data, 0, 1)  # (H, R, d_v)
        out += bin_sums(a) @ tv

    def bw(g):
        a = logits()  # the weights again, from the row max and sum
        a -= row_max
        np.exp(a, out=a)
        a /= row_sum
        g = split(g)
        if nv is not None:
            nv._accum(merge(np.swapaxes(a, -1, -2) @ g, nv.shape))
        ga = g @ np.swapaxes(vh, -1, -2)
        if tv is not None:
            if ntable is not None:
                g_tv = _unbroadcast(np.swapaxes(bin_sums(a), -1, -2) @ g, tv.shape)
                ntable._accum(np.swapaxes(g_tv, 0, 1))
            g_bin = g @ np.swapaxes(tv, -1, -2)  # (..., H, Lq, R), gathered per (i, j) at diff[i, j]
            ga += np.take(g_bin.reshape(g_bin.shape[:-2] + (-1,)), cells, axis=-1)
        ga -= (ga * a).sum(axis=-1, keepdims=True)
        ga *= a
        if nbias is not None:
            gb = _unbroadcast(ga, nbias.shape)
            nbias._accum(gb)
            if gb is ga:  # bias now holds ga, so scale a copy
                ga = ga.copy()
        ga *= scale
        if nq is not None:
            nq._accum(merge(ga @ kh, nq.shape))
        if nk is not None:
            nk._accum(merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ ga, -1, -2), nk.shape))

    return _make(merge(out, q.shape[:-1] + (-1,)), parents, bw)


# -- pair-tensor contractions (hot kernels) ---------------------------------

def tri_contract(a, b, mode):
    """Channel-wise L x L contraction used by triangle multiplicative updates.

    mode 'outgoing': out[i,j,d] = sum_k a[i,k,d] * b[j,k,d]
    mode 'incoming': out[i,j,d] = sum_k a[k,i,d] * b[k,j,d]
    """
    from . import kernels

    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or a.ndim != 3 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"tri_contract: {a.shape} vs {b.shape}")
    na, nb = a._node, b._node
    a_data, b_data = _other_operands(a, b)
    if mode == "outgoing":
        # per channel d: O = A B^T, dA = G B, dB = G^T A
        out = kernels.cmm_bt(a.data, b.data)

        def bw(g):
            if na is not None:
                na._accum(kernels.cmm(g, b_data))
            if nb is not None:
                nb._accum(kernels.cmm_at(g, a_data))

    elif mode == "incoming":
        # per channel d: O = A^T B, dA = B G^T, dB = A G
        out = kernels.cmm_at(a.data, b.data)

        def bw(g):
            if na is not None:
                na._accum(kernels.cmm_bt(b_data, g))
            if nb is not None:
                nb._accum(kernels.cmm(a_data, g))

    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _make(out, (na, nb), bw)


def pair_dist(x, eps=1e-8):
    """Smoothed pairwise distance matrix of an (L,3) point set.

    D[i,j] = sqrt(|x_i - x_j|^2 + eps); eps keeps the diagonal
    differentiable.
    """
    from . import kernels

    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ShapeMismatch(f"pair_dist expects (L,3), got {x.shape}")
    out = kernels.pdist(x.data, eps)
    nx, x_data = x._node, x.data

    def bw(g):
        nx._accum(kernels.pdist_grad(x_data, out, g, eps))

    return _make(out, (nx,), bw)


# -- module-level recomputation ---------------------------------------------

def recompute(module, *inputs):
    """`module(*inputs)` as one node that keeps only the input arrays.

    The forward runs the module without recording. Backward runs it again,
    recording, on leaves over the same input arrays, seeds its output with
    the incoming gradient and walks that graph: the module's parameters get
    their gradients there, and each input's gradient goes on to the
    input's node. The node's parents are the input nodes and the
    parameters' nodes, so the parameters are trained also when no input
    needs a gradient. The module must return one Tensor and read no Tensor
    with a node other than its inputs and its parameters.

    The rerun computes the forward's arrays with the forward's ops, so the
    gradients get the direct call's bits as long as they add up in the same
    order. An input's gradients from inside the module are summed before
    the input's node sees them, so that holds when the module reads each
    input once or nothing outside the module reads it, as for the pair
    init and the triangle updates. Without recording, or when nothing needs
    a gradient, it is the direct call.
    """
    in_nodes = [t._node for t in inputs]
    parents = [n for n in in_nodes if n is not None]
    parents += [p._node for p in module.parameters().values()]
    if not (_grad_enabled and parents):
        return module(*inputs)
    arrays = [t.data for t in inputs]
    with no_grad():
        out = module(*inputs)

    def bw(g):
        leaves = [Tensor(arr, requires_grad=node is not None)
                  for arr, node in zip(arrays, in_nodes)]
        with _recording(True):
            root = module(*leaves)._node
        root.grad = g
        _walk(root)
        for leaf, node in zip(leaves, in_nodes):
            if node is not None and leaf.grad is not None:
                node._accum(leaf.grad)

    out._node = Node(out.shape, tuple(parents), bw)
    return out


# -- gradient checking ------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    passed: bool

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] max_rel_err={self.max_rel_err:.3e} at {self.worst_param}"


def grad_check(fn, params, step=1e-5, seed=0, tol=1e-4, max_entries=40):
    """Compare backward() gradients with central finite differences.

    `fn` rebuilds the loss from scratch on each call (it closes over
    `params`, a dict name -> Tensor). Large tensors are subsampled
    deterministically by `seed`.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    for p in params.values():
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros(p.shape))
                for k, p in params.items()}
    rng = np.random.default_rng(seed)
    worst, worst_name = 0.0, "<none>"
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        idxs = np.arange(n) if n <= max_entries else rng.choice(n, size=max_entries, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = fn().item()
            flat[i] = orig - step
            f_minus = fn().item()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * step)
            ana = analytic[name].reshape(-1)[i]
            denom = max(abs(num), abs(ana), 1.0)
            rel = abs(num - ana) / denom
            if rel > worst:
                worst, worst_name = rel, f"{name}[{i}]"
    return GradCheckReport(max_rel_err=worst, worst_param=worst_name, passed=worst < tol)


# -- parameter containers ---------------------------------------------------

class Module:
    """Minimal parameter container: Tensor attributes and sub-Modules."""

    def parameters(self, prefix=""):
        out = {}
        for name, val in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(val, Tensor) and val.requires_grad:
                out[key] = val
            elif isinstance(val, Module):
                out.update(val.parameters(prefix=key + "."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.update(item.parameters(prefix=f"{key}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out[f"{key}.{i}"] = item
        return out

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()


def param(rng, *shape, scale=None):
    """Gaussian-initialized trainable tensor; fan-in scaling by default.

    The values are drawn in float64 and cast to the compute dtype, so the
    init stream of `rng` does not depend on the dtype."""
    if scale is None:
        fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
        scale = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def zeros_param(*shape):
    return Tensor(np.zeros(shape, dtype=_dtype), requires_grad=True)


class Linear(Module):
    def __init__(self, rng, d_in, d_out, zero_init=False):
        if zero_init:
            self.w = zeros_param(d_in, d_out)
        else:
            self.w = param(rng, d_in, d_out)
        self.b = zeros_param(d_out)

    def __call__(self, x):
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    """`layernorm` over the last axis with a learnable scale and shift."""

    def __init__(self, d):
        self.gamma = Tensor(np.ones(d, dtype=_dtype), requires_grad=True)
        self.beta = zeros_param(d)

    def __call__(self, x):
        return layernorm(x, self.gamma, self.beta)
