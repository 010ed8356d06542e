"""Hot numeric kernels, in numpy; the contractions reach BLAS via `einsum`.

Kernel set:
  cmm / cmm_bt / cmm_at  channel-wise L x L matmuls backing the triangle
                         multiplicative update and its backward pass
  pdist / pdist_grad     smoothed pairwise Calpha distance matrix used by
                         the tokenizer reconstruction loss

`autodiff` calls these through the module (`kernels.<name>`) so that a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np


def backend():
    """Name of the numeric backend; numpy is the only one."""
    return "numpy"


def cmm(a, b):
    # out[i,j,d] = sum_k a[i,k,d] * b[k,j,d]
    return np.einsum("ikd,kjd->ijd", a, b, optimize=True)


def cmm_bt(a, b):
    # out[i,j,d] = sum_k a[i,k,d] * b[j,k,d]
    return np.einsum("ikd,jkd->ijd", a, b, optimize=True)


def cmm_at(a, b):
    # out[i,j,d] = sum_k a[k,i,d] * b[k,j,d]
    return np.einsum("kid,kjd->ijd", a, b, optimize=True)


def pdist(x, eps=1e-8):
    """D[i, j] = sqrt(sum_c (x[i, c] - x[j, c])^2 + eps) of an (L, C) point set.

    The squared differences are built one coordinate column at a time, as
    (L, L) arrays, and added in column order, c = 0 first, in the dtype of
    `x`. For three coordinates that is the order numpy's sum over the last
    axis of an (L, L, 3) difference array takes, so the bits are the same."""
    d2 = None
    for col in x.T:
        sq = col[:, None] - col[None, :]
        sq *= sq
        if d2 is None:
            d2 = sq
        else:
            d2 += sq
    return np.sqrt(d2 + eps)


def pdist_grad(x, d, g, eps=1e-8):
    """Gradient of `pdist` w.r.t. x; eps is unused because d already carries it.

    With w = g / d and diff[i, j] = x[i, c] - x[j, c], column c of the
    gradient is sum_j w[i, j] diff[i, j] - sum_i w[i, j] diff[i, j]. Each
    sum runs over the first axis of a contiguous (L, L) product, the first
    one over w's transpose, so both add their terms one row at a time in
    index order, in the dtype of the product; the bits are those of
    summing the (L, L, C) product over j and over i."""
    w = g / d  # d >= sqrt(eps) > 0
    w_t = np.ascontiguousarray(w.T)
    gx = np.empty(x.shape, np.result_type(w, x))
    for c, col in enumerate(x.T):
        diff = col[:, None] - col[None, :]
        gx[:, c] = (w_t * diff.T).sum(axis=0)
        gx[:, c] -= (w * diff).sum(axis=0)
    return gx
