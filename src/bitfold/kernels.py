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
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1) + eps)


def pdist_grad(x, d, g, eps=1e-8):
    """Gradient of `pdist` w.r.t. x; eps is unused because d already carries it."""
    diff = x[:, None, :] - x[None, :, :]
    w = g / d  # d >= sqrt(eps) > 0
    gx = (w[:, :, None] * diff).sum(axis=1)
    gx -= (w[:, :, None] * diff).sum(axis=0)
    return gx
