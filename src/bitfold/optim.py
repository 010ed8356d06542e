"""Adam optimizer, the warmup/linear-decay learning-rate schedule, and the
one training loop every trainer runs."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteLoss, NonFiniteValue


def warmup_linear_decay(step, total_steps, peak, warmup, floor):
    """LR warmed up linearly to `peak`, then decayed linearly to `floor`."""
    if step < warmup:
        return peak * (step + 1) / warmup
    if total_steps <= warmup:
        return peak
    frac = (step - warmup) / max(total_steps - warmup, 1)
    return peak + (floor - peak) * min(frac, 1.0)


BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
CHUNK = 16384  # scalars per update pass: the scratch and the slices stay in cache


class Adam:
    """Adam over one contiguous buffer that holds every parameter.

    On construction the parameters' values are copied into `self.data`, in
    the order of `params`, and each `p.data` becomes a view of its slice;
    `m` and `v` are flat buffers of the same layout. A step copies the
    gradients of each run of consecutive parameters that have one into
    scratch, CHUNK scalars at a time, and updates the matching slices of
    data, `m` and `v` from it, so no parameter-sized temporary is made.
    It evaluates the per-array update's elementwise expressions in the
    same order, so every value is bit-identical to updating the arrays one
    by one. A parameter whose `grad` is None keeps its slices of data, `m`
    and `v` untouched.

    The buffers and the scratch hold the parameters' dtype (the autodiff
    compute dtype, float32 unless set by `autodiff.precision`), so the
    update never computes in a wider type than the parameters.
    """

    def __init__(self, params):
        self.slots = []  # (tensor, start) in buffer order
        size = 0
        for p in dict(params).values():
            self.slots.append((p, size))
            size += p.data.size
        self.dtype = np.result_type(*(p.data for p, _ in self.slots))
        self.data = np.empty(size, dtype=self.dtype)
        for p, lo in self.slots:
            view = self.data[lo:lo + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
        self.m = np.zeros(size, dtype=self.dtype)
        self.v = np.zeros(size, dtype=self.dtype)
        self.t = 0

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        # allocated per step: kept on the optimizer, the 384 KiB of scratch showed in peak RSS
        scratch_g, scratch_1, scratch_2 = np.empty((3, CHUNK), dtype=self.dtype)

        def update(start, n):
            """Adam on buffer slice [start, start + n) with the first n gathered gradients."""
            if n == 0:
                return
            g, s1, s2 = scratch_g[:n], scratch_1[:n], scratch_2[:n]
            m, v = self.m[start:start + n], self.v[start:start + n]
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=s1)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=s1)
            s1 *= g
            v += s1
            np.divide(m, bc1, out=s1)
            np.multiply(lr, s1, out=s1)
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += EPS
            s1 /= s2
            self.data[start:start + n] -= s1

        start = fill = 0  # the buffer offset of the scratch's first scalar; scalars gathered
        for p, lo in self.slots:
            if p.grad is None:
                update(start, fill)
                fill = 0
                continue
            if fill == 0:
                start = lo
            grad = p.grad.reshape(-1)
            done = 0
            while done < grad.size:
                n = min(CHUNK - fill, grad.size - done)
                scratch_g[fill:fill + n] = grad[done:done + n]
                fill += n
                done += n
                if fill == CHUNK:
                    update(start, fill)
                    start += fill
                    fill = 0
        update(start, fill)

    def zero_grad(self):
        for p, _ in self.slots:
            p.zero_grad()


def fit(params, items, steps, rng, step_loss, name, peak, warmup, floor=1e-5, log_every=0):
    """Train `params` with Adam for `steps` steps; returns the per-step losses.

    Each step draws an item index `i` uniformly from `items` and calls
    `step_loss(i)`, which returns `(loss, note)` with `note` appended to
    the log line, or `None` when the step has nothing to learn from; such
    a step records 0.0 and leaves the parameters and Adam untouched.

    Gradients are cleared before the first step and right after each Adam
    step, so a step sees only its own, the last step's are gone before the
    next forward runs, and none remain after `fit`.

    The warmup is clipped to a tenth of the run (at least one step), so a
    run shorter than its configured warmup still reaches `peak`.

    `len(items)` is called exactly once per step, as the step's first
    action, and nowhere else (the empty check is a truth test): the
    benchmark counts those calls to mark step boundaries and to stop a run.
    """
    if not items:
        raise ValueError(f"no training items for {name}")
    warmup = min(warmup, max(steps // 10, 1))
    opt = Adam(params)
    opt.zero_grad()
    losses = []
    for step in range(steps):
        i = int(rng.integers(len(items)))
        try:
            out = step_loss(i)
            if out is None:
                losses.append(0.0)
                continue
            loss, note = out
            loss.backward()
        except NonFiniteValue as exc:
            raise NonFiniteLoss(f"non-finite {name} loss at step {step}: {exc}")
        opt.step(lr=warmup_linear_decay(step, steps, peak=peak, warmup=warmup, floor=floor))
        opt.zero_grad()
        losses.append(loss.item())
        if log_every and step % log_every == 0:
            print(f"{name} step {step}: loss {losses[-1]:.4f}{note}")
    return losses
