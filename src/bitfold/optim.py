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


class Adam:
    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8):
        self.params = dict(params)
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * p.grad
            v *= self.b2
            v += (1.0 - self.b2) * p.grad * p.grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def fit(params, items, steps, rng, step_loss, name, peak, warmup, floor=1e-5, log_every=0):
    """Train `params` with Adam for `steps` steps; returns the per-step losses.

    Each step draws an item index `i` uniformly from `items` and calls
    `step_loss(i)`, which returns `(loss, note)` with `note` appended to
    the log line, or `None` when the step has nothing to learn from; such
    a step records 0.0 and leaves the parameters and Adam untouched.

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
    losses = []
    for step in range(steps):
        i = int(rng.integers(len(items)))
        try:
            out = step_loss(i)
            if out is None:
                losses.append(0.0)
                continue
            loss, note = out
            opt.zero_grad()
            loss.backward()
        except NonFiniteValue as exc:
            raise NonFiniteLoss(f"non-finite {name} loss at step {step}: {exc}")
        opt.step(lr=warmup_linear_decay(step, steps, peak=peak, warmup=warmup, floor=floor))
        losses.append(loss.item())
        if log_every and step % log_every == 0:
            print(f"{name} step {step}: loss {losses[-1]:.4f}{note}")
    return losses
