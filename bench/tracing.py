"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

Spans are recorded from the benchmark's side only: `install` wraps the public
functions and `Module.__call__`s of each bitfold layer, and every autodiff
primitive together with the backward closure it returns. A span is
[name, start, end, parent, op, peak_bytes]; spans stay in memory and are
written once, when the run ends.

Counts (calls, computed FLOPs and bytes, peak memory) come from the first
`count_ops` timed ops, which are deterministic for a seed, so they repeat
exactly. Times come from the ops after that window, when tracemalloc is off.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

# Every autodiff primitive: each one builds exactly one graph node.
PRIMITIVES = (
    "add", "sub", "mul", "div", "power", "matmul", "exp", "log", "sqrt", "tanh",
    "sigmoid", "relu", "sin", "cos", "sign_ste", "tsum", "reshape", "transpose",
    "concat", "take", "where", "softmax", "log_softmax", "layernorm",
    "tri_contract", "pair_dist",
)
# The primitives reported one by one.
REPORTED_OPS = (
    "matmul", "add", "mul", "take", "concat", "transpose", "reshape", "softmax",
    "log_softmax", "layernorm", "sigmoid", "tri_contract", "pair_dist",
)
MODULE_CALLS = {
    "nn": ("MultiHeadAttention", "Transition", "RelPosBias", "MLP"),
    "geo_arch": ("TriangleAttention", "TriangleUpdate", "PairInit", "SeqStructAttention", "PairBias"),
    "tokenizer": ("Encoder", "Decoder"),
}
PEAK_TRACKED = ("geo_arch.TriangleAttention", "geo_arch.PairInit")
CMM_KERNELS = ("cmm", "cmm_bt", "cmm_at")

SETUP_OP = -1
MIB = 1024.0 * 1024.0


class Patcher:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self, count_ops):
        self.count_ops = count_ops
        self.spans = []
        self.stack = []
        self.op = SETUP_OP
        self.cmm_work = []  # (op, flops, bytes) per channel-matmul kernel call

    # -- recording -------------------------------------------------------------
    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def mark_op(self, op):
        """Called at the start of every timed op (0, 1, ...) by the op clock."""
        self.op = op
        if op == 0:
            tracemalloc.start()
        elif op == self.count_ops and tracemalloc.is_tracing():
            tracemalloc.stop()

    def stop(self):
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _span_wrapper(self, name, peak=False):
        tracer = self

        def make(fn):
            def wrapped(*args, **kwargs):
                track = peak and tracemalloc.is_tracing()
                if track:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                idx = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                    if track:
                        tracer.spans[idx][5] = tracemalloc.get_traced_memory()[1] - base

            return wrapped

        return make

    def _op_wrapper(self, name):
        tracer = self
        fwd_name, bwd_name = f"autodiff.{name}.fwd", f"autodiff.{name}.bwd"

        def make(fn):
            def wrapped(*args, **kwargs):
                idx = tracer.begin(fwd_name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                backward = out._backward
                if backward is not None:
                    def timed_backward(g):
                        j = tracer.begin(bwd_name)
                        try:
                            backward(g)
                        finally:
                            tracer.end(j)

                    out._backward = timed_backward
                return out

            return wrapped

        return make

    def _cmm_wrapper(self, name):
        tracer = self
        inner = self._span_wrapper(f"kernels.{name}")

        def make(fn):
            timed = inner(fn)

            def wrapped(a, b):
                if 0 <= tracer.op < tracer.count_ops:
                    n, _, d = a.shape
                    tracer.cmm_work.append((tracer.op, 2.0 * n * n * n * d, 3.0 * n * n * d * a.itemsize))
                return timed(a, b)

            return wrapped

        return make

    def install(self, patcher):
        """Wrap every traced entry point; `patcher.restore()` removes them."""
        from bitfold import autodiff as ad
        from bitfold import diffusion as dfn
        from bitfold import geo_arch, geometry, kernels, nn, optim
        from bitfold import tokenizer as tok

        for name in PRIMITIVES:
            patcher.wrap(ad, name, self._op_wrapper(name))
        patcher.wrap(ad.Tensor, "backward", self._span_wrapper("autodiff.Tensor.backward"))
        for name in CMM_KERNELS:
            patcher.wrap(kernels, name, self._cmm_wrapper(name))
        for name in ("pdist", "pdist_grad"):
            patcher.wrap(kernels, name, self._span_wrapper(f"kernels.{name}"))
        layers = {"nn": nn, "geo_arch": geo_arch, "tokenizer": tok}
        for layer, classes in MODULE_CALLS.items():
            for cls in classes:
                name = f"{layer}.{cls}"
                patcher.wrap(getattr(layers[layer], cls), "__call__",
                             self._span_wrapper(name, peak=name in PEAK_TRACKED))
        patcher.wrap(geo_arch.ProteinLM, "forward", self._span_wrapper("geo_arch.ProteinLM.forward"))
        patcher.wrap(optim.Adam, "step", self._span_wrapper("optim.Adam.step"))
        patcher.wrap(optim.Adam, "zero_grad", self._span_wrapper("optim.Adam.zero_grad"))
        for name in ("forward_mask", "loss_bit", "generate", "sample_prediction"):
            patcher.wrap(dfn, name, self._span_wrapper(f"diffusion.{name}"))
        for name in ("encode", "lfq_quantize", "reconstruction_loss"):
            patcher.wrap(tok, name, self._span_wrapper(f"tokenizer.{name}"))
        for name in ("rmsd", "tm_score"):
            patcher.wrap(geometry, name, self._span_wrapper(f"geometry.{name}"))

    # -- output ----------------------------------------------------------------
    def write(self, path, meta):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "fields": ["name", "start_s", "end_s", "parent", "op", "peak_bytes"],
                "names": names,
                "spans": [[ids[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4], s[5]]
                          for s in self.spans],
            }, fh, separators=(",", ":"))

    def layer_metrics(self, op_ms, training):
        """Per-layer metrics from the spans.

        `op_ms` are the traced op durations; `training` says whether an op is a
        training step. Times are means per op over the ops after the count
        window; counts are per op over the count window.
        """
        n_count = self.count_ops
        timed_ops = list(range(n_count, len(op_ms))) or list(range(len(op_ms)))
        first_timed = timed_ops[0]
        n_timed = len(timed_ops)

        self_s, incl_s, calls, peak = {}, {}, {}, {}
        child = [0.0] * len(self.spans)
        names = [s[0] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for idx, (name, start, end, parent, op, peak_bytes) in enumerate(self.spans):
            if 0 <= op < n_count:
                calls[name] = calls.get(name, 0) + 1
                if peak_bytes:
                    peak[name] = max(peak.get(name, 0), peak_bytes)
            if op < first_timed:
                continue
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + dur - child[idx]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                incl_s[name] = incl_s.get(name, 0.0) + dur

        def ms(name, table=incl_s):
            return 1e3 * table.get(name, 0.0) / n_timed

        def per_op(*names):
            return sum(calls.get(name, 0) for name in names) / n_count

        m = {}
        m["autodiff.ops_per_op"] = per_op(*(f"autodiff.{p}.fwd" for p in PRIMITIVES))
        m["autodiff.backward_ms"] = ms("autodiff.Tensor.backward", self_s)
        for op in REPORTED_OPS:
            m[f"autodiff.{op}.calls"] = per_op(f"autodiff.{op}.fwd")
            m[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}.fwd")
            m[f"autodiff.{op}.bwd_ms"] = ms(f"autodiff.{op}.bwd")
        for layer, classes in MODULE_CALLS.items():
            for cls in classes:
                m[f"{layer}.{cls}.fwd_ms"] = ms(f"{layer}.{cls}")
        for name in PEAK_TRACKED:
            m[f"{name}.peak_mib"] = peak.get(name, 0) / MIB
        m["geo_arch.ProteinLM.forward_ms"] = ms("geo_arch.ProteinLM.forward")
        m["kernels.cmm.calls"] = per_op(*(f"kernels.{k}" for k in CMM_KERNELS))
        m["kernels.cmm.ms"] = sum(ms(f"kernels.{k}") for k in CMM_KERNELS)
        m["kernels.cmm.gflop"] = sum(w[1] for w in self.cmm_work) / 1e9 / n_count
        m["kernels.cmm.mbytes"] = sum(w[2] for w in self.cmm_work) / 1e6 / n_count
        m["kernels.pdist.ms"] = ms("kernels.pdist") + ms("kernels.pdist_grad")
        m["optim.Adam.step_ms"] = ms("optim.Adam.step")
        m["diffusion.forward_mask_ms"] = ms("diffusion.forward_mask")
        m["diffusion.loss_ms"] = ms("diffusion.loss_bit")
        m["diffusion.generate_self_ms"] = ms("diffusion.generate", self_s)
        m["diffusion.sample_prediction_ms"] = ms("diffusion.sample_prediction")
        m["diffusion.denoise_steps"] = per_op("diffusion.sample_prediction")
        m["tokenizer.lfq_quantize_ms"] = ms("tokenizer.lfq_quantize")
        m["tokenizer.reconstruction_loss_ms"] = ms("tokenizer.reconstruction_loss")
        m["tokenizer.encode_ms"] = ms("tokenizer.encode")
        m["tokenizer.encode_setup_ms"] = 1e3 * sum(
            s[2] - s[1] for s in self.spans if s[4] == SETUP_OP and s[0] == "tokenizer.encode")
        m["geometry.rmsd_ms"] = ms("geometry.rmsd")
        m["geometry.tm_score_ms"] = ms("geometry.tm_score")
        if training:
            step_ms = sum(op_ms[i] for i in timed_ops) / n_timed
            m["training.bwd_ms"] = ms("autodiff.Tensor.backward")
            m["training.opt_ms"] = ms("optim.Adam.step") + ms("optim.Adam.zero_grad")
            m["training.fwd_ms"] = step_ms - m["training.bwd_ms"] - m["training.opt_ms"]
            m["training.useful_step_frac"] = per_op("autodiff.Tensor.backward")
        else:
            for key in ("training.fwd_ms", "training.bwd_ms", "training.opt_ms",
                        "training.useful_step_frac"):
                m[key] = 0.0
        m["trace.op_ms_p50"] = statistics.median(op_ms[i] for i in timed_ops)
        return m
