"""Guards on the package as a whole: every module and config field is
reached, only the tokenizer module runs the frozen tokenizer, only the
config and the model compare the structure head's values, only the
autodiff core and the optimizer touch gradients, only the checkpoint
module reads or writes numpy files, sigmoid gates are fused nodes, no
backward closure holds a Tensor, every name the benchmark's tracer wraps
still exists, and the benchmark's smallest runs pass, one of them traced."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bitfold
from bitfold import autodiff as ad
from bitfold import diffusion as dfn
from bitfold import geometry as geo
from bitfold import tokenizer as tok
from bitfold.config import ModelConfig
from bitfold.geo_arch import ProteinLM

SRC = Path(bitfold.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Imports the entry points in a fresh interpreter and prints the package
# modules that are still not loaded.
UNREACHED = """\
import json, pkgutil, sys
import bitfold, bitfold.cli, bitfold.gradsuite
print(json.dumps([m.name for m in pkgutil.iter_modules(bitfold.__path__)
                  if f"bitfold.{m.name}" not in sys.modules]))
"""


def test_every_module_is_reached_from_the_entry_points():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", UNREACHED], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_config_field_is_read_outside_config():
    text = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py"))
                     if path.name != "config.py")
    fields = [f.name for f in dataclasses.fields(ModelConfig)]
    unread = [name for name in fields if not re.search(rf"\bcfg\.{name}\b", text)]
    assert unread == []


def test_only_the_tokenizer_module_runs_the_frozen_tokenizer():
    """Encoder and decoder calls stay in `tokenizer`, and the rule that turns
    z into bits is written once there, besides the autodiff primitive."""
    callers, signs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name != "tokenizer.py" and re.search(r"\.(en|de)coder\(", text):
            callers.add(path.name)
        funcs = [node for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if ">= 0.0, 1.0, -1.0" in line:
                inner = max((f for f in funcs if f.lineno <= lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                signs.add(f"{path.stem}.{inner.name if inner else '<module>'}")
    assert callers == set()
    assert signs == {"tokenizer.tokenize", "autodiff.sign_ste"}


def test_only_the_config_and_the_model_compare_head_values():
    """The head's two values, "bit" and "index", are compared where the
    config checks them and where `ProteinLM` builds its structure input
    and output layout. Every other module reads the (L, G, C) layout from
    the shape of the logits."""
    comparing = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(leaf, ast.Constant) and leaf.value in ("bit", "index")
                    for leaf in ast.walk(node)):
                comparing.add(path.name)
    assert comparing == {"config.py", "geo_arch.py"}


def test_only_autodiff_and_optim_touch_gradients():
    """An op output's `.grad` is dropped once backward has passed it, so
    gradients are read and written only by the autodiff core and the
    optimizer, which see them while they exist."""
    touching = {path.name for path in SRC.glob("*.py")
                if re.search(r"\.grad\b", path.read_text())}
    assert touching == {"autodiff.py", "optim.py"}


def test_only_checkpoint_reads_or_writes_numpy_files():
    """The on-disk format of a checkpoint is written in one module."""
    callers = {path.name for path in SRC.glob("*.py")
               if re.search(r"\bnp\.(load|save|savez\w*)\(", path.read_text())}
    assert callers == {"checkpoint.py"}


def test_sigmoid_gates_are_fused():
    """A sigmoid or swish gate times a value is one `ad.gate` node, which
    keeps no sigmoid output for backward. The callers left: the LFQ
    entropy's bit probabilities, and attention's output gate. There
    fusing would save no memory, since `sigmoid`'s backward reads only
    its output and the gate's input is freed, and the fused node's
    parent order would change the bits of the gradients."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if "ad.sigmoid(" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                callers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert callers == {"tokenizer.lfq_quantize", "nn.MultiHeadAttention"}


def _captured_values(fn, seen):
    """Every value a function's closure reaches, through nested functions
    (as attention's `logits`) and tuples or lists."""
    found = []
    for cell in fn.__closure__ or ():
        try:
            found.append(cell.cell_contents)
        except ValueError:  # a name the function never bound, as `bin_sums` without `rel`
            continue
    values = []
    while found:
        value = found.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        values.append(value)
        if isinstance(value, (tuple, list)):
            found += value
        elif callable(value) and getattr(value, "__closure__", None):
            values += _captured_values(value, seen)
    return values


def _full_geo_loss():
    cfg = ModelConfig(d_model=16, d_pair=8, heads=2, n_blocks=2, T=8, pair_bias=True,
                      struct_transition=True, triangle_update=True, triangle_attention=True,
                      seqstruct_attention=True).validate()
    lm = ProteinLM(cfg)
    rng = np.random.default_rng(0)
    x0 = dfn.TokenState.observed(rng.integers(20, size=10), rng.choice([-1.0, 1.0], size=(10, cfg.k)))
    xt = dfn.forward_mask(x0, lm.schedule, cfg.T // 2, rng)
    return dfn.loss_bit(lm.forward(xt), x0, xt, cfg.T // 2, lm.schedule)


def _tokenizer_loss():
    params = tok.TokenizerParams(tok.TokenizerConfig(width=16, blocks=1, heads=2), seed=0)
    structure, _ = geo.synth_backbone(geo.SynthSpec(length=12), seed=0)
    return tok.tokenizer_loss(params, structure, tok.invariant_features(structure))


@pytest.mark.parametrize("make_loss", [_full_geo_loss, _tokenizer_loss], ids=["full-geo", "tokenizer"])
def test_no_backward_closure_captures_a_tensor(make_loss):
    """A backward closure holds the nodes it sends gradients to and the
    arrays its backward reads, never a Tensor, so an op output that no
    backward reads is freed as soon as its caller drops it."""
    nodes, stack = set(), [make_loss()._node]
    while stack:
        node = stack.pop()
        if node in nodes:
            continue
        nodes.add(node)
        stack += node.parents
        if node.backward is not None:
            captured = _captured_values(node.backward, set())
            assert not any(isinstance(v, ad.Tensor) for v in captured), node.backward.__qualname__
    assert len(nodes) > 100


def test_every_traced_name_exists(monkeypatch):
    """The benchmark's traced run wraps these names; installing its tracer
    raises AttributeError once one of them is renamed or deleted."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Patcher, Tracer

    patcher = Patcher()
    try:
        Tracer(10).install(patcher)
    finally:
        patcher.restore()


@pytest.mark.parametrize("workload,trace", [
    pytest.param("fold-sample", 0, id="fold-sample"),
    pytest.param("train-geo", 0, id="train-geo"),
    pytest.param("train-tokenizer", 0, id="train-tokenizer"),
    pytest.param("train-tokenizer", 1, id="train-tokenizer-traced"),
])
def test_benchmark_smallest_run_passes(workload, trace):
    """The benchmark's shortest run of `workload` ends correct, with no
    failed op. The untraced runs make every call the benchmark makes into
    the tokenizer, the sampler and the metrics, and train-geo's runs the
    pair track's triangle kernels forward and backward. The traced run checks
    that the tracer's timed backward closures still run under the walk
    that releases them, and that both backward clocks advance."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    if trace:
        metrics = last["metrics"]
        assert metrics["autodiff.backward_ms"]["value"] > 0
        assert metrics["training.bwd_ms"]["value"] > 0
