"""Guards on the package as a whole: every module and config field is
reached, only the tokenizer module runs the frozen tokenizer, only the
config and the model compare the structure head's values, only the
autodiff core and the optimizer touch gradients, sigmoid gates are fused
nodes, every name the benchmark's tracer wraps still exists, and the
benchmark's smallest runs pass, one of them traced."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bitfold
from bitfold.config import ModelConfig

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


def test_sigmoid_gates_are_fused():
    """A sigmoid or swish gate times a value is one `ad.gate` node, which
    keeps no sigmoid output for backward. The callers left: the LFQ
    entropy's bit probabilities, and attention's output gate, where the
    fused node's parent order would change the bits of the gradients."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if "ad.sigmoid(" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                callers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert callers == {"tokenizer.lfq_quantize", "nn.MultiHeadAttention"}


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
    pytest.param("train-tokenizer", 0, id="train-tokenizer"),
    pytest.param("train-tokenizer", 1, id="train-tokenizer-traced"),
])
def test_benchmark_smallest_run_passes(workload, trace):
    """The benchmark's shortest run of `workload` ends correct, with no
    failed op. The two untraced runs make every call the benchmark makes
    into the tokenizer, the sampler and the metrics. The traced run checks
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
