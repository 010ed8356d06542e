"""Guards on the package as a whole: every module and config field is
reached, and every name the benchmark's tracer wraps still exists."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
