"""Smoke tests for the command-line entry point."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bitfold
from bitfold import autodiff as ad
from bitfold import checkpoint as ckpt
from bitfold import cli, gradsuite
from bitfold import geometry as geo
from bitfold import hybrid_fm, training
from bitfold import resdiff as rd
from bitfold import tokenizer as tok
from bitfold.config import ModelConfig
from bitfold.errors import ParseError

# The paper's design path, one ModelConfig override set per row.
DEFAULT_GRID = {
    "0-baseline-index": {"head": "index"},
    "1-bit": {"head": "bit"},
    "2-geo-bit": {"head": "bit", "pair_bias": True},
    "3-geo-bit-repa": {"head": "bit", "pair_bias": True, "repa_enabled": True},
    "4-geo-bit-repa-sft": {
        "head": "bit", "pair_bias": True, "repa_enabled": True, "folding_sft": True,
    },
}

# Calls `cli.main` on each argv (a JSON list) in turn and prints the exit codes.
# One child process runs the whole chain: training frees large arrays, which
# raises glibc's mmap threshold for the rest of the process, and that speeds
# up the L=64 case of the wall-clock scaling test in test_geo_arch enough to
# move its ratio when both run in one pytest process.
CHILD = """\
import json, sys
from bitfold import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def run_cli(runs):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(bitfold.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _sets(overrides):
    return [arg for key, value in overrides.items()
            for arg in ("--set", f"{key}={str(value).lower()}")]


def test_pipeline_subcommands_run(tmp_path):
    data, samples = str(tmp_path / "data"), str(tmp_path / "samples")
    tok_ckpt, lm_ckpt = str(tmp_path / "tok.ckpt"), str(tmp_path / "lm.ckpt")
    rd_ckpt, rd_hot_ckpt = str(tmp_path / "rd.ckpt"), str(tmp_path / "rd_hot.ckpt")
    grid = {name: str(tmp_path / f"{name}.ckpt") for name in DEFAULT_GRID}
    empty = tmp_path / "empty"
    empty.mkdir()
    short = tmp_path / "short"
    short.mkdir()
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint")
    structure, seq = geo.synth_backbone(geo.SynthSpec(length=16), seed=0)
    structure.source_id = "s0"
    cli.write_sample(str(short), structure, seq[:-1])
    common = ["--data", data, "--tokenizer", tok_ckpt]
    passing = [
        ["gen-data", "--n", "4", "--min-len", "16", "--max-len", "20", "--out", data],
        ["train-tokenizer", "--data", data, "--out", tok_ckpt, "--steps", "2"],
        ["train-lm", *common, "--out", lm_ckpt, "--steps", "2"],
        ["finetune-fm", *common, "--ckpt", lm_ckpt, "--out", str(tmp_path / "fm.ckpt"),
         "--steps", "2"],
        ["train-resdiff", *common, "--ckpt", lm_ckpt, "--out", rd_ckpt, "--steps", "2"],
        ["train-resdiff", *common, "--ckpt", lm_ckpt, "--out", rd_hot_ckpt, "--steps", "2",
         "--set", "lr_peak=0.01"],
        ["sample", "--tokenizer", tok_ckpt, "--ckpt", lm_ckpt, "--out", samples,
         "--n", "2", "--length", "16", "--steps", "4"],
        ["eval", "--mode", "folding", *common, "--ckpt", lm_ckpt, "--resdiff", rd_ckpt,
         "--steps", "4"],
        ["eval", "--mode", "diversity", "--data", samples, "--tokenizer", tok_ckpt],
        # every design-space row trains on the default tokenizer
        *(["train-lm", *common, "--out", grid[name], "--steps", "2", *_sets(overrides)]
          for name, overrides in DEFAULT_GRID.items()),
        ["sample", "--tokenizer", tok_ckpt, "--ckpt", grid["2-geo-bit"],
         "--out", str(tmp_path / "fm_samples"), "--length", "16",
         "--set", "pair_bias=true", "--set", "fm_enabled=true"],
        ["finetune-fm", *common, "--ckpt", grid["0-baseline-index"],
         "--out", str(tmp_path / "fm_index.ckpt"), "--steps", "2", "--set", "head=index"],
        ["eval", "--mode", "folding", *common, "--ckpt", grid["3-geo-bit-repa"],
         "--steps", "4", "--set", "pair_bias=true"],
    ]
    failing = [
        ["train-lm", *common, "--out", str(tmp_path / "none.ckpt"), "--steps", "2",
         "--set", "k=6"],
        ["sample", "--tokenizer", tok_ckpt, "--ckpt", grid["2-geo-bit"],
         "--out", str(tmp_path / "fm_samples"), "--length", "16"],
        ["train-tokenizer", "--data", str(short), "--out", str(tmp_path / "none.ckpt"),
         "--steps", "2"],
        ["train-lm", "--data", str(empty), "--tokenizer", tok_ckpt,
         "--out", str(tmp_path / "none.ckpt"), "--steps", "2"],
        ["eval", "--mode", "folding", *common, "--steps", "4"],
        ["train-tokenizer", "--data", data, "--out", str(tmp_path / "none.ckpt"),
         "--steps", "2", "--set", "tok_heads=3"],
        ["sample", "--tokenizer", tok_ckpt, "--ckpt", str(garbage),
         "--out", str(tmp_path / "none"), "--length", "16"],
    ]
    runs = passing + failing
    codes, err = run_cli(runs)
    assert codes == [0] * len(passing) + [1] * len(failing), list(zip(codes, runs))
    assert f"{tok_ckpt}: checkpoint has k = 8, config has 6" in err
    assert f"{grid['2-geo-bit']}: checkpoint has pair_bias = True, config has False" in err
    assert f"{short / 's0.seq'}: 15 residues, but {short / 's0.bkb'} has 16" in err
    assert f"no training items: --data {empty}" in err
    assert "eval --mode folding needs --ckpt" in err
    assert "tok_heads = 3 must divide tok_width = 64" in err
    assert f"{garbage}: not an .npz archive" in err
    assert not any(name.startswith("repa.")
                   for name in ckpt.load_checkpoint(grid["3-geo-bit-repa"])[0])
    plain, hot = ckpt.load_checkpoint(rd_ckpt)[0], ckpt.load_checkpoint(rd_hot_ckpt)[0]
    assert any(not np.array_equal(plain[name], hot[name]) for name in plain)


def test_eval_errors_name_their_inputs(tmp_path, capsys):
    """Diversity needs no tokenizer and names a bad --data dir or file;
    folding without --tokenizer fails before it loads anything."""
    empty, one, mixed = (tmp_path / name for name in ("empty", "one", "mixed"))
    for directory in (empty, one, mixed):
        directory.mkdir()
    for i, length in enumerate((20, 24)):
        structure, seq = geo.synth_backbone(geo.SynthSpec(length=length), seed=i)
        structure.source_id = f"s{i}"
        for directory in (one, mixed)[i:]:
            cli.write_sample(str(directory), structure, seq)
    runs = [
        ["eval", "--mode", "diversity", "--data", str(one)],
        ["eval", "--mode", "diversity", "--data", str(empty)],
        ["eval", "--mode", "diversity", "--data", str(mixed)],
        ["eval", "--mode", "folding", "--data", str(one), "--ckpt", str(tmp_path / "absent.ckpt")],
    ]
    assert [cli.main(argv) for argv in runs] == [0, 1, 1, 1]
    out, err = capsys.readouterr()
    assert "diversity: 1.0000 over 1 samples" in out
    assert f"no samples: --data {empty} has no .bkb files" in err
    assert f"{mixed / 's1.bkb'}: 24 residues, but {mixed / 's0.bkb'} has 20" in err
    assert "eval --mode folding needs --tokenizer" in err
    assert "absent.ckpt" not in err


def _one_sample(directory, length=8):
    structure, seq = geo.synth_backbone(geo.SynthSpec(length=length), seed=0)
    structure.source_id = "s0"
    cli.write_sample(str(directory), structure, seq)
    return directory / "s0.bkb", directory / "s0.seq"


@pytest.mark.parametrize("where, token, message", [
    ("bkb", "x", r"s0\.bkb: line 3: could not convert string to float: 'x'"),
    ("seq", "A", r"s0\.seq: token 2: expected an amino-acid id in \[0, 20\), got 'A'"),
    ("seq", "25", r"s0\.seq: token 2: expected an amino-acid id in \[0, 20\), got '25'"),
    ("seq", "-1", r"s0\.seq: token 2: expected an amino-acid id in \[0, 20\), got '-1'"),
], ids=["bkb-letter", "seq-letter", "seq-too-large", "seq-negative"])
def test_bad_dataset_files_name_the_file(tmp_path, where, token, message):
    """A bad token fails at load, naming the file and where in it: the
    first coordinate of residue 2 in the .bkb, or the second id in the .seq."""
    paths = dict(zip(("bkb", "seq"), _one_sample(tmp_path)))
    lines = paths[where].read_text().splitlines()
    row = 2 if where == "bkb" else 0  # the second residue's line, or the one line
    fields = lines[row].split()
    fields[1] = token
    lines[row] = " ".join(fields)
    paths[where].write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message):
        cli.load_dataset(str(tmp_path))


def test_lr_floor_reaches_finetune_fm_and_train_resdiff(tmp_path, monkeypatch):
    """`--set lr_floor` sets the floor of both trainers' schedules. `fit` is
    replaced by a spy, so nothing trains."""
    data = tmp_path / "data"
    data.mkdir()
    _one_sample(data)
    cfg = ModelConfig()
    tok_ckpt, lm_ckpt = str(tmp_path / "tok.ckpt"), str(tmp_path / "lm.ckpt")
    cli._save_model(tok_ckpt, tok.TokenizerParams(cli._tok_cfg(cfg)), cfg)
    cli._save_model(lm_ckpt, training.build_lm(cfg), cfg)
    floors = {}

    def spy(params, items, steps, rng, step_loss, name, peak, warmup, floor=1e-5, log_every=0):
        floors[name] = floor
        return []

    monkeypatch.setattr(hybrid_fm, "fit", spy)
    monkeypatch.setattr(rd, "fit", spy)
    common = ["--data", str(data), "--tokenizer", tok_ckpt, "--ckpt", lm_ckpt, "--steps", "1",
              "--set", "lr_floor=0.003"]
    assert cli.main(["finetune-fm", *common, "--out", str(tmp_path / "fm.ckpt")]) == 0
    assert cli.main(["train-resdiff", *common, "--out", str(tmp_path / "rd.ckpt")]) == 0
    assert floors == {"fm-finetune": 0.003, "resdiff": 0.003}


def test_train_lm_flags_override_the_config_only_when_given(tmp_path, monkeypatch, capsys):
    """`--set steps=3` trains 3 steps and records step 3 in the checkpoint;
    `--steps 2` and `--seed 5` win over the config. `train_lm` is replaced
    by a spy, so nothing trains."""
    data = tmp_path / "data"
    data.mkdir()
    _one_sample(data)
    cfg = ModelConfig()
    tok_ckpt = str(tmp_path / "tok.ckpt")
    cli._save_model(tok_ckpt, tok.TokenizerParams(cli._tok_cfg(cfg)), cfg)
    seen = []

    def spy(lm, tokenizer_params, dataset, cfg, log_every=0):
        seen.append((cfg.steps, cfg.seed))
        return [1.0] * cfg.steps

    monkeypatch.setattr(training, "train_lm", spy)
    common = ["train-lm", "--data", str(data), "--tokenizer", tok_ckpt]
    out = [str(tmp_path / f"lm{i}.ckpt") for i in range(3)]
    assert cli.main([*common, "--out", out[0], "--set", "steps=3", "--set", "seed=7"]) == 0
    assert cli.main([*common, "--out", out[1], "--set", "steps=3", "--steps", "2",
                     "--set", "seed=7", "--seed", "5"]) == 0
    assert cli.main([*common, "--out", out[2]]) == 0
    assert seen == [(3, 7), (2, 5), (cfg.steps, cfg.seed)]
    assert [ckpt.load_checkpoint(path)[2] for path in out] == [3, 2, cfg.steps]
    printed = capsys.readouterr().out
    assert "over 3 steps" in printed and "over 2 steps" in printed


@pytest.mark.parametrize("errors, code", [((2e-9, 3e-8), 0), ((2e-9, 3e-2), 1)],
                         ids=["pass", "fail"])
def test_grad_check_prints_each_case_and_exits_on_the_verdict(monkeypatch, capsys, errors, code):
    """`grad-check` prints a line per case and the worst one, and exits 1
    when a case fails. The suite is stubbed here; test_gradsuite runs it."""
    reports = [(f"case@{i}", ad.GradCheckReport(err, "x", err < 1e-4))
               for i, err in enumerate(errors)]
    monkeypatch.setattr(gradsuite, "run_grad_suite", lambda: reports)
    assert cli.main(["grad-check"]) == code
    verdict = "FAIL" if code else "pass"
    assert capsys.readouterr().out.splitlines() == [
        "case@0: max rel err 2.00e-09 (pass)",
        f"case@1: max rel err {errors[1]:.2e} ({verdict})",
        f"worst: case@1 {errors[1]:.2e}",
    ]
