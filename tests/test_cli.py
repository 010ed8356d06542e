"""Smoke tests for the command-line entry point."""

import json
import os
import subprocess
import sys

import bitfold

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


def test_pipeline_subcommands_run(tmp_path):
    data, samples = str(tmp_path / "data"), str(tmp_path / "samples")
    tok_ckpt, lm_ckpt = str(tmp_path / "tok.ckpt"), str(tmp_path / "lm.ckpt")
    rd_ckpt = str(tmp_path / "rd.ckpt")
    empty = tmp_path / "empty"
    empty.mkdir()
    common = ["--data", data, "--tokenizer", tok_ckpt]
    runs = [
        ["gen-data", "--n", "4", "--min-len", "16", "--max-len", "20", "--out", data],
        ["train-tokenizer", "--data", data, "--out", tok_ckpt, "--steps", "2"],
        ["train-lm", *common, "--out", lm_ckpt, "--steps", "2"],
        ["finetune-fm", *common, "--ckpt", lm_ckpt, "--out", str(tmp_path / "fm.ckpt"),
         "--steps", "2"],
        ["train-resdiff", *common, "--ckpt", lm_ckpt, "--out", rd_ckpt, "--steps", "2"],
        ["sample", "--tokenizer", tok_ckpt, "--ckpt", lm_ckpt, "--out", samples,
         "--n", "2", "--length", "16", "--steps", "4"],
        ["eval", "--mode", "folding", *common, "--ckpt", lm_ckpt, "--resdiff", rd_ckpt,
         "--steps", "4"],
        ["eval", "--mode", "diversity", "--data", samples, "--tokenizer", tok_ckpt],
        ["train-lm", "--data", str(empty), "--tokenizer", tok_ckpt,
         "--out", str(tmp_path / "none.ckpt"), "--steps", "2"],
    ]
    codes, err = run_cli(runs)
    assert codes == [0] * (len(runs) - 1) + [1], list(zip(codes, runs))
    assert "no training items" in err
