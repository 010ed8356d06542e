"""Check that the traced run's exact counts repeat across two runs at one seed.

    python3 bench/check_counts.py [--seed 3] [--seconds 5]

Runs every workload traced twice and compares each count metric. Later
changes may cite these as counts only because they repeat exactly. Exits 1
on any mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("train-plain", "train-geo", "fold-sample", "train-tokenizer")
EXACT = ("autodiff.ops_per_op", "kernels.cmm.calls", "kernels.cmm.gflop", "kernels.cmm.mbytes",
         "diffusion.denoise_steps", "training.useful_step_frac")


def counts(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k in EXACT or k.endswith(".calls")}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, default=5)
    args = p.parse_args()
    ok = True
    for workload in WORKLOADS:
        first, second = (counts(workload, args.seed, args.seconds) for _ in range(2))
        differ = sorted(k for k in first if first[k] != second[k])
        ok = ok and not differ
        print(f"{workload}: {len(first)} counts, "
              + ("all repeat exactly" if not differ else f"DIFFER: {differ}"))
        for name in EXACT:
            print(f"  {name} = {first[name]!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
