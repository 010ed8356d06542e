"""bitfold benchmark: four closed-loop workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload train-plain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0   # every workload
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1   # per layer + overhead

One workload prints a report, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with `--trace 0`, its `per_layer` metrics with `--trace 1`.
The exit code is 0 only when every op succeeded and every output check
passed. The traced run also writes its spans to `.bench_out/`.
"""

import time

PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"  # 2 OpenBLAS threads gave no gain on full-geo L=48 on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
COUNT_OPS = 10  # traced ops whose counts are reported; they repeat exactly per seed
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
WORKLOAD_NAMES = ("train-plain", "train-geo", "fold-sample", "train-tokenizer")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    from bitfold import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "kernels_backend": kernels.backend(),
    }


def tail(values):
    """Highest percentile with at least ten ops beyond it: (percentile, value)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            break
    ordered = sorted(values)
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(args, spec):
    from tracing import Patcher, Tracer
    from workloads import OpClock, Record, Stop, install_probes

    import_s = time.perf_counter() - PROCESS_T0
    tracer = Tracer(COUNT_OPS) if args.trace else None
    record = Record()
    patcher = Patcher()
    repeats = 1 if args.trace else SETUP_REPEATS
    min_ops = COUNT_OPS + 2 if args.trace else spec.loss_end
    setups = []
    try:
        if tracer is not None:
            tracer.install(patcher)
        if spec.probe:
            install_probes(patcher, record, spec.probe)
        for r in range(repeats):
            final = r == repeats - 1
            clock = OpClock(spec.warmup, args.seconds, min_ops, final, tracer)
            record.clock = clock
            t0 = time.perf_counter()
            call = spec.build(args.seed, clock, record)
            try:
                call()
            except Stop:
                pass
            except Exception as exc:  # a training loop cannot go on after an error
                record.fail(f"{type(exc).__name__}: {exc}")
                traceback.print_exc()
            if clock.setup_end is not None:
                setups.append(clock.setup_end - t0)
            if record.failures:
                break
    finally:
        patcher.restore()
        if tracer is not None:
            tracer.stop()

    op_ms = clock.durations_ms()
    failed = len(record.failures)
    # an op that failed before it could complete has no duration
    attempted = max(len(op_ms) + sum(1 for i in record.failures if not 0 <= i < len(op_ms)), 1)
    problems = [f"op {i}: {what}" for i, what in sorted(record.failures.items())]
    if failed == 0 and len(op_ms) < min_ops:
        problems.append(f"only {len(op_ms)} ops completed, need {min_ops}")
    losses = [record.loss[i] for i in range(spec.loss_end - spec.loss_window, spec.loss_end)
              if i in record.loss]
    loss_tail = statistics.fmean(losses) if losses else float("nan")
    if not args.trace and not math.isfinite(loss_tail):
        problems.append(f"loss_tail is {loss_tail}")

    env = environment()
    print(f"workload {spec.name} seed {args.seed} trace {args.trace}: "
          f"{len(op_ms)} ops timed, {failed} failed")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for what in problems:
        print(f"FAILED {what}", file=sys.stderr)

    if args.trace:
        metrics = tracer.layer_metrics(op_ms, spec.training) if len(op_ms) >= min_ops else {}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{spec.name}.json",
                     {"workload": spec.name, "seed": args.seed, "env": env, "op_ms": op_ms})
    else:
        p, tail_ms = tail(op_ms) if op_ms else (50, float("nan"))
        residues = sum(record.residues.get(i, 0) for i in range(len(op_ms)))
        metrics = {
            "setup_s": import_s + statistics.median(setups) if setups else float("nan"),
            "op_ms_p50": statistics.median(op_ms) if op_ms else float("nan"),
            "op_ms_tail": tail_ms,
            "residues_per_s": residues / (sum(op_ms) / 1e3) if op_ms else 0.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_tail": loss_tail,
        }
        print(f"op_ms_tail is p{p:g} over {len(op_ms)} ops; loss_tail averages timed ops "
              f"{spec.loss_end - spec.loss_window}..{spec.loss_end - 1} "
              f"({'CA-RMSD in A' if not spec.training else 'training loss'}); "
              f"setup_s = imports {import_s:.3f} s + median of {len(setups)} set-ups "
              f"{[round(s, 3) for s in setups]}")
    return not problems, attempted, failed, metrics


def emit(spec_metrics, values, correct, attempted, failed):
    out = {}
    for m in spec_metrics:
        # a failed run may stop before a metric can be computed
        value = float(values[m["name"]] if correct else values.get(m["name"], math.nan))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<42} {value:>14.6g} {m['unit']}")
    print(f"correct: {correct} (attempted {attempted}, failed {failed})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def run_all(args):
    """Every workload in its own process; with --trace 1 also untraced, for the overhead."""
    ok = True
    summary = {}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in sorted({0, args.trace}):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(f"FAILED: {name} --trace {trace} exited with {proc.returncode}")
                ok = False
                break
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        else:
            if args.trace:
                traced = results[1]["metrics"]["trace.op_ms_p50"]["value"]
                plain = results[0]["metrics"]["op_ms_p50"]["value"]
                print(f"tracing overhead on {name}: traced op_ms_p50 {traced:.3f} ms vs "
                      f"untraced {plain:.3f} ms = {traced / plain:.2f}x")
            summary[name] = results[args.trace]
    print(json.dumps(summary))
    return 0 if ok else 1


def main():
    args = parse_args()
    src = ROOT / "src" / "bitfold"
    if not src.is_dir():
        print(f"error: no bitfold sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    correct, attempted, failed, values = run_workload(args, WORKLOADS[args.workload])
    emit(bench["per_layer" if args.trace else "end_to_end"], values, correct, attempted, failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
