"""Benchmark entry point.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters for
the workload (worker.py), so import and warm-up are paid the way a user
pays them.  With --trace 0 it prints the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compare", "artifacts", "queries", "cli")
SETUP_SAMPLES = 5  # fresh interpreters per run that only set up; the median of their times is reported
DEADLINE_S = 170.0


def child_env() -> dict:
    """Environment for fresh interpreters: the checkout's src first, BLAS on one thread."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class RunError(Exception):
    pass


def start_worker(args, setup_only: bool, deadline: float):
    """Start worker.py; return (process, seconds until it reported ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RunError(f"worker did not get ready (exit {proc.returncode}, said {line!r})")
    return proc, ready


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the deadline") from None
    return out


def run(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not os.path.isfile(os.path.join(ROOT, "src", "pelljeru", "__init__.py")):
        raise RunError(f"no pelljeru package under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S

    setup = []
    if not args.trace:
        calibrate.kernel_seconds()  # warm the kernel
        for _ in range(SETUP_SAMPLES):
            before = calibrate.kernel_seconds()
            proc, ready = start_worker(args, True, deadline)
            finish(proc, deadline)
            after = calibrate.kernel_seconds()
            if proc.returncode != 0:
                raise RunError(f"set-up worker exited with {proc.returncode}")
            setup.append(ready * calibrate.scale(before, after))
    proc, _ = start_worker(args, False, deadline)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RunError(f"worker did not measure {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
