"""One run of one workload, in a fresh interpreter started by run.py.

The worker imports pelljeru, runs one warm-up op and prints READY; run.py
times that interval as set-up.  It then builds the reference values, checks
the warm-up output and runs the workload as a closed loop with one client,
each op starting when the previous one returned, until the ops' timed wall
time reaches --seconds and the command cycle is whole.  Every output is
checked outside the timed interval.  The last stdout line is a JSON object
with the measured values; run.py attaches the units.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pelljeru as pj  # noqa: E402

if not os.path.abspath(pj.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"error: imported pelljeru from {pj.__file__}, not from this checkout")

import calibrate  # noqa: E402
import reference as R  # noqa: E402
import spans as T  # noqa: E402
import workloads as W  # noqa: E402
from run import child_env  # noqa: E402

MAX_TRACED_SPANS = 50_000
LAYER_OPS = {"compare": 3, "artifacts": 2, "queries": 5}  # traced ops per bundle in the layer pass
CLI_CYCLES = 2  # in-process passes over the CLI command cycle
PROBES = 3  # fresh interpreters per import probe; the median is reported


class Tally:
    """Ops attempted and failed; `correct` turns false when an output fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, wl, tracer):
        """Run one op; return (seconds, output), output None if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with tracer.span("op"):
                out = wl.op(tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return perf_counter() - t0, None
        return perf_counter() - t0, out

    def check(self, what: str, fn, *args) -> bool:
        try:
            fn(*args)
        except (W.CheckFailed, ValueError, IndexError, KeyError) as exc:  # unparsable output fails too
            print(f"check failed: {what}: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return False
        return True


def closed_loop(wl, seconds: float, tracer, tally: Tally, max_spans: int | None = None):
    """Run whole rounds of ops until their timed wall time reaches `seconds`.

    Returns the wall latencies of the ops that passed their check, and the
    same latencies scaled to reference machine speed (calibrate.py).
    """
    wall, scaled = [], []
    busy = 0.0
    ops = 0
    before = calibrate.kernel_seconds()
    while busy < seconds or ops % wl.round_size:
        dt, out = tally.attempt(wl, tracer)
        after = calibrate.kernel_seconds()
        ops += 1
        busy += dt
        if out is not None and tally.check(wl.name, wl.check, out):
            wall.append(dt)
            scaled.append(dt * calibrate.scale(before, after))
        del out  # an output kept alive through the next op would add to its memory peak
        before = after
        if max_spans and len(tracer.spans) > max_spans and ops % wl.round_size == 0:
            break
    if not wall:
        raise SystemExit(f"error: no {wl.name} op completed")
    return wall, scaled


def peak_rss_mib(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024  # kilobytes on Linux


def end_to_end(wl, seconds: float, tally: Tally) -> dict:
    wall, scaled = closed_loop(wl, seconds, W.NULL_TRACER, tally)
    print(f"{wl.name}: {len(wall)} ops, wall median {statistics.median(wall) * 1e3:.2f} ms, "
          f"{len(wall) / sum(wall):.3f} ops/s by the wall clock; "
          f"machine speed {sum(scaled) / sum(wall):.3f} of reference", file=sys.stderr)
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": peak_rss_mib(children=wl.name == "cli"),
    }


# Per-layer metrics.  `.ms` is time per op of the layer's home workload,
# `.us` time per call, `.calls` calls per op; times are scaled like the
# end-to-end ones, by kernel timings around each traced bundle and probe.

def _per_op(summary: dict, name: str, ops: int, key: str = "total_s") -> float:
    return summary.get(name, {}).get(key, 0.0) / ops


def _matching(summary: dict, prefix: str) -> list[dict]:
    return [s for name, s in summary.items() if name == prefix or name.startswith(prefix + ".")]


def workload_trace(wl, seconds: float, tally: Tally, dump_path: str) -> dict:
    """The workload's own ops, untraced then traced, for the overhead and the layer split."""
    base = closed_loop(wl, seconds / 3, W.NULL_TRACER, tally)[1]
    tracer = T.Tracer()
    restore = tracer.install()
    try:
        traced = closed_loop(wl, seconds / 3, tracer, tally, MAX_TRACED_SPANS)[1]
    finally:
        restore()
    tracer.dump(dump_path, f"{wl.name}.ops")
    summary = tracer.summary()
    ops = summary["op"]["spans"]
    out = {"trace.overhead_pct": (statistics.median(traced) / statistics.median(base) - 1) * 100}
    for layer in ("exact.rasterize_exact", "grid2d.build2d", "grid3d.build3d", "export.write2d",
                  "grid2d.contains2d"):
        out[f"op.{layer}.calls"] = sum(s.get("calls", s["spans"]) for s in _matching(summary, layer)) / ops
    op_s = summary["op"]["total_s"]
    print(f"layer split on {wl.name}: {ops} traced ops, {op_s / ops * 1e3:.2f} ms per op", file=sys.stderr)
    print(f"  {'span':40s} {'calls/op':>9s} {'ms/op':>9s} {'self ms/op':>10s} {'self %':>7s}", file=sys.stderr)
    for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        calls = s.get("calls", s["spans"])
        print(f"  {name:40s} {calls / ops:9.2f} {s['total_s'] / ops * 1e3:9.3f} "
              f"{s['self_s'] / ops * 1e3:10.3f} {100 * s['self_s'] / op_s:7.1f}", file=sys.stderr)
    return out


def traced_bundle(wl, ops: int, tally: Tally, dump_path: str) -> dict:
    tracer = T.Tracer()
    before = calibrate.kernel_seconds()
    restore = tracer.install()
    try:
        for _ in range(ops):
            _, out = tally.attempt(wl, tracer)
            if out is not None:
                tally.check(wl.name, wl.check, out)
    finally:
        restore()
    factor = calibrate.scale(before, calibrate.kernel_seconds())
    tracer.dump(dump_path, f"layers.{wl.name}")
    return tracer.summary(factor)


def traced_cli_main(cli, tally: Tally, dump_path: str) -> dict:
    """`pelljeru.cli.main` in-process over the command cycle, stdout captured."""
    import pelljeru.cli

    tracer = T.Tracer()
    before = calibrate.kernel_seconds()
    restore = tracer.install()
    try:
        for _ in range(CLI_CYCLES):
            for cmd in W.CLI_COMMANDS:
                tally.attempted += 1
                buf = io.BytesIO()
                saved, sys.stdout = sys.stdout, io.TextIOWrapper(buf, encoding="ascii", write_through=True)
                try:
                    code = pelljeru.cli.main(list(cmd))
                finally:
                    sys.stdout.detach()  # keep buf open for the check
                    sys.stdout = saved
                tally.check(f"cli.main {' '.join(cmd)}", cli.check, (cmd, code, buf.getvalue(), b""))
    finally:
        restore()
    factor = calibrate.scale(before, calibrate.kernel_seconds())
    tracer.dump(dump_path, "layers.cli")
    return tracer.summary(factor)


def traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def probe(argv: list[str]) -> tuple[float, str, float]:
    """Run a fresh interpreter; return its scaled wall time, its stderr and the scale factor."""
    before = calibrate.kernel_seconds()
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    wall = perf_counter() - t0
    factor = calibrate.scale(before, calibrate.kernel_seconds())
    return wall * factor, proc.stderr, factor


def layer_pass(seed: int, tally: Tally, dump_path: str) -> dict:
    """Every per-layer metric, each measured on its home workload's bundle."""
    sums = {}
    for name, ops in LAYER_OPS.items():
        wl = W.make(name, seed)
        wl.prepare()
        sums[name] = traced_bundle(wl, ops, tally, dump_path)
    cmp_, art, qry = sums["compare"], sums["artifacts"], sums["queries"]
    ops_c, ops_a, ops_q = LAYER_OPS["compare"], LAYER_OPS["artifacts"], LAYER_OPS["queries"]
    side = R.P[W.Compare.LEVEL]
    out = {
        "exact.rasterize_exact.ms": _per_op(cmp_, "exact.rasterize_exact", ops_c) * 1e3,
        "exact.rasterize_exact.cells_per_s": cmp_["exact.rasterize_exact"]["spans"] * side**2
        / cmp_["exact.rasterize_exact"]["total_s"],
        "exact.discrepancy.self_ms": _per_op(cmp_, "exact.discrepancy", ops_c, "self_s") * 1e3,
        "grid2d.difference_count.ms": _per_op(cmp_, "grid2d.difference_count", ops_c) * 1e3,
        "grid2d.build2d.ms": _per_op(art, "grid2d.build2d", ops_a) * 1e3,
        "grid3d.build3d.ms": _per_op(art, "grid3d.build3d", ops_a) * 1e3,
        "export.read_pbm_ascii.ms": _per_op(art, "export.read_pbm_ascii", ops_a) * 1e3,
        "export.read_csv.ms": _per_op(art, "export.read_csv", ops_a) * 1e3,
        "metrics.report.ms": _per_op(qry, "metrics.report", ops_q) * 1e3,
        "pell.ratio_diagnostic.us": qry["pell.ratio_diagnostic"]["total_s"] / qry["pell.ratio_diagnostic"]["calls"] * 1e6,
    }
    # pbm_binary counts both of its writes in a round, level 8 and level 12
    for writer, fmt in [("write2d", f) for f in W.FORMATS_2D] + [("write3d", "xyz_text"), ("write3d", "obj_mesh")]:
        s = art[f"export.{writer}.{fmt}"]
        out[f"export.{writer}.{fmt}.ms"] = s["total_s"] / ops_a * 1e3
        out[f"export.{writer}.{fmt}.bytes"] = s["bytes"] / ops_a
    for layer in ("grid2d.contains2d", "grid3d.contains3d"):
        for kind in ("full_depth", "early_exit"):
            s = qry[f"{layer}.{kind}"]
            out[f"{layer}.{kind}_us"] = s["total_s"] / s["calls"] * 1e6
            out[f"{layer}.{kind}.calls"] = s["calls"] / ops_q
    exact = _matching(qry, "exact.exact_contains")
    calls = sum(s["calls"] for s in exact)
    out["exact.exact_contains.us"] = sum(s["total_s"] for s in exact) / calls * 1e6
    out["exact.exact_contains.calls"] = calls / ops_q

    cli = W.Cli(seed)
    cli.prepare()
    main = traced_cli_main(cli, tally, dump_path)["cli.main"]
    out["cli.main.ms"] = main["total_s"] / main["spans"] * 1e3

    out["exact.rasterize_exact.peak_mb"] = traced_peak_mib(
        pj.rasterize_exact, pj.ExactModel(depth=W.Compare.LEVEL - 1), side)
    out["grid2d.build2d.peak_mb"] = traced_peak_mib(pj.build2d, W.Artifacts.LEVEL_BIG)
    out["grid3d.build3d.peak_mb"] = traced_peak_mib(pj.build3d, W.Artifacts.LEVEL_3D)

    imports = []
    for _ in range(PROBES):
        _, stderr, factor = probe(["-X", "importtime", "-c", "import pelljeru"])
        imports.append({key: ms * factor for key, ms in T.parse_importtime(stderr).items()})
    for key in ("pelljeru", "scipy", "mpmath", "numpy"):
        out[f"import.{key}_ms"] = statistics.median(i[key] for i in imports)
    out["cli.numpy_floor_ms"] = statistics.median(probe(["-c", "import numpy"])[0] for _ in range(PROBES)) * 1e3
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = W.make(args.workload, args.seed)
    tally = Tally()
    _, warm = tally.attempt(wl, W.NULL_TRACER)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    calibrate.kernel_seconds()  # warm the kernel, so its first timed pass is not its first pass
    if wl.name == "cli":
        wl.next = 0  # timed rounds start at the head of the command cycle
    wl.prepare()
    if warm is not None:
        tally.check(wl.name, wl.check, warm)
    del warm

    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        dump_path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.jsonl")
        open(dump_path, "w").close()
        metrics = workload_trace(wl, args.seconds, tally, dump_path)
        metrics.update(layer_pass(args.seed, tally, dump_path))
        print(f"spans written to {os.path.relpath(dump_path, ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(wl, args.seconds, tally)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
