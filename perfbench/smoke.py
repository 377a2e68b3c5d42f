"""The benchmark's own smoke check.

    python3 perfbench/smoke.py

Runs a few ops of every workload with every check on, then feeds each
workload's checker outputs corrupted on purpose and requires that it
rejects every one.  It also checks that the traced run's wrappers see the
calls pelljeru makes through its own module namespaces.  It prints the
obj_mesh digests of the code under test, which regenerate
`workloads.OBJ_SHA256`.  Exits 0 only when everything holds.
"""

from __future__ import annotations

import hashlib
import io
import sys

import numpy as np

import worker  # puts the checkout's src on sys.path first
import pelljeru as pj
import spans as T
import workloads as W


def flip_grid_bit(grid):
    rows = grid.packed_rows().copy()
    rows[len(rows) // 2, 0] ^= 0x40
    return pj.Grid2D(grid.side, rows)


def change_byte(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def with_file(out, key, data):
    files = dict(out["files"])
    files[key] = (files[key][0], data)
    return dict(out, files=files)


# (workload, what is corrupted, function from one op's output to a corrupted copy)
CORRUPTIONS = (
    ("compare", "discrepancy moved by one ulp", lambda out: float(np.nextafter(out, 1.0))),
    ("artifacts", "one flipped bit in the grid read back from PBM",
     lambda out: dict(out, back_pbm=flip_grid_bit(out["back_pbm"]))),
    ("artifacts", "one changed byte in the svg file",
     lambda out: with_file(out, "svg", change_byte(out["files"]["svg"][1], 1000))),
    ("artifacts", "one changed byte in the level-12 pbm_binary file",
     lambda out: with_file(out, "pbm_binary_big", change_byte(out["files"]["pbm_binary_big"][1], 5000))),
    ("queries", "one flipped early-exit answer of contains3d",
     lambda out: {**out, ("contains3d", "early_exit"): [True] + out["contains3d", "early_exit"][1:]}),
    ("cli", "one changed byte in the stdout of gen2d --n 6",
     lambda out: (out[0], out[1], change_byte(out[2], 20), out[3])),
)


def main() -> int:
    problems = []
    tally = worker.Tally()
    outputs = {}
    for name in ("compare", "artifacts", "queries", "cli"):
        wl = W.make(name, seed=1)
        wl.prepare()
        for _ in range(max(2, wl.round_size)):
            _, out = tally.attempt(wl, W.NULL_TRACER)
            if out is not None and tally.check(name, wl.check, out):
                if name != "cli" or out[0] == W.CLI_COMMANDS[1]:
                    outputs[name] = (wl, out)
        print(f"{name}: ops checked", file=sys.stderr)
    if tally.failed or not tally.correct:
        problems.append(f"{tally.failed} of {tally.attempted} ops failed")

    for name, what, corrupt in CORRUPTIONS:
        wl, out = outputs[name]
        try:
            wl.check(corrupt(out))
        except W.CheckFailed as exc:
            print(f"{name}: caught {what}: {exc}", file=sys.stderr)
        else:
            problems.append(f"{name}: the check missed {what}")

    tracer = T.Tracer()
    restore = tracer.install()
    try:
        pj.discrepancy(4)
        pj.report(4, include_discrepancy=True)
    finally:
        restore()
    seen = [span[2] for span in tracer.spans]
    for name in ("grid2d.build2d", "exact.rasterize_exact", "grid2d.difference_count", "exact.discrepancy"):
        if seen.count(name) != 2:
            problems.append(f"traced {seen.count(name)} calls of {name}, want 2")
    if hasattr(pj.build2d, "__wrapped__") or hasattr(pj.exact.build2d, "__wrapped__"):
        problems.append("wrappers were not removed after the traced calls")

    for n in sorted(W.OBJ_SHA256):
        sink = io.BytesIO()
        pj.export.write3d(pj.build3d(n), "obj_mesh", sink)
        digest = hashlib.sha256(sink.getvalue()).hexdigest()
        print(f"obj_mesh digest at level {n}: {digest}")
        if digest != W.OBJ_SHA256[n]:
            problems.append(f"obj_mesh digest at level {n} changed")

    for p in problems:
        print(f"FAIL: {p}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
