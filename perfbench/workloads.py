"""The four workloads: their inputs, the op each one times, and its checks.

Every op of a workload is the same fixed bundle of calls, so op latency has
one mode.  `op(tracer)` is the timed part; `prepare()` builds the reference
values and `check(output)` compares one op's output against them, both
outside the timed interval.  Ops look every function up on its module at
call time, so the wrappers a traced run installs are the ones called.
"""

from __future__ import annotations

import hashlib
import io
import random
import subprocess
import sys
from contextlib import nullcontext

import numpy as np

import pelljeru as pj
import reference as R
from run import ROOT, child_env

# sha256 of write3d(build3d(n), "obj_mesh").  `python3 perfbench/smoke.py`
# prints the digests of the code under test, to regenerate these.
OBJ_SHA256 = {
    4: "d0a3693e8c31cf8349227fd1516002e5dfe1a2bd6ea08af01fdf04a60de355c4",
    5: "209b1d1acdc320cd2e18ba45f57b5e6ba6a1290e46da842ddf35a1da4c4c9177",
}

FORMATS_2D = ("pbm_ascii", "pbm_binary", "svg", "csv")


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class NullTracer:
    def span(self, name, **attrs):
        return nullcontext()


NULL_TRACER = NullTracer()


def popcount(packed: np.ndarray) -> int:
    return int(np.bitwise_count(packed).sum())


def raster_expectation(n: int, rng: random.Random, samples: int = 200) -> float:
    """Check the level-n comparison raster once; return the expected discrepancy.

    The raster must lie inside the grid, and a seeded sample of its cells,
    half of them grid-filled, must agree with `exact_contains` at the cell
    centres.  The discrepancy is then (grid filled - raster filled) / side^2.
    """
    side = R.P[n]
    grid = R.packed(R.square_rows(n), side)
    model = pj.ExactModel(depth=n - 1)
    raster = pj.rasterize_exact(model, side).packed_rows()
    expect(raster.shape == grid.shape, f"raster shape {raster.shape} at level {n}")
    expect(not np.any(raster & ~grid), f"level-{n} raster has cells outside the grid")
    filled = np.argwhere(np.unpackbits(grid, axis=1, count=side))
    cells = [(rng.randrange(side), rng.randrange(side)) for _ in range(samples // 2)]
    cells += [(int(x), int(y)) for y, x in filled[rng.sample(range(len(filled)), samples // 2)]]
    for x, y in cells:
        bit = bool(raster[y, x >> 3] & (0x80 >> (x & 7)))
        point = pj.UnitPoint((x + 0.5) / side, (y + 0.5) / side)
        expect(bit == pj.exact_contains(model, point), f"raster cell ({x}, {y}) at level {n}")
    return (R.count2d(n) - popcount(raster)) / side**2


def check_obj(data: bytes, vox: np.ndarray, digest: str) -> None:
    """All `v x y z` lines, then all `f a b c` lines with 1-based indices."""
    text = data.decode("ascii")
    split = text.find("\nf ") + 1
    expect(text.startswith("v ") and split > 0 and text.endswith("\n"), "obj is not v lines then f lines")
    verts = text[:split].splitlines()
    faces = text[split:].splitlines()
    expect(all(ln.startswith("v ") for ln in verts) and all(ln.startswith("f ") for ln in faces),
           "obj is not v lines then f lines")
    coords = np.array(text[:split].replace("v ", " ").split(), dtype=np.int64)
    idx = np.array(text[split:].replace("f ", " ").split(), dtype=np.int64)
    expect(coords.size == 3 * len(verts) and idx.size == 3 * len(faces), "obj lines without three numbers")
    expect(coords.min() >= 0 and coords.max() <= len(vox), "obj vertex outside the cube")
    expect(idx.min() >= 1 and idx.max() <= len(verts), "obj face index out of range")
    expect(len(faces) == 2 * R.exposed_faces(vox), f"obj has {len(faces)} triangles")
    expect(hashlib.sha256(data).hexdigest() == digest, f"obj digest at side {len(vox)}")


def report_expectation(n: int, with_3d: bool) -> dict:
    end2, slope2 = R.dimension_fit(n, R.count2d)
    ratio, err_s, err_k = R.ratio_expectation(n)
    want = {
        "n": n, "side": R.P[n], "filled_2d": R.count2d(n),
        "fill_fraction": R.count2d(n) / R.P[n] ** 2,
        "dim2d_endpoint": end2, "dim2d_slope": slope2,
        "pell_ratio": ratio, "ratio_error_silver": err_s, "ratio_error_k": err_k,
    }
    if with_3d:
        end3, slope3 = R.dimension_fit(n, R.count3d)
        want.update(filled_3d=R.count3d(n), dim3d_endpoint=end3, dim3d_slope=slope3)
    return want


def check_report_values(got: dict, want: dict) -> None:
    expect(set(got) == set(want), f"report fields {sorted(got)}")
    for key, value in want.items():
        if key in ("pell_ratio", "ratio_error_silver", "ratio_error_k"):
            ok = R.within_ulp(got[key], value)
        elif key.startswith("dim"):
            ok = abs(got[key] - value) <= 1e-9
        else:
            ok = got[key] == value
        expect(ok, f"report {key} = {got[key]!r}, want {value!r} (n = {want['n']})")


def report_values(rep) -> dict:
    vals = {
        "n": rep.n, "side": rep.side, "filled_2d": rep.filled_2d, "fill_fraction": rep.fill_fraction,
        "dim2d_endpoint": rep.dim_estimate_2d.endpoint, "dim2d_slope": rep.dim_estimate_2d.slope,
        "pell_ratio": rep.ratio_diag.ratio, "ratio_error_silver": rep.ratio_diag.error_to_silver,
        "ratio_error_k": rep.ratio_diag.error_to_k,
    }
    if rep.filled_3d is not None:
        vals.update(filled_3d=rep.filled_3d, dim3d_endpoint=rep.dim_estimate_3d.endpoint,
                    dim3d_slope=rep.dim_estimate_3d.slope)
    expect(rep.discrepancy is None, "report computed a discrepancy it was not asked for")
    return vals


def check_ratio(d, n: int, want) -> None:
    got = (d.ratio, d.error_to_silver, d.error_to_k)
    expect(d.n == n and all(R.within_ulp(g, w) for g, w in zip(got, want)),
           f"ratio_diagnostic({n}) = {got}, want {want}")


class Compare:
    """pelljeru.discrepancy at one level: the build, the rasterizer and XOR/popcount."""

    name = "compare"
    round_size = 1
    LEVEL = 8

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def op(self, tracer):
        return pj.discrepancy(self.LEVEL)

    def prepare(self) -> None:
        self.want = raster_expectation(self.LEVEL, self.rng)

    def check(self, out) -> None:
        expect(out == self.want, f"discrepancy({self.LEVEL}) = {out!r}, want {self.want!r}")


def _dump(write, grid, fmt: str):
    sink = io.BytesIO()
    count = write(grid, fmt, sink)
    return count, sink.getvalue()


class Artifacts:
    """One export round: every writer, both readers, and the largest 2D build."""

    name = "artifacts"
    round_size = 1
    LEVEL_2D, LEVEL_3D, LEVEL_BIG = 8, 5, 12

    def __init__(self, seed: int):
        pass  # the round is fixed; nothing here depends on the seed

    def op(self, tracer):
        export = pj.export
        g = pj.build2d(self.LEVEL_2D)
        files = {fmt: _dump(export.write2d, g, fmt) for fmt in FORMATS_2D}
        back_pbm = export.read_pbm_ascii(files["pbm_ascii"][1])
        back_csv = export.read_csv(files["csv"][1])
        cube = pj.build3d(self.LEVEL_3D)
        files["xyz_text"] = _dump(export.write3d, cube, "xyz_text")
        files["obj_mesh"] = _dump(export.write3d, cube, "obj_mesh")
        big = pj.build2d(self.LEVEL_BIG)
        files["pbm_binary_big"] = _dump(export.write2d, big, "pbm_binary")
        return {"grid": g, "cube": cube, "big": big, "back_pbm": back_pbm, "back_csv": back_csv,
                "files": files}

    def prepare(self) -> None:
        n, side = self.LEVEL_2D, R.P[self.LEVEL_2D]
        rows = R.square_rows(n)
        cells = R.cells(rows, side)
        self.packed = R.packed(rows, side)
        self.vox = R.cube(self.LEVEL_3D)
        self.want = {
            "pbm_ascii": R.pbm_ascii(cells), "pbm_binary": R.pbm_binary(rows, side),
            "svg": R.svg(cells), "csv": R.csv(cells), "xyz_text": R.xyz(self.vox),
        }
        self.big_digest = subprocess.run(
            [sys.executable, R.__file__, str(self.LEVEL_BIG)], capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()

    def check(self, out) -> None:
        for key, (count, data) in out["files"].items():
            expect(count == len(data), f"{key} writer returned {count} for {len(data)} bytes")
        for fmt, data in self.want.items():
            expect(out["files"][fmt][1] == data, f"{fmt} bytes differ from the reference encoding")
        for key in ("grid", "back_pbm", "back_csv"):
            expect(np.array_equal(out[key].packed_rows(), self.packed), f"{key} differs from the level-{self.LEVEL_2D} square")
        expect(popcount(out["grid"].packed_rows()) == R.count2d(self.LEVEL_2D), "level-8 filled count")
        vox = out["cube"].to_bool_array()
        expect(np.array_equal(vox, self.vox), "cube differs from the reference cube")
        expect(int(vox.sum()) == R.count3d(self.LEVEL_3D), "cube filled count")
        check_obj(out["files"]["obj_mesh"][1], self.vox, OBJ_SHA256[self.LEVEL_3D])
        big = out["files"]["pbm_binary_big"][1]
        expect(hashlib.sha256(big).hexdigest() == self.big_digest, "level-12 pbm_binary digest")
        expect(popcount(out["big"].packed_rows()) == R.count2d(self.LEVEL_BIG), "level-12 filled count")


class Queries:
    """Point queries and Pell diagnostics with no dense build."""

    name = "queries"
    round_size = 1
    LEVEL_2D, LEVEL_3D, DEPTH = 60, 40, 30
    POINTS_2D, POINTS_3D, POINTS_EXACT = 200, 150, 300  # of each kind, filled and removed
    RATIO_LEVELS = range(2, 89)
    REPORT_LEVELS = (10, 30, 60, 88)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.points = {}
        for filled in (True, False):
            kind = "full_depth" if filled else "early_exit"
            self.points["contains2d", kind] = [R.grid_point(self.LEVEL_2D, 2, rng, filled) for _ in range(self.POINTS_2D)]
            self.points["contains3d", kind] = [R.grid_point(self.LEVEL_3D, 3, rng, filled) for _ in range(self.POINTS_3D)]
            self.points["exact", kind] = [pj.UnitPoint(*R.unit_point(self.DEPTH, rng, filled))
                                          for _ in range(self.POINTS_EXACT)]
        self.model = pj.ExactModel(depth=self.DEPTH)

    def op(self, tracer):
        out = {}
        for kind in ("full_depth", "early_exit"):
            pts = self.points["contains2d", kind]
            with tracer.span(f"grid2d.contains2d.{kind}", calls=len(pts)):
                contains2d = pj.contains2d
                out["contains2d", kind] = [contains2d(self.LEVEL_2D, x, y) for x, y in pts]
            pts = self.points["contains3d", kind]
            with tracer.span(f"grid3d.contains3d.{kind}", calls=len(pts)):
                contains3d = pj.contains3d
                out["contains3d", kind] = [contains3d(self.LEVEL_3D, x, y, z) for x, y, z in pts]
            pts = self.points["exact", kind]
            with tracer.span(f"exact.exact_contains.{kind}", calls=len(pts)):
                exact_contains, model = pj.exact_contains, self.model
                out["exact", kind] = [exact_contains(model, p) for p in pts]
        with tracer.span("pell.ratio_diagnostic", calls=len(self.RATIO_LEVELS)):
            ratio_diagnostic = pj.ratio_diagnostic
            out["ratio"] = [ratio_diagnostic(n) for n in self.RATIO_LEVELS]
        out["dim"] = {(kind, method): pj.dim_analytic(kind, method)
                      for kind in ("square", "cube") for method in ("log", "root")}
        out["report"] = [pj.report(n, include_3d=True) for n in self.REPORT_LEVELS]
        return out

    def prepare(self) -> None:
        self.want_ratio = [R.ratio_expectation(n) for n in self.RATIO_LEVELS]
        self.want_report = [report_expectation(n, True) for n in self.REPORT_LEVELS]

    def check(self, out) -> None:
        for key in self.points:
            want = key[1] == "full_depth"
            answers = out[key]
            expect(len(answers) == len(self.points[key]), f"{key} answer count")
            bad = [i for i, a in enumerate(answers) if a is not want]
            expect(not bad, f"{key}: {len(bad)} answers differ, first at {self.points[key][bad[0]] if bad else None}")
        for n, d, want in zip(self.RATIO_LEVELS, out["ratio"], self.want_ratio):
            check_ratio(d, n, want)
        dim = out["dim"]
        for kind, lo in (("square", 1.0), ("cube", 2.0)):
            expect(lo < dim[kind, "log"] < lo + 1, f"dim_analytic({kind}) = {dim[kind, 'log']}")
            expect(abs(dim[kind, "log"] - dim[kind, "root"]) <= 1e-9, f"dim_analytic routes differ for {kind}")
        for rep, want in zip(out["report"], self.want_report):
            check_report_values(report_values(rep), want)


CLI_COMMANDS = (
    ("metrics", "--n", "30", "--3d"),
    ("gen2d", "--n", "6"),
    ("gen3d", "--n", "4", "--format", "obj_mesh"),
    ("compare", "--n", "6"),
    ("metrics", "--pell-up-to", "40", "--format", "csv"),
)


class Cli:
    """One fresh `python -m pelljeru` process per op, from a fixed command cycle."""

    name = "cli"
    round_size = len(CLI_COMMANDS)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.env = child_env()
        self.next = 0

    def op(self, tracer):
        cmd = CLI_COMMANDS[self.next % len(CLI_COMMANDS)]
        self.next += 1
        with tracer.span("cli.process"):
            proc = subprocess.run([sys.executable, "-m", "pelljeru", *cmd], cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=120)
        return cmd, proc.returncode, proc.stdout, proc.stderr

    def prepare(self) -> None:
        self.want_metrics = report_expectation(30, True)
        self.want_gen2d = R.pbm_ascii(R.cells(R.square_rows(6), R.P[6]))
        self.vox4 = R.cube(4)
        self.want_compare = raster_expectation(6, self.rng)
        self.want_ratio = {n: R.ratio_expectation(n) for n in range(2, 41)}

    def check(self, out) -> None:
        cmd, code, stdout, stderr = out
        expect(code == 0 and stderr == b"", f"{' '.join(cmd)}: exit {code}, stderr {stderr[:200]!r}")
        self.check_stdout(cmd, stdout)

    def check_stdout(self, cmd, stdout: bytes) -> None:
        if cmd == CLI_COMMANDS[0]:
            got = {}
            for line in stdout.decode("ascii").splitlines():
                key, _, value = line.partition("=")
                got[key] = int(value) if key in ("n", "side", "filled_2d", "filled_3d") else float(value)
            check_report_values(got, self.want_metrics)
        elif cmd == CLI_COMMANDS[1]:
            expect(stdout == self.want_gen2d, "gen2d --n 6 bytes differ from the reference encoding")
        elif cmd == CLI_COMMANDS[2]:
            check_obj(stdout, self.vox4, OBJ_SHA256[4])
        elif cmd == CLI_COMMANDS[3]:
            expect(stdout == f"{self.want_compare!r}\n".encode("ascii"), f"compare --n 6 printed {stdout!r}")
        else:
            lines = stdout.decode("ascii").splitlines()
            expect(lines[0] == "n,pell,ratio,error_to_silver,error_to_k" and len(lines) == 42, "pell table shape")
            for m, line in enumerate(lines[1:]):
                fields = line.split(",")
                expect(fields[:2] == [str(m), str(R.P[m])], f"pell table row {m}: {line!r}")
                if m < 2:
                    expect(fields[2:] == ["", "", ""], f"pell table row {m}: {line!r}")
                else:
                    want = self.want_ratio[m]
                    expect(all(R.within_ulp(float(g), w) for g, w in zip(fields[2:], want)),
                           f"pell table row {m}: {line!r}")


def make(name: str, seed: int):
    return {"compare": Compare, "artifacts": Artifacts, "queries": Queries, "cli": Cli}[name](seed)
