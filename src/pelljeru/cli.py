"""Command-line front end.

Four subcommands: gen2d and gen3d build a grid and serialize it, metrics
prints measurements or the underlying integer sequence, compare measures
how far the integer grids sit from the continuous model.  Output goes to
--out, with "-" meaning stdout; every byte is deterministic for a given
command line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .formats import FORMATS_2D, FORMATS_3D
from .metrics import MetricsReport, report
from .pell import N_MAX, PellIndexError, pell, ratio_diagnostic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pelljeru",
        description="Integer Jerusalem squares and cubes on Pell-number grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("gen2d", help="build a square grid and serialize it")
    p2.add_argument("--n", type=int, required=True, help="construction level (side = nth Pell number)")
    p2.add_argument("--format", choices=FORMATS_2D, default="pbm_ascii")
    p2.add_argument("--out", default="-", help="output path, - for stdout")
    p2.add_argument("--max-build", type=int, default=None, help="override the dense-build level guard")

    p3 = sub.add_parser("gen3d", help="build a cube grid and serialize it")
    p3.add_argument("--n", type=int, required=True)
    p3.add_argument("--format", choices=FORMATS_3D, default="xyz_text")
    p3.add_argument("--out", default="-")
    p3.add_argument("--max-build", type=int, default=None)

    pm = sub.add_parser("metrics", help="counts, ratios, and dimension estimates")
    pick = pm.add_mutually_exclusive_group(required=True)
    pick.add_argument("--n", type=int, help="report for a single level")
    pick.add_argument("--pell-up-to", type=int, metavar="N",
                      help="print the sequence and ratio table for levels 0..N")
    pm.add_argument("--3d", dest="include_3d", action="store_true",
                    help="include voxel counts and 3D dimension estimates")
    pm.add_argument("--discrepancy", action="store_true",
                    help="also measure disagreement with the continuous model (builds the grid)")
    pm.add_argument("--format", choices=("text", "csv"), default="text", help="report style")
    pm.add_argument("--out", default="-")
    pm.add_argument("--max-build", type=int, default=None)

    pc = sub.add_parser("compare", help="disagreement between integer grid and continuous model")
    pick = pc.add_mutually_exclusive_group(required=True)
    pick.add_argument("--n", type=int)
    pick.add_argument("--sweep", metavar="A..B", help="inclusive level range, e.g. 4..8")
    pc.add_argument("--out", default="-")
    pc.add_argument("--max-build", type=int, default=None)
    return parser


def _open_sink(path: str):
    if path == "-":
        if sys.stdout is None:
            raise OSError("no stdout to write to")
        return sys.stdout.buffer, False
    return open(path, "wb"), True


def _parse_sweep(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"sweep must look like A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"sweep must look like A..B with integers, got {text!r}") from None
    if a > b:
        raise ValueError(f"sweep range is empty: {a} > {b}")
    return a, b


def _pell_table(up_to: int, style: str) -> str:
    if up_to < 0 or up_to > N_MAX:
        raise PellIndexError(f"level {up_to} outside [0, {N_MAX}]")
    lines = []
    if style == "csv":
        lines.append("n,pell,ratio,error_to_silver,error_to_k")
        for m in range(up_to + 1):
            if m >= 2:
                d = ratio_diagnostic(m)
                lines.append(f"{m},{pell(m)},{d.ratio!r},{d.error_to_silver!r},{d.error_to_k!r}")
            else:
                lines.append(f"{m},{pell(m)},,,")
    else:
        for m in range(up_to + 1):
            if m >= 2:
                d = ratio_diagnostic(m)
                lines.append(f"n={m} pell={pell(m)} ratio={d.ratio!r} "
                             f"error_to_silver={d.error_to_silver!r} error_to_k={d.error_to_k!r}")
            else:
                lines.append(f"n={m} pell={pell(m)}")
    return "\n".join(lines) + "\n"


def _run(args) -> bytes | None:
    """Produce the payload for one command as bytes; None means already written.

    Only the commands that build a grid import the numpy modules.
    """
    if args.command in ("gen2d", "gen3d"):
        from . import export, grid2d, grid3d
        build = grid2d.build2d if args.command == "gen2d" else grid3d.build3d
        grid = build(args.n, max_build=args.max_build)
        sink, close = _open_sink(args.out)
        try:
            export.write(grid, args.format, sink)
        finally:
            if close:
                sink.close()
        return None
    if args.command == "metrics":
        if args.pell_up_to is not None:
            return _pell_table(args.pell_up_to, args.format).encode("ascii")
        rep = report(args.n, include_3d=args.include_3d,
                     include_discrepancy=args.discrepancy, max_build=args.max_build)
        if args.format == "csv":
            text = MetricsReport.csv_header() + "\n" + rep.to_csv_row() + "\n"
        else:
            text = rep.to_text()
        return text.encode("ascii")
    from .exact import discrepancy  # compare
    if args.sweep is not None:
        lo, hi = _parse_sweep(args.sweep)
        lines = [f"{m} {discrepancy(m, max_build=args.max_build)!r}" for m in range(lo, hi + 1)]
        return ("\n".join(lines) + "\n").encode("ascii")
    return f"{discrepancy(args.n, max_build=args.max_build)!r}\n".encode("ascii")


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _run(args)
        if payload is not None:
            sink, close = _open_sink(args.out)
            try:
                sink.write(payload)
            finally:
                if close:
                    sink.close()
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: --max-build too big to allocate
        return _error(exc)
    return 0


def run_main() -> None:
    """Entry point of the `pelljeru` script and of `python -m pelljeru`.

    Runs main(), flushes stdout and stderr, and ends the process with
    os._exit, so the interpreter's teardown (15-20 ms once numpy is loaded)
    is skipped.  atexit handlers do not run.  A failed flush of stdout is an
    error like a failed write: one `error:` line and exit code 1.
    Argument errors still leave through argparse's SystemExit(2).
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # otherwise main already reported the write that left these bytes behind
            code = _error(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)
