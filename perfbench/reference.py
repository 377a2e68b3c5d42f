"""Reference values the benchmark computes apart from pelljeru.

Nothing here imports the package under test.  The Pell numbers and filled
counts come from their recurrences, the square grid from a row recursion on
Python integers used as bit sets, the cube from a block assembly on boolean
arrays, and every byte encoding from the format descriptions in the project
README and the `pelljeru.export` docstrings.  The checks in workloads.py
compare the program's outputs against these.
"""

from __future__ import annotations

import hashlib
import math
from decimal import Decimal, localcontext
from itertools import product

import numpy as np


def pell_numbers(up_to: int) -> list[int]:
    p = [0, 1]
    while len(p) <= up_to:
        p.append(2 * p[-1] + p[-2])
    return p


P = pell_numbers(88)


def count2d(n: int) -> int:
    """Filled cells of the level-n square: 4 corner copies and 4 edge copies."""
    a, b = 1, 4  # levels 1 and 2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 4 * b + 4 * a
    return b


def count3d(n: int) -> int:
    """Filled voxels of the level-n cube: 8 corner copies and 12 edge copies."""
    a, b = 1, 8
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 8 * b + 12 * a
    return b


def square_rows(n: int) -> list[int]:
    """Rows of the level-n square as integers, bit side-1-x set for a filled x.

    Row y of level m is two level m-1 corner rows, or two level m-2 edge
    rows, plus the top or bottom edge block's row where y falls inside it.
    """
    memo: dict[tuple[int, int], int] = {}

    def row(m: int, y: int) -> int:
        if m == 1:
            return 1
        key = (m, y)
        r = memo.get(key)
        if r is not None:
            return r
        side, low, mid = P[m], P[m - 1], P[m - 2]
        hi0 = low + mid
        if low <= y < hi0:
            e = row(m - 2, y - low)
            r = (e << (side - mid)) | e
        else:
            c = row(m - 1, y if y < low else y - hi0)
            r = (c << (side - low)) | c
            if mid and y < mid:
                r |= row(m - 2, y) << (side - hi0)
            elif mid and y >= side - mid:
                r |= row(m - 2, y - (side - mid)) << (side - hi0)
        memo[key] = r
        return r

    return [row(n, y) for y in range(P[n])]


def packed_row_bytes(rows: list[int], side: int):
    """Yield each row MSB-first with zero padding, as PBM P4 stores it."""
    width = (side + 7) // 8
    pad = 8 * width - side
    for r in rows:
        yield (r << pad).to_bytes(width, "big")


def packed(rows: list[int], side: int) -> np.ndarray:
    data = b"".join(packed_row_bytes(rows, side))
    return np.frombuffer(data, dtype=np.uint8).reshape(side, (side + 7) // 8)


def cells(rows: list[int], side: int) -> np.ndarray:
    return np.unpackbits(packed(rows, side), axis=1, count=side).astype(bool)


def cube(n: int) -> np.ndarray:
    """Boolean voxels [z, y, x] of the level-n cube by block assembly."""
    if n == 1:
        return np.ones((1, 1, 1), dtype=bool)
    side, low, mid = P[n], P[n - 1], P[n - 2]
    hi0 = low + mid
    out = np.zeros((side,) * 3, dtype=bool)
    corner = cube(n - 1)
    edge = cube(n - 2) if mid else None
    for bands in product((0, 1, 2), repeat=3):  # low, mid, high per axis
        mids = bands.count(1)
        if mids == 0:
            out[tuple(slice(0, low) if b == 0 else slice(hi0, side) for b in bands)] = corner
        elif mids == 1 and mid:
            out[tuple(
                slice(low, hi0) if b == 1 else slice(0, mid) if b == 0 else slice(side - mid, side)
                for b in bands
            )] = edge
    return out


def exposed_faces(vox: np.ndarray) -> int:
    """Faces between a filled voxel and an empty or outside neighbour."""
    pad = np.pad(vox, 1)
    inner = pad[1:-1, 1:-1, 1:-1]
    total = 0
    for axis in range(3):
        for step in (-1, 1):
            total += int(np.count_nonzero(inner & ~np.roll(pad, step, axis=axis)[1:-1, 1:-1, 1:-1]))
    return total


# Encodings, written from the format descriptions.

def pbm_ascii(cell_rows: np.ndarray) -> bytes:
    side = len(cell_rows)
    lines = [f"P1\n{side} {side}\n"]
    lines += [" ".join("1" if v else "0" for v in row) + "\n" for row in cell_rows]
    return "".join(lines).encode("ascii")


def csv(cell_rows: np.ndarray) -> bytes:
    return "".join(",".join("1" if v else "0" for v in row) + "\n" for row in cell_rows).encode("ascii")


def pbm_binary(rows: list[int], side: int) -> bytes:
    return f"P4\n{side} {side}\n".encode("ascii") + b"".join(packed_row_bytes(rows, side))


def pbm_binary_sha256(rows: list[int], side: int) -> str:
    h = hashlib.sha256(f"P4\n{side} {side}\n".encode("ascii"))
    for chunk in packed_row_bytes(rows, side):
        h.update(chunk)
    return h.hexdigest()


def svg(cell_rows: np.ndarray) -> bytes:
    side = len(cell_rows)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {side} {side}">\n']
    for y, row in enumerate(cell_rows):
        for x in np.flatnonzero(row):
            parts.append(f'<rect x="{x}" y="{y}" width="1" height="1" fill="black"/>\n')
    parts.append("</svg>\n")
    return "".join(parts).encode("ascii")


def xyz(vox: np.ndarray) -> bytes:
    """One "x y z" line per filled voxel, ordered by z, then y, then x."""
    return "".join(f"{x} {y} {z}\n" for z, y, x in zip(*np.nonzero(vox))).encode("ascii")


# Floating-point expectations.

def ratio_expectation(n: int) -> tuple[float, float, float]:
    """(ratio, error_to_silver, error_to_k) at index n, from 150-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 150
        root2 = Decimal(2).sqrt()
        ratio = Decimal(P[n]) / Decimal(P[n - 1])
        err_silver = abs(ratio - (1 + root2))
        err_k = abs(Decimal(P[n - 1]) / Decimal(P[n]) - (root2 - 1))
        return float(ratio), float(err_silver), float(err_k)


def within_ulp(got: float, want: float) -> bool:
    return abs(got - want) <= math.ulp(want)


def dimension_fit(n: int, count) -> tuple[float, float]:
    """(endpoint, least-squares slope) of log(count(m)) against log(P[m]), m = 1..n."""
    xs = [math.log(P[m]) for m in range(1, n + 1)]
    ys = [math.log(count(m)) for m in range(1, n + 1)]
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return ys[-1] / xs[-1], slope


# Query points with membership known by construction.  A filled point follows
# a random chain of corner and edge copies down to level 1, so the classifier
# descends the full depth.  A removed point follows a chain to a random level
# and lands in that copy's cross, so the classifier exits there.

def _removed_offsets(dims: int, side: int, low: int, mid: int, rng) -> list[int]:
    hi0 = low + mid
    mids = rng.randint(1, dims)
    axes = rng.sample(range(dims), dims)
    coords = [0] * dims
    for i, axis in enumerate(axes):
        if i < mids:
            coords[axis] = rng.randrange(low, hi0)
        elif i == mids and mids == 1:
            # one mid axis: another axis sits in the cross arm beside the edge block
            coords[axis] = rng.randrange(mid, low) if rng.random() < 0.5 else rng.randrange(hi0, side - mid)
        else:
            coords[axis] = rng.randrange(side)
    return coords


def grid_point(n: int, dims: int, rng, filled: bool) -> tuple[int, ...]:
    """A cell (dims = 2) or voxel (dims = 3) of level n that is filled or removed."""
    origin = [0] * dims
    m = n
    stop = None if filled else rng.randint(3, n)
    while m >= 2:
        side, low, mid = P[m], P[m - 1], P[m - 2]
        if m == stop:
            local = _removed_offsets(dims, side, low, mid, rng)
            return tuple(o + c for o, c in zip(origin, local))
        edge_ok = mid and (filled or m - 2 >= stop)
        if edge_ok and rng.random() < 0.5:
            axis = rng.randrange(dims)
            for i in range(dims):
                origin[i] += low if i == axis else rng.choice((0, side - mid))
            m -= 2
        else:
            for i in range(dims):
                origin[i] += rng.choice((0, low + mid))
            m -= 1
    return tuple(origin)


K = math.sqrt(2.0) - 1.0
K2 = K * K


def unit_point(depth: int, rng, filled: bool, max_edges: int = 2) -> tuple[float, float]:
    """A point of the unit square that survives `depth` rounds, or is removed.

    At most `max_edges` edge copies (scale k^2) are taken, so the chain's
    scale stays near k^depth and the float rounding of the composed map stays
    far below the margin to every band boundary.
    """
    rounds = depth if filled else rng.randrange(depth)
    edge_rounds = set(rng.sample(range(rounds), min(max_edges, rounds)))
    maps = []  # per round, per axis (offset, scale): parent = offset + scale * child
    for r in range(rounds):
        if r in edge_rounds:
            axis = rng.randrange(2)
            maps.append(tuple(
                (K, K2) if i == axis else rng.choice(((0.0, K2), (1.0 - K2, K2)))
                for i in range(2)
            ))
        else:
            maps.append(tuple(rng.choice(((0.0, K), (K + K2, K))) for _ in range(2)))
    if filled:
        local = [0.5, 0.5]
    else:
        mid_centre = K + K2 / 2
        arm_centre = rng.choice(((K2 + K) / 2, (K + K2 + 1.0 - K2) / 2))
        local = rng.choice(([mid_centre, mid_centre], [mid_centre, arm_centre], [arm_centre, mid_centre]))
    for step in reversed(maps):
        local = [a + s * c for (a, s), c in zip(step, local)]
    return local[0], local[1]


if __name__ == "__main__":
    # `python3 reference.py N` prints the sha256 of the level-N square as PBM P4.
    # Artifacts runs this in a child process, so the row memo's memory stays
    # out of the workload process's peak RSS.
    import sys

    level = int(sys.argv[1])
    print(pbm_binary_sha256(square_rows(level), P[level]))
