"""The irrational-ratio Jerusalem square and its comparison to the Pell grids.

The continuous construction scales corner copies by k = sqrt(2) - 1 and edge
copies by k^2, with 2k + k^2 = 1 so the three bands tile the unit interval
exactly.  A depth-d model applies d rounds of cross removal, and each copy,
corner or edge, carries one round fewer than its parent.  Depth n-1 lines up
with the integer grid at level n (level 1 is the unremoved unit square) only
along corner copies, which sit at level n-1.  The grid's edge blocks sit at
level n-2, so inside each edge copy the model removes one round of crosses
more than the grid does.  The cells alive in any copy form a product X x Y of
column and row centers, so the raster descends such products, not cells,
all products of one depth together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid2d import Grid2D, build2d
from .pell import INVERSE_SILVER

# Raster guard at p_12 = 13860: the depth-11 raster there takes 55-65 ms on
# one core and peaks at 29 MiB traced, 24 MB of it the packed result.
MAX_RASTER = 13860

# Band edges of the unit interval: low [0, _K), mid [_K, _B2), high [_B2, 1];
# an edge copy spans [0, _K2) or [_FLUSH_HI, 1] on its non-mid axes.
_K = INVERSE_SILVER
_K2 = _K * _K
_B2 = _K + _K2
_FLUSH_HI = 1.0 - _K2


@dataclass(frozen=True)
class ExactModel:
    """Continuous Jerusalem square scaled by k = sqrt(2) - 1 per rank, cut to a finite depth."""

    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be nonnegative, got {self.depth}")


@dataclass(frozen=True)
class UnitPoint:
    """A point of the unit square, v pointing downward like raster rows."""

    u: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.u <= 1.0 and 0.0 <= self.v <= 1.0):
            raise ValueError(f"point ({self.u}, {self.v}) outside the unit square")


def _contains_scalar(depth: int, u: float, v: float) -> bool:
    k, k2, b2, flush_hi = _K, _K2, _B2, _FLUSH_HI  # local loads in the per-point loop
    for _ in range(depth):
        u_mid = k <= u < b2
        v_mid = k <= v < b2
        if u_mid and v_mid:
            return False
        if u_mid or v_mid:
            # Edge copy of side k^2, flush against the outer boundary along
            # the non-mid axis; the rest of that band is removed cross arm.
            if u_mid:
                u = (u - k) / k2
            elif u < k:
                if u >= k2:
                    return False
                u = u / k2
            else:
                if u < flush_hi:
                    return False
                u = (u - flush_hi) / k2
            if v_mid:
                v = (v - k) / k2
            elif v < k:
                if v >= k2:
                    return False
                v = v / k2
            else:
                if v < flush_hi:
                    return False
                v = (v - flush_hi) / k2
        else:
            u = u / k if u < k else (u - b2) / k
            v = v / k if v < k else (v - b2) / k
    return True


def exact_contains(model: ExactModel, point: UnitPoint) -> bool:
    """True iff the point survives model.depth rounds of cross removal."""
    return _contains_scalar(model.depth, point.u, point.v)


def _split(c: np.ndarray):
    """One band step on an array of axis coordinates.

    Returns (mask, children) pairs for the corner part (not mid-band), the mid
    part and the flush part (inside an edge copy's band), each rescaled with
    the float operations of _contains_scalar, so the raster is bit-identical.
    """
    mid = (c >= _K) & (c < _B2)
    corner = ~mid
    flush = (c < _K2) | (c >= _FLUSH_HI)
    cc, cm, cf = c[corner], c[mid], c[flush]
    return (
        (corner, np.where(cc < _K, cc / _K, (cc - _B2) / _K)),
        (mid, (cm - _K) / _K2),
        (flush, np.where(cf < _K, cf / _K2, (cf - _FLUSH_HI) / _K2)),
    )


def rasterize_exact(model: ExactModel, resolution: int, max_raster: int | None = None) -> Grid2D:
    """Sample the model at cell centers on a resolution x resolution grid.

    A band step splits each axis of a product once and descends into three
    products: corner x corner, mid x flush and flush x mid (the rest is cross).
    The descent runs one depth at a time.  Both axes start from the same
    centers, so an axis array is a path of corner/mid/flush choices shared by
    both axes: one flat array holds the cell indices, centers and path ids of
    all live paths, one _split per depth steps them, and path p's children are
    3p, 3p + 1 and 3p + 2.  Live products are (u path, v path) rows of a node
    table; rows with an empty path and paths no row uses are dropped.  Each
    leaf row ORs one packed column mask into its rows.
    """
    limit = MAX_RASTER if max_raster is None else max_raster
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if resolution > limit:
        raise ValueError(f"resolution {resolution} exceeds the dense-grid guard {limit}")
    index = np.arange(resolution)
    centers = (index + 0.5) / resolution
    path = np.zeros(resolution, dtype=np.intp)
    nodes = np.zeros((1, 2), dtype=np.intp)
    paths = 1
    for _ in range(model.depth):
        if not len(nodes):
            break  # every product has emptied out
        parts = _split(centers)
        index = np.concatenate([index[m] for m, _ in parts])
        centers = np.concatenate([c for _, c in parts])
        path = np.concatenate([3 * path[m] + j for j, (m, _) in enumerate(parts)])
        # path 3p + j is the corner (0), mid (1) or flush (2) part of path p
        nodes = (3 * nodes[:, None] + [[0, 0], [1, 2], [2, 1]]).reshape(-1, 2)
        nodes = nodes[(np.bincount(path, minlength=3 * paths)[nodes] > 0).all(axis=1)]
        used = np.zeros(3 * paths, dtype=bool)
        used[nodes] = True
        keep = used[path]
        rank = np.cumsum(used) - 1  # a plain np.unique would import numpy.ma
        index, centers, path, nodes = index[keep], centers[keep], rank[path[keep]], rank[nodes]
        paths = int(used.sum())
    index = index[np.argsort(path, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(path, minlength=paths)))).tolist()
    out = np.zeros((resolution, (resolution + 7) // 8), dtype=np.uint8)
    for u, v in nodes.tolist():
        xi, yi = index[bounds[u]:bounds[u + 1]], index[bounds[v]:bounds[v + 1]]
        lo = xi[0] >> 3
        mask = np.zeros(8 * ((xi[-1] >> 3) + 1 - lo), dtype=bool)
        mask[xi - 8 * lo] = True
        out[yi, lo:lo + len(mask) // 8] |= np.packbits(mask)
    out.setflags(write=False)  # handed over without a copy
    return Grid2D(resolution, out)


def discrepancy(n: int, max_build: int | None = None) -> float:
    """Disagreement fraction between the level-n grid and the exact model.

    Rasterizes the depth n-1 model at resolution pell(n) and counts cells on
    which it differs from the integer construction, normalized by the total
    cell count; always in [0, 1].  The differing cells are exactly those the
    grid fills and the model's early-stripped edge copies remove (see the
    module docstring), so the raster lies inside the grid.  The fraction is
    not monotone in n: 0.160, 0.111, 0.171, 0.144, 0.146, 0.1275, 0.116,
    0.101, 0.088, 0.076 at n = 3..12, falling from n = 8 on.
    """
    if n < 2:
        raise ValueError(f"discrepancy needs level >= 2, got {n}")
    grid = build2d(n, max_build=max_build)
    raster = rasterize_exact(ExactModel(depth=n - 1), grid.side, max_raster=grid.side)
    return grid.difference_count(raster) / grid.side**2
