"""Integer Jerusalem squares: band classifier, block builder, accessors.

At level n the square of side ``pell(n)`` splits both axes into three bands
of widths pell(n-1) / pell(n-2) / pell(n-1).  The four corner blocks hold
level n-1 squares, the four edge blocks hold level n-2 squares flush against
the outer boundary, and the remaining central cross is removed.  Level 1 is
the filled unit square; level 0 is empty extent and is rejected outright.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .pell import N_MAX, PellIndexError, pell

# Dense-build memory guard: p_12 = 13860, about 24 MB bit-packed.
MAX_BUILD_2D = 12


class CoordinateError(ValueError):
    """Raised for cell coordinates outside the grid."""


class BuildLimitError(ValueError):
    """Raised when a dense build would exceed the configured level guard."""


class BandKind(enum.Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


@dataclass(frozen=True)
class Band:
    kind: BandKind
    local_offset: int


# Per level n >= 2: (low_w, hi0, mid_w, flush_hi).  Each axis splits into
# [0, low_w) / [low_w, hi0) / [hi0, side); edge blocks span [0, mid_w) or
# [flush_hi, side) on their non-mid axes.
_BANDS = [None, None] + [
    (pell(n - 1), pell(n - 1) + pell(n - 2), pell(n - 2), pell(n) - pell(n - 2))
    for n in range(2, N_MAX + 1)
]


def band_of(coord: int, n: int) -> Band:
    """Classify a coordinate into the low/mid/high band of level n (n >= 2)."""
    if n < 2:
        raise PellIndexError(f"band split needs level >= 2, got {n}")
    side = pell(n)
    if not 0 <= coord < side:
        raise CoordinateError(f"coordinate {coord} outside [0, {side}) at level {n}")
    low_w, hi0 = _BANDS[n][:2]
    if coord < low_w:
        return Band(BandKind.LOW, coord)
    if coord < hi0:
        return Band(BandKind.MID, coord - low_w)
    return Band(BandKind.HIGH, coord - hi0)


def _descend(n: int, coords) -> bool:
    """Membership of an in-range cell or voxel at level n, on any number of axes.

    Each axis yields its offset in the level n-1 corner block and in the flush
    level n-2 edge block (None in the cross arm beside it).  No mid-band axis
    descends into the corner block, one into the edge block; the rest is cross.
    """
    while n >= 2:
        low_w, hi0, mid_w, flush_hi = _BANDS[n]
        corner, edge, mids = [], [], 0
        for c in coords:
            if c < low_w:
                corner.append(c)
                edge.append(c if c < mid_w else None)
            elif c >= hi0:
                corner.append(c - hi0)
                edge.append(c - flush_hi if c >= flush_hi else None)
            else:
                mids += 1
                edge.append(c - low_w)
        if not mids:
            coords, n = corner, n - 1
        elif mids == 1 and None not in edge:
            coords, n = edge, n - 2
        else:
            return False
    return True


def contains2d(n: int, x: int, y: int) -> bool:
    """Cell membership at level n without building a grid."""
    if not 1 <= n <= N_MAX:
        raise PellIndexError(f"membership level {n} outside [1, {N_MAX}]")
    side = pell(n)
    if not (0 <= x < side and 0 <= y < side):
        raise CoordinateError(f"cell ({x}, {y}) outside [0, {side})^2 at level {n}")
    return _descend(n, (x, y))


class Grid2D:
    """Dense square bitmap with bit-packed rows (MSB-first, PBM P4 layout).

    ``level`` records the construction level for grids built by build2d and
    is None for grids from other sources (rasterized models, parsed files).
    Equality compares side and cell contents only.  The packed rows are
    immutable; padding bits past ``side`` are zero (the constructor rejects
    others), which keeps the XOR/popcount paths exact.
    """

    __slots__ = ("side", "level", "_rows")

    def __init__(self, side: int, packed_rows: np.ndarray, level: int | None = None):
        if side < 1:
            raise ValueError(f"grid side must be >= 1, got {side}")
        if packed_rows.shape != (side, (side + 7) // 8):
            raise ValueError(f"packed rows shape {packed_rows.shape} does not match side {side}")
        self.side = side
        self.level = level
        rows = np.ascontiguousarray(packed_rows, dtype=np.uint8)
        if side % 8 and (rows[:, -1] & (0xFF >> side % 8)).any():
            raise ValueError(f"packed rows set padding bits past side {side}")
        rows.setflags(write=False)
        self._rows = rows

    @classmethod
    def from_bool_array(cls, cells: np.ndarray, level: int | None = None) -> "Grid2D":
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise ValueError(f"expected a square cell array, got shape {cells.shape}")
        return cls(cells.shape[0], np.packbits(cells, axis=1), level=level)

    def cell(self, x: int, y: int) -> bool:
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise CoordinateError(f"cell ({x}, {y}) outside [0, {self.side})^2")
        return bool(self._rows[y, x >> 3] & (0x80 >> (x & 7)))

    def row_bits(self, y: int) -> np.ndarray:
        """Unpacked boolean row y (length side)."""
        return np.unpackbits(self._rows[y], count=self.side).astype(bool)

    def to_bool_array(self) -> np.ndarray:
        return np.unpackbits(self._rows, axis=1, count=self.side).astype(bool)

    def packed_rows(self) -> np.ndarray:
        """Read-only (side, ceil(side/8)) uint8 rows, MSB leftmost."""
        return self._rows

    def filled_count(self) -> int:
        return int(np.bitwise_count(self._rows).sum())

    def difference_count(self, other: "Grid2D") -> int:
        """Number of cells on which the two grids differ."""
        if self.side != other.side:
            raise ValueError(f"grid sides differ: {self.side} vs {other.side}")
        return int(np.bitwise_count(self._rows ^ other._rows).sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid2D):
            return NotImplemented
        return self.side == other.side and np.array_equal(self._rows, other._rows)

    __hash__ = None  # content equality, so not hashable

    def __repr__(self) -> str:
        lvl = "" if self.level is None else f", level={self.level}"
        return f"Grid2D(side={self.side}{lvl}, filled={self.filled_count()})"


def _assemble_packed(n: int, sub1: np.ndarray, sub2: np.ndarray | None) -> np.ndarray:
    """Stamp the nine level-n block positions from packed sub-level rows.

    sub1 holds level n-1 (the four corners), sub2 level n-2 (the four edge
    blocks, flush to the outer boundary); the center stays blank.  Works in
    unpacked band matrices and repacks row-wise.
    """
    side = pell(n)
    low_w, hi0, mid_w, flush_hi = _BANDS[n]
    out = np.empty((side, (side + 7) // 8), dtype=np.uint8)

    corner = np.unpackbits(sub1, axis=1, count=low_w).astype(bool)
    edge = np.unpackbits(sub2, axis=1, count=mid_w).astype(bool) if mid_w else None

    band = np.zeros((low_w, side), dtype=bool)
    band[:, :low_w] = corner
    band[:, hi0:] = corner
    if mid_w:
        band[:mid_w, low_w:hi0] = edge  # top edge block, flush to y = 0
    out[:low_w] = np.packbits(band, axis=1)

    if mid_w:
        band[:mid_w, low_w:hi0] = False
        band[low_w - mid_w:, low_w:hi0] = edge  # bottom edge block, flush to y = side
    out[hi0:] = np.packbits(band, axis=1)

    if mid_w:
        mid_band = np.zeros((mid_w, side), dtype=bool)
        mid_band[:, :mid_w] = edge  # left edge block
        mid_band[:, flush_hi:] = edge  # right edge block
        out[low_w:hi0] = np.packbits(mid_band, axis=1)
    return out


def build2d(n: int, max_build: int | None = None) -> Grid2D:
    """Build the dense level-n grid by recursive block stamping.

    Memoizes one packed grid per level (each level only needs the previous
    two).  The result agrees cell-for-cell with contains2d.
    """
    limit = MAX_BUILD_2D if max_build is None else max_build
    if not 1 <= n <= N_MAX:
        raise PellIndexError(f"dense build level {n} outside [1, {N_MAX}]")
    if n > limit:
        raise BuildLimitError(
            f"dense 2D build at level {n} exceeds the guard {limit}; raise max_build to override"
        )
    prev2: np.ndarray | None = None
    prev1 = np.array([[0x80]], dtype=np.uint8)  # level 1: one filled cell
    for m in range(2, n + 1):
        prev2, prev1 = prev1, _assemble_packed(m, prev1, prev2)
    return Grid2D(pell(n), prev1, level=n)


def subgrid(g: Grid2D, x0: int, y0: int, size: int, level: int | None = None) -> Grid2D:
    """Extract a size x size block as a standalone grid."""
    if size < 1 or x0 < 0 or y0 < 0 or x0 + size > g.side or y0 + size > g.side:
        raise CoordinateError(
            f"block [{x0}, {x0 + size}) x [{y0}, {y0 + size}) outside grid of side {g.side}"
        )
    block = np.unpackbits(g.packed_rows()[y0:y0 + size], axis=1, count=x0 + size)[:, x0:]
    return Grid2D(size, np.packbits(block, axis=1), level=level)


_CORNERS = ("NW", "NE", "SW", "SE")


def corner_subgrid(g: Grid2D, corner: str) -> Grid2D:
    """Return the pell(n-1)-sided corner block of a level-n grid (n >= 2)."""
    if corner not in _CORNERS:
        raise ValueError(f"corner must be one of {_CORNERS}, got {corner!r}")
    if g.level is None or g.level < 2:
        raise ValueError(f"corner blocks need a grid built at level >= 2, got level {g.level}")
    low_w = pell(g.level - 1)
    x0 = 0 if corner in ("NW", "SW") else g.side - low_w
    y0 = 0 if corner in ("NW", "NE") else g.side - low_w
    return subgrid(g, x0, y0, low_w, level=g.level - 1)
