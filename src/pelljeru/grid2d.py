"""Integer Jerusalem squares, with the band descents and packed grid shared with 3D.

At level n the square of side ``pell(n)`` splits both axes into three bands
of widths pell(n-1) / pell(n-2) / pell(n-1).  The four corner blocks hold
level n-1 squares, the four edge blocks hold level n-2 squares flush against
the outer boundary, and the remaining central cross is removed.  Level 1 is
the filled unit square; level 0 is empty extent and is rejected outright.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .pell import N_MAX, PellIndexError, pell

# Dense-build memory guard: p_12 = 13860, about 24 MB bit-packed.  build2d(12)
# peaks at 28 MiB traced, 23 MiB of it the packed result.
MAX_BUILD_2D = 12


class CoordinateError(ValueError):
    """Raised for cell coordinates outside the grid."""


class BuildLimitError(ValueError):
    """Raised when a dense build would exceed the configured level guard."""


# Per level n >= 2: (low_w, hi0, mid_w, flush_hi).  Each axis splits into
# [0, low_w) / [low_w, hi0) / [hi0, side); edge blocks span [0, mid_w) or
# [flush_hi, side) on their non-mid axes.
_BANDS = [None, None] + [
    (pell(n - 1), pell(n - 1) + pell(n - 2), pell(n - 2), pell(n) - pell(n - 2))
    for n in range(2, N_MAX + 1)
]


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


def _popcount(rows: np.ndarray, other: np.ndarray | None = None) -> int:
    """Set bits of rows, or of rows ^ other, summed over blocks of rows.

    The blocks keep the XOR and popcount temporaries near 1 MiB; whole-array
    ones would be two more copies of a level-12 grid.
    """
    step = max(1, (1 << 20) // rows.shape[1])
    total = 0
    for i in range(0, len(rows), step):
        block = rows[i:i + step] if other is None else rows[i:i + step] ^ other[i:i + step]
        total += int(np.bitwise_count(block).sum())
    return total


class _Packed:
    """Dense grid of side ``side`` on D axes, bit-packed along x (MSB-first).

    Storage is one uint8 array indexed [..., y, packed-x], with z first in
    3D.  ``level`` records the construction level for built grids and is None
    for grids from other sources (rasterized models, parsed files).  Equality
    compares the class, side and cell contents only.  The packed bits are
    immutable; padding bits past ``side`` are zero (the constructor rejects
    others), which keeps the XOR/popcount paths exact.
    """

    __slots__ = ("side", "level", "_bits")

    def __init__(self, side: int, packed: np.ndarray, level: int | None = None):
        if side < 1:
            raise ValueError(f"grid side must be >= 1, got {side}")
        if packed.shape != (side,) * (self.D - 1) + ((side + 7) // 8,):
            raise ValueError(f"packed shape {packed.shape} does not match side {side}")
        self.side = side
        self.level = level
        # A writeable input is copied, so the caller keeps a writeable array
        # that cannot change the grid; a read-only one is kept as it is.
        copy = packed.flags.writeable or None
        bits = np.array(packed, dtype=np.uint8, order="C", copy=copy)
        if side % 8 and (bits[..., -1] & (0xFF >> side % 8)).any():
            raise ValueError(f"packed data sets padding bits past side {side}")
        bits.setflags(write=False)
        self._bits = bits

    @classmethod
    def from_bool_array(cls, cells: np.ndarray, level: int | None = None):
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != cls.D or len(set(cells.shape)) != 1:
            raise ValueError(f"expected {cls.D} axes of equal length, got shape {cells.shape}")
        return cls(cells.shape[0], np.packbits(cells, axis=-1), level=level)

    def to_bool_array(self) -> np.ndarray:
        """Boolean cells indexed [..., y, x], a view of fresh unpacked bits."""
        return np.unpackbits(self._bits, axis=-1, count=self.side).view(bool)

    def filled_count(self) -> int:
        return _popcount(self._bits.reshape(-1, self._bits.shape[-1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.side == other.side and np.array_equal(self._bits, other._bits)

    __hash__ = None  # content equality, so not hashable

    def __repr__(self) -> str:
        lvl = "" if self.level is None else f", level={self.level}"
        return f"{type(self).__name__}(side={self.side}{lvl}, filled={self.filled_count()})"


class Grid2D(_Packed):
    """Dense square bitmap with bit-packed rows (MSB-first, PBM P4 layout)."""

    __slots__ = ()
    D = 2

    def cell(self, x: int, y: int) -> bool:
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise CoordinateError(f"cell ({x}, {y}) outside [0, {self.side})^2")
        return bool(self._bits[y, x >> 3] & (0x80 >> (x & 7)))

    def row_bits(self, y: int) -> np.ndarray:
        """Unpacked boolean row y (length side)."""
        return np.unpackbits(self._bits[y], count=self.side).view(bool)

    def packed_rows(self) -> np.ndarray:
        """Read-only (side, ceil(side/8)) uint8 rows, MSB leftmost."""
        return self._bits

    def difference_count(self, other: "Grid2D") -> int:
        """Number of cells on which the two grids differ."""
        if self.side != other.side:
            raise ValueError(f"grid sides differ: {self.side} vs {other.side}")
        return _popcount(self._bits, other._bits)


# Nodes at or below this level stamp a memoized boolean figure, which keeps the
# many small nodes out of the Python loop: the largest level whose figure has
# at most 2**15 cells (7 in 2D, 5 in 3D).
_STAMP_LEVEL = {d: max(m for m in range(1, N_MAX) if pell(m) ** d <= 1 << 15) for d in (2, 3)}


@functools.cache
def _figure(m: int, d: int) -> np.ndarray:
    """Boolean level-m figure on d axes, built by the descent from level 1 up."""
    if m == 1:
        return np.ones((1,) * d, dtype=bool)
    return np.unpackbits(_product_descent(m, d), axis=-1, count=pell(m)).view(bool)


def _product_descent(n: int, d: int) -> np.ndarray:
    """Read-only packed level-n figure on d axes, indexed [..., y, x], bits along x.

    A node is a level and, per axis, the start offsets of the copies it stands
    for; its copies are the product of those offsets.  A band step sends every
    corner block into one level m-1 node (offsets a and a + hi0 on each axis)
    and the edge blocks into d level m-2 nodes, mid on one axis (a + low_w)
    and flush on the others (a and a + flush_hi); the rest is cross.  A node at
    or below the stamp level packs its figure once at all its x offsets and
    ORs that into one slice per offset on the other axes.  The root splits
    unless it is level 1, so the stamped figures come from this loop too.
    """
    side = pell(n)
    out = np.zeros((side,) * (d - 1) + ((side + 7) // 8,), dtype=np.uint8)
    todo = [(n, [np.zeros(1, dtype=np.intp)] * d)]
    while todo:
        m, starts = todo.pop()
        if m == 1 or m < n and m <= _STAMP_LEVEL[d]:
            fig, s = _figure(m, d), pell(m)
            xs = (starts[-1][:, None] + np.arange(s)).ravel()
            lo = xs.min() >> 3
            line = np.zeros(fig.shape[:-1] + (8 * ((xs.max() >> 3) + 1 - lo),), dtype=bool)
            line[..., xs - 8 * lo] = np.tile(fig, len(starts[-1]))
            packed = np.packbits(line, axis=-1)
            cols = slice(lo, lo + packed.shape[-1])
            for origin in itertools.product(*starts[:-1]):
                out[tuple(slice(o, o + s) for o in origin) + (cols,)] |= packed
            continue
        low_w, hi0, mid_w, flush_hi = _BANDS[m]
        todo.append((m - 1, [np.concatenate((a, a + hi0)) for a in starts]))
        if mid_w:
            mid = [a + low_w for a in starts]
            flush = [np.concatenate((a, a + flush_hi)) for a in starts]
            todo += [(m - 2, flush[:i] + [mid[i]] + flush[i + 1:]) for i in range(d)]
    out.setflags(write=False)
    return out


def _build(cls, n: int, limit: int):
    """The dense level-n grid of class cls, guarded at level limit."""
    if not 1 <= n <= N_MAX:
        raise PellIndexError(f"dense build level {n} outside [1, {N_MAX}]")
    if n > limit:
        raise BuildLimitError(f"dense {cls.D}D build at level {n} exceeds the guard {limit}; "
                              "raise max_build to override")
    return cls(pell(n), _product_descent(n, cls.D), level=n)


def build2d(n: int, max_build: int | None = None) -> Grid2D:
    """Build the dense level-n grid by product descent (see _product_descent).

    The result agrees cell-for-cell with contains2d.
    """
    return _build(Grid2D, n, MAX_BUILD_2D if max_build is None else max_build)


def _block(g: _Packed, origin: tuple[int, ...], size: int, level: int | None):
    """The size-sided block of g at origin (x first) as a standalone grid."""
    if size < 1 or min(origin) < 0 or max(origin) + size > g.side:
        raise CoordinateError(f"block of size {size} at {origin} outside grid of side {g.side}")
    x0 = origin[0]
    window = tuple(slice(o, o + size) for o in reversed(origin[1:]))
    block = np.unpackbits(g._bits[window], axis=-1, count=x0 + size)[..., x0:]
    return type(g)(size, np.packbits(block, axis=-1), level=level)


def subgrid(g: Grid2D, x0: int, y0: int, size: int, level: int | None = None) -> Grid2D:
    """Extract a size x size block as a standalone grid."""
    return _block(g, (x0, y0), size, level)


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
