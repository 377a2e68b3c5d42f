"""Integer Jerusalem cubes on pell(n)^3 voxel grids.

Same band structure as the 2D squares, applied per axis: voxels mid-band on
two or more axes form the removed 3D cross, voxels mid-band on exactly one
axis land in one of 12 level n-2 edge blocks flush against the outer
boundary, and voxels mid-band on no axis land in one of 8 level n-1 corner
blocks.  Every boundary face of the cube then reproduces the 2D square.
"""

from __future__ import annotations

import numpy as np

from .grid2d import _BANDS, BuildLimitError, CoordinateError, Grid2D, _descend
from .pell import N_MAX, PellIndexError, pell

# Dense-build memory guard: p_8 = 408, about 8.5 MB bit-packed.
MAX_BUILD_3D = 8


def contains3d(n: int, x: int, y: int, z: int) -> bool:
    """Voxel membership at level n without building a grid."""
    if not 1 <= n <= N_MAX:
        raise PellIndexError(f"membership level {n} outside [1, {N_MAX}]")
    side = pell(n)
    if not (0 <= x < side and 0 <= y < side and 0 <= z < side):
        raise CoordinateError(f"voxel ({x}, {y}, {z}) outside [0, {side})^3 at level {n}")
    return _descend(n, (x, y, z))


class Grid3D:
    """Dense cubic voxel field, bit-packed along x (MSB-first).

    Storage is indexed [z, y, packed-x]; iteration order for exports is
    x fastest, then y, then z.  Packed padding bits past ``side`` are zero
    (the constructor rejects others).
    """

    __slots__ = ("side", "level", "_planes")

    def __init__(self, side: int, packed: np.ndarray, level: int | None = None):
        if side < 1:
            raise ValueError(f"grid side must be >= 1, got {side}")
        if packed.shape != (side, side, (side + 7) // 8):
            raise ValueError(f"packed shape {packed.shape} does not match side {side}")
        self.side = side
        self.level = level
        planes = np.ascontiguousarray(packed, dtype=np.uint8)
        if side % 8 and (planes[:, :, -1] & (0xFF >> side % 8)).any():
            raise ValueError(f"packed planes set padding bits past side {side}")
        planes.setflags(write=False)
        self._planes = planes

    @classmethod
    def from_bool_array(cls, voxels: np.ndarray, level: int | None = None) -> "Grid3D":
        voxels = np.asarray(voxels, dtype=bool)
        if voxels.ndim != 3 or len(set(voxels.shape)) != 1:
            raise ValueError(f"expected a cubic voxel array, got shape {voxels.shape}")
        return cls(voxels.shape[0], np.packbits(voxels, axis=2), level=level)

    def voxel(self, x: int, y: int, z: int) -> bool:
        if not (0 <= x < self.side and 0 <= y < self.side and 0 <= z < self.side):
            raise CoordinateError(f"voxel ({x}, {y}, {z}) outside [0, {self.side})^3")
        return bool(self._planes[z, y, x >> 3] & (0x80 >> (x & 7)))

    def to_bool_array(self) -> np.ndarray:
        """Boolean voxels indexed [z, y, x]."""
        return np.unpackbits(self._planes, axis=2, count=self.side).astype(bool)

    def layer(self, z: int) -> Grid2D:
        """The z = const plane as a 2D grid indexed (x, y)."""
        if not 0 <= z < self.side:
            raise CoordinateError(f"layer {z} outside [0, {self.side})")
        return Grid2D(self.side, self._planes[z].copy())

    def packed_planes(self) -> np.ndarray:
        return self._planes

    def filled_count(self) -> int:
        return int(np.bitwise_count(self._planes).sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid3D):
            return NotImplemented
        return self.side == other.side and np.array_equal(self._planes, other._planes)

    __hash__ = None  # content equality, so not hashable

    def __repr__(self) -> str:
        lvl = "" if self.level is None else f", level={self.level}"
        return f"Grid3D(side={self.side}{lvl}, filled={self.filled_count()})"


def _assemble_packed3(n: int, sub1: np.ndarray, sub2: np.ndarray | None) -> np.ndarray:
    """Stamp the 8 corner and 12 edge block positions of level n.

    sub1/sub2 are packed level n-1 / n-2 voxel fields.  Assembles one z-band
    slab at a time in unpacked booleans and repacks along x.
    """
    side = pell(n)
    low_w, hi0, mid_w, flush_hi = _BANDS[n]
    out = np.empty((side, side, (side + 7) // 8), dtype=np.uint8)

    corner = np.unpackbits(sub1, axis=2, count=low_w).astype(bool)
    edge = np.unpackbits(sub2, axis=2, count=mid_w).astype(bool) if mid_w else None

    slab = np.zeros((low_w, side, side), dtype=bool)  # indexed [z, y, x]
    for y0 in (0, hi0):
        for x0 in (0, hi0):
            slab[:, y0:y0 + low_w, x0:x0 + low_w] = corner
    if mid_w:
        # Edge blocks with x or y mid and z flush to the near face.
        for y0 in (0, flush_hi):
            slab[:mid_w, y0:y0 + mid_w, low_w:hi0] = edge
        for x0 in (0, flush_hi):
            slab[:mid_w, low_w:hi0, x0:x0 + mid_w] = edge
    out[:low_w] = np.packbits(slab, axis=2)

    if mid_w:
        # Same corners, edge blocks now flush to the far face.
        for y0 in (0, flush_hi):
            slab[:mid_w, y0:y0 + mid_w, low_w:hi0] = False
            slab[low_w - mid_w:, y0:y0 + mid_w, low_w:hi0] = edge
        for x0 in (0, flush_hi):
            slab[:mid_w, low_w:hi0, x0:x0 + mid_w] = False
            slab[low_w - mid_w:, low_w:hi0, x0:x0 + mid_w] = edge
    out[hi0:] = np.packbits(slab, axis=2)

    if mid_w:
        # z-mid slab: only the four edge blocks whose mid axis is z.
        mid_slab = np.zeros((mid_w, side, side), dtype=bool)
        for y0 in (0, flush_hi):
            for x0 in (0, flush_hi):
                mid_slab[:, y0:y0 + mid_w, x0:x0 + mid_w] = edge
        out[low_w:hi0] = np.packbits(mid_slab, axis=2)
    return out


def build3d(n: int, max_build: int | None = None) -> Grid3D:
    """Build the dense level-n voxel grid by recursive block stamping."""
    limit = MAX_BUILD_3D if max_build is None else max_build
    if not 1 <= n <= N_MAX:
        raise PellIndexError(f"dense build level {n} outside [1, {N_MAX}]")
    if n > limit:
        raise BuildLimitError(
            f"dense 3D build at level {n} exceeds the guard {limit}; raise max_build to override"
        )
    prev2: np.ndarray | None = None
    prev1 = np.array([[[0x80]]], dtype=np.uint8)  # level 1: one filled voxel
    for m in range(2, n + 1):
        prev2, prev1 = prev1, _assemble_packed3(m, prev1, prev2)
    return Grid3D(pell(n), prev1, level=n)


def subgrid3(g: Grid3D, x0: int, y0: int, z0: int, size: int, level: int | None = None) -> Grid3D:
    """Extract a size^3 block as a standalone voxel grid."""
    if size < 1 or min(x0, y0, z0) < 0 or max(x0, y0, z0) + size > g.side:
        raise CoordinateError(
            f"block of size {size} at ({x0}, {y0}, {z0}) outside grid of side {g.side}"
        )
    block = np.unpackbits(
        g.packed_planes()[z0:z0 + size, y0:y0 + size], axis=2, count=x0 + size
    )[:, :, x0:]
    return Grid3D(size, np.packbits(block, axis=2), level=level)
