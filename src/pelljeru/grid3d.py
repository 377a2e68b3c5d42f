"""Integer Jerusalem cubes on pell(n)^3 voxel grids.

Same band structure as the 2D squares, applied per axis: voxels mid-band on
two or more axes form the removed 3D cross, voxels mid-band on exactly one
axis land in one of 12 level n-2 edge blocks flush against the outer
boundary, and voxels mid-band on no axis land in one of 8 level n-1 corner
blocks.  Every boundary face of the cube then reproduces the 2D square.
"""

from __future__ import annotations

import numpy as np

from .grid2d import BuildLimitError, CoordinateError, Grid2D, _descend, _popcount, _product_descent
from .pell import N_MAX, PellIndexError, pell

# Dense-build memory guard: p_8 = 408, about 8.5 MB bit-packed.  build3d(8)
# peaks at 9 MiB traced and build3d(9) at 116 MiB, nearly all of it the result.
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
        # Copied when writeable, as in Grid2D.
        planes = np.array(packed, dtype=np.uint8, order="C", copy=packed.flags.writeable or None)
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
        return np.unpackbits(self._planes, axis=2, count=self.side).view(bool)

    def layer(self, z: int) -> Grid2D:
        """The z = const plane as a 2D grid indexed (x, y)."""
        if not 0 <= z < self.side:
            raise CoordinateError(f"layer {z} outside [0, {self.side})")
        return Grid2D(self.side, self._planes[z])

    def packed_planes(self) -> np.ndarray:
        return self._planes

    def filled_count(self) -> int:
        return _popcount(self._planes.reshape(-1, self._planes.shape[2]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid3D):
            return NotImplemented
        return self.side == other.side and np.array_equal(self._planes, other._planes)

    __hash__ = None  # content equality, so not hashable

    def __repr__(self) -> str:
        lvl = "" if self.level is None else f", level={self.level}"
        return f"Grid3D(side={self.side}{lvl}, filled={self.filled_count()})"


def build3d(n: int, max_build: int | None = None) -> Grid3D:
    """Build the dense level-n voxel grid by product descent (see grid2d._product_descent)."""
    limit = MAX_BUILD_3D if max_build is None else max_build
    if not 1 <= n <= N_MAX:
        raise PellIndexError(f"dense build level {n} outside [1, {N_MAX}]")
    if n > limit:
        raise BuildLimitError(
            f"dense 3D build at level {n} exceeds the guard {limit}; raise max_build to override"
        )
    return Grid3D(pell(n), _product_descent(n, 3), level=n)


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
