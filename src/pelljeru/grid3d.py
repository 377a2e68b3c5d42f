"""Integer Jerusalem cubes on pell(n)^3 voxel grids, built on grid2d's shared code.

Same band structure as the 2D squares, applied per axis: voxels mid-band on
two or more axes form the removed 3D cross, voxels mid-band on exactly one
axis land in one of 12 level n-2 edge blocks flush against the outer
boundary, and voxels mid-band on no axis land in one of 8 level n-1 corner
blocks.  Every boundary face of the cube then reproduces the 2D square.
"""

from __future__ import annotations

import numpy as np

from .grid2d import CoordinateError, Grid2D, _Packed, _block, _build, _descend
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


class Grid3D(_Packed):
    """Dense cubic voxel field, bit-packed along x (MSB-first).

    Storage is indexed [z, y, packed-x]; iteration order for exports is
    x fastest, then y, then z.
    """

    __slots__ = ()
    D = 3

    def voxel(self, x: int, y: int, z: int) -> bool:
        if not (0 <= x < self.side and 0 <= y < self.side and 0 <= z < self.side):
            raise CoordinateError(f"voxel ({x}, {y}, {z}) outside [0, {self.side})^3")
        return bool(self._bits[z, y, x >> 3] & (0x80 >> (x & 7)))

    def layer(self, z: int) -> Grid2D:
        """The z = const plane as a 2D grid indexed (x, y)."""
        if not 0 <= z < self.side:
            raise CoordinateError(f"layer {z} outside [0, {self.side})")
        return Grid2D(self.side, self._bits[z])

    def packed_planes(self) -> np.ndarray:
        return self._bits


def build3d(n: int, max_build: int | None = None) -> Grid3D:
    """Build the dense level-n voxel grid by product descent (see grid2d._product_descent)."""
    return _build(Grid3D, n, MAX_BUILD_3D if max_build is None else max_build)


def subgrid3(g: Grid3D, x0: int, y0: int, z0: int, size: int, level: int | None = None) -> Grid3D:
    """Extract a size^3 block as a standalone voxel grid."""
    return _block(g, (x0, y0, z0), size, level)
