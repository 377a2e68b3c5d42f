"""Bit-exact writers and readers for the grid artifacts.

All writers take a binary sink (anything with a write(bytes) method), emit a
fully deterministic byte stream, and return the number of bytes written, so
the same grid always produces the same file byte for byte.
"""

from __future__ import annotations

import numpy as np

from .grid2d import Grid2D
from .grid3d import Grid3D

FORMATS_2D = ("pbm_ascii", "pbm_binary", "svg", "csv")
FORMATS_3D = ("xyz_text", "obj_mesh")


def _emit(sink, chunks) -> int:
    total = 0
    for chunk in chunks:
        sink.write(chunk)
        total += len(chunk)
    return total


def _text_rows(grid: Grid2D, sep: bytes):
    # One reused line: '0'/'1' in the even slots, sep in the odd, '\n' last.
    side = grid.side
    line = np.full(2 * side, sep[0], dtype=np.uint8)
    line[-1] = ord("\n")
    for packed in grid.packed_rows():
        np.add(np.unpackbits(packed, count=side), 48, out=line[::2])
        yield line.tobytes()


def _pbm_ascii_chunks(grid: Grid2D):
    yield f"P1\n{grid.side} {grid.side}\n".encode("ascii")
    yield from _text_rows(grid, b" ")


def _pbm_binary_chunks(grid: Grid2D):
    # P4 packs rows MSB-first with zero padding, exactly our storage layout.
    yield f"P4\n{grid.side} {grid.side}\n".encode("ascii")
    yield grid.packed_rows().tobytes()


def _svg_chunks(grid: Grid2D):
    s = grid.side
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {s} {s}">\n'
    ).encode("ascii")
    cells = grid.to_bool_array()
    for y in range(s):
        xs = np.nonzero(cells[y])[0]
        for x in xs:
            yield f'<rect x="{x}" y="{y}" width="1" height="1" fill="black"/>\n'.encode("ascii")
    yield b"</svg>\n"


def write2d(grid: Grid2D, fmt: str, sink) -> int:
    """Serialize a 2D grid; returns bytes written."""
    if fmt == "pbm_ascii":
        return _emit(sink, _pbm_ascii_chunks(grid))
    if fmt == "pbm_binary":
        return _emit(sink, _pbm_binary_chunks(grid))
    if fmt == "svg":
        return _emit(sink, _svg_chunks(grid))
    if fmt == "csv":
        return _emit(sink, _text_rows(grid, b","))
    raise ValueError(f"unknown 2D format {fmt!r}, expected one of {FORMATS_2D}")


def _xyz_chunks(grid: Grid3D):
    occ = grid.to_bool_array()
    # argwhere on [z, y, x] walks in C order, so lines come out sorted (z, y, x)
    for z, y, x in np.argwhere(occ):
        yield f"{x} {y} {z}\n".encode("ascii")


# Quad corner offsets per face direction, wound counterclockwise as seen from
# outside the voxel.  Order of emission per voxel: -x, +x, -y, +y, -z, +z.
_FACE_TABLE = (
    (((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)), (-1, 0, 0)),
    (((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)), (1, 0, 0)),
    (((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)), (0, -1, 0)),
    (((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)), (0, 1, 0)),
    (((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)), (0, 0, -1)),
    (((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)), (0, 0, 1)),
)


def surface_mesh(grid: Grid3D):
    """Boundary faces of the filled voxels as (vertices, triangles).

    Vertices are integer (x, y, z) triples in first-seen order; triangles are
    0-based index triples wound counterclockwise from outside.  Only faces
    between a filled voxel and an empty or out-of-bounds neighbor appear, so
    the mesh is exactly the solid's surface.
    """
    occ = grid.to_bool_array()
    s = grid.side
    padded = np.zeros((s + 2, s + 2, s + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = occ
    vert_index: dict[tuple[int, int, int], int] = {}
    verts: list[tuple[int, int, int]] = []
    tris: list[tuple[int, int, int]] = []

    def vid(p):
        i = vert_index.get(p)
        if i is None:
            i = len(verts)
            vert_index[p] = i
            verts.append(p)
        return i

    for z, y, x in np.argwhere(occ):
        x, y, z = int(x), int(y), int(z)
        for corners, (dx, dy, dz) in _FACE_TABLE:
            if padded[z + 1 + dz, y + 1 + dy, x + 1 + dx]:
                continue
            ids = [vid((x + cx, y + cy, z + cz)) for cx, cy, cz in corners]
            tris.append((ids[0], ids[1], ids[2]))
            tris.append((ids[0], ids[2], ids[3]))
    return verts, tris


def _obj_chunks(grid: Grid3D):
    verts, tris = surface_mesh(grid)
    for x, y, z in verts:
        yield f"v {x} {y} {z}\n".encode("ascii")
    for a, b, c in tris:
        yield f"f {a + 1} {b + 1} {c + 1}\n".encode("ascii")


def write3d(grid: Grid3D, fmt: str, sink) -> int:
    """Serialize a 3D grid; returns bytes written."""
    if fmt == "xyz_text":
        return _emit(sink, _xyz_chunks(grid))
    if fmt == "obj_mesh":
        return _emit(sink, _obj_chunks(grid))
    raise ValueError(f"unknown 3D format {fmt!r}, expected one of {FORMATS_3D}")


def write(grid, fmt: str, sink) -> int:
    """Dispatch on grid dimensionality."""
    if isinstance(grid, Grid2D):
        return write2d(grid, fmt, sink)
    if isinstance(grid, Grid3D):
        return write3d(grid, fmt, sink)
    raise TypeError(f"expected Grid2D or Grid3D, got {type(grid).__name__}")


def _pbm_tokens(data: bytes):
    # whitespace-separated tokens with '#' comments running to end of line
    i, n = 0, len(data)
    while i < n:
        c = data[i:i + 1]
        if c == b"#":
            while i < n and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield data[i:j]
            i = j


def read_pbm_ascii(data: bytes) -> Grid2D:
    """Parse a plain (P1) bitmap back into a grid."""
    toks = _pbm_tokens(data)
    magic = next(toks, None)
    if magic != b"P1":
        raise ValueError(f"not a plain PBM stream (magic {magic!r})")
    try:
        width = int(next(toks))
        height = int(next(toks))
    except (StopIteration, ValueError):
        raise ValueError("malformed PBM header") from None
    if width != height or width < 1:
        raise ValueError(f"expected square bitmap, got {width}x{height}")
    bits = []
    for t in toks:
        # P1 allows digits to run together; treat each character as a bit
        for ch in t:
            b = ch - 48
            if b not in (0, 1):
                raise ValueError(f"bad PBM bit {chr(ch)!r}")
            bits.append(b)
    if len(bits) != width * height:
        raise ValueError(f"expected {width * height} bits, got {len(bits)}")
    cells = np.array(bits, dtype=bool).reshape(height, width)
    return Grid2D.from_bool_array(cells)


def read_csv(data: bytes) -> Grid2D:
    """Parse comma-separated 0/1 rows back into a grid."""
    rows = []
    for line in data.decode("ascii").splitlines():
        if not line.strip():
            continue
        rows.append([int(v) for v in line.split(",")])
    if not rows:
        raise ValueError("empty CSV stream")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise ValueError("CSV rows do not form a square")
    if any(v not in (0, 1) for r in rows for v in r):
        raise ValueError("CSV cells must be 0 or 1")
    return Grid2D.from_bool_array(np.array(rows, dtype=bool))
