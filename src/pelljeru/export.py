"""Bit-exact writers and readers for the grid artifacts.

All writers take a binary sink (anything with a write(bytes) method), emit a
fully deterministic byte stream, and return the number of bytes written, so
the same grid always produces the same file byte for byte.
"""

from __future__ import annotations

import re

import numpy as np

from .formats import FORMATS_2D, FORMATS_3D
from .grid2d import Grid2D
from .grid3d import Grid3D
# Lines formatted per chunk of the text writers: large enough that the Python
# work per line is one slot of a tuple, small enough that no writer holds its
# whole output in memory.
_BLOCK = 4096
# ASCII whitespace, the bytes that bytes.split() and bytes.isspace() see
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\v\f\r")] = True


def _emit(sink, chunks) -> int:
    total = 0
    for chunk in chunks:
        sink.write(chunk)
        total += len(chunk)
    return total


def _lines(fmt: bytes, table: np.ndarray):
    """One line per table row; each block of lines is a single %-format."""
    for i in range(0, len(table), _BLOCK):
        block = table[i:i + _BLOCK]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


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
    # P4 packs rows MSB-first with zero padding, exactly our storage layout,
    # so the read-only rows go out as they are, without a copy.
    yield f"P4\n{grid.side} {grid.side}\n".encode("ascii")
    yield memoryview(grid.packed_rows()).cast("B")


def _svg_chunks(grid: Grid2D):
    s = grid.side
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {s} {s}">\n'
    ).encode("ascii")
    # argwhere walks [y, x] in C order: row-major rects
    yx = np.argwhere(grid.to_bool_array())
    yield from _lines(b'<rect x="%d" y="%d" width="1" height="1" fill="black"/>\n', yx[:, ::-1])
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
    # argwhere on [z, y, x] walks in C order, so lines come out sorted (z, y, x)
    return _lines(b"%d %d %d\n", np.argwhere(grid.to_bool_array())[:, ::-1])


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
_CORNERS = np.array([corners for corners, _ in _FACE_TABLE])
_NORMALS = np.array([normal for _, normal in _FACE_TABLE])


def surface_mesh(grid: Grid3D):
    """Boundary faces of the filled voxels as (vertices, triangles).

    Returns integer arrays: vertices (V, 3) of (x, y, z) in first-seen order,
    and triangles (T, 3) of 0-based vertex indices wound counterclockwise
    from outside.  Faces come voxel by voxel in (z, y, x) order, two
    triangles each.  Only faces between a filled voxel and an empty or
    out-of-bounds neighbor appear, so the mesh is exactly the solid's surface.
    """
    s = grid.side
    padded = np.zeros((s + 2, s + 2, s + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = grid.to_bool_array()
    # A point's key is its flat index in the padded array: a voxel's own, and
    # a corner's that of the voxel whose low corner it is.
    m = s + 2
    weights = (1, m, m * m)
    flat = padded.ravel()
    cell = np.flatnonzero(flat)
    voxel, face = np.nonzero(~flat[cell[:, None] + _NORMALS @ weights])
    keys = (cell[voxel, None] + (_CORNERS @ weights)[face]).ravel()
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # unique numbers the vertices by key; rank renumbers them by first appearance
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    key = uniq[order]
    verts = np.stack([key % m, key // m % m, key // (m * m)], axis=1) - 1
    return verts, rank[inverse].reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)


def _obj_chunks(grid: Grid3D):
    verts, tris = surface_mesh(grid)
    yield from _lines(b"v %d %d %d\n", verts)
    yield from _lines(b"f %d %d %d\n", tris + 1)


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


def read_pbm_ascii(data: bytes) -> Grid2D:
    """Parse a plain (P1) bitmap back into a grid.

    Tokens are separated by ASCII whitespace, a '#' comment runs to the end
    of its line anywhere in the stream, and bits may run together, as P1
    allows.  Width and height are read with int().
    """
    if b"#" in data:
        data = re.sub(rb"#[^\n]*", b"", data)
    parts = data.split(maxsplit=3)
    magic = parts[0] if parts else None
    if magic != b"P1":
        raise ValueError(f"not a plain PBM stream (magic {magic!r})")
    try:
        width, height = int(parts[1]), int(parts[2])
    except (IndexError, ValueError):
        raise ValueError("malformed PBM header") from None
    if width != height or width < 1:
        raise ValueError(f"expected square bitmap, got {width}x{height}")
    body = np.frombuffer(parts[3] if len(parts) > 3 else b"", dtype=np.uint8)
    body = body[~_SPACE[body]]
    bits = body - 48
    bad = bits > 1
    if bad.any():
        raise ValueError(f"bad PBM bit {chr(body[bad.argmax()])!r}")
    if len(bits) != width * height:
        raise ValueError(f"expected {width * height} bits, got {len(bits)}")
    return Grid2D(width, np.packbits(bits.reshape(height, width), axis=1))


def read_csv(data: bytes) -> Grid2D:
    """Parse comma-separated 0/1 rows back into a grid.

    Rows end in '\\n' or '\\r\\n' (the last may end the data instead), and
    lines that hold only whitespace are skipped.  Each cell is exactly one
    '0' or '1' with a single comma between cells: spaces, signs, leading
    zeros and underscores in a cell raise ValueError.
    """
    rows = [row for row in data.replace(b"\r\n", b"\n").split(b"\n") if row.strip()]
    if not rows:
        raise ValueError("empty CSV stream")
    side = len(rows)
    if any(len(row) != 2 * side - 1 for row in rows):
        raise ValueError("CSV rows do not form a square")
    table = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(side, 2 * side - 1)
    bits = table[:, ::2] - 48
    if (bits > 1).any() or (table[:, 1::2] != ord(",")).any():
        raise ValueError("CSV cells must be 0 or 1, separated by single commas")
    return Grid2D(side, np.packbits(bits, axis=1))
