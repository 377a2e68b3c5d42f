import io

import numpy as np
import pytest

from pelljeru import build2d, build3d
from pelljeru.export import (
    FORMATS_2D,
    FORMATS_3D,
    read_csv,
    read_pbm_ascii,
    surface_mesh,
    write,
    write2d,
    write3d,
)


def dump2d(grid, fmt):
    sink = io.BytesIO()
    count = write2d(grid, fmt, sink)
    data = sink.getvalue()
    assert count == len(data)
    return data


def dump3d(grid, fmt):
    sink = io.BytesIO()
    count = write3d(grid, fmt, sink)
    data = sink.getvalue()
    assert count == len(data)
    return data


def test_pbm_ascii_exact_bytes():
    assert dump2d(build2d(1), "pbm_ascii") == b"P1\n1 1\n1\n"
    assert dump2d(build2d(2), "pbm_ascii") == b"P1\n2 2\n1 1\n1 1\n"


def test_csv_rows():
    rows = dump2d(build2d(3), "csv").decode().splitlines()
    assert rows[0] == "1,1,1,1,1"
    assert rows[2] == "1,0,0,0,1"
    assert len(rows) == 5


def test_text_rows_match_per_cell_join():
    # the per-cell join that the packed-row encoder replaced, as a reference
    for n in (5, 6, 7):
        g = build2d(n)
        for fmt, sep, head in (("pbm_ascii", " ", f"P1\n{g.side} {g.side}\n"), ("csv", ",", "")):
            rows = (sep.join("1" if v else "0" for v in row) + "\n" for row in g.to_bool_array())
            assert dump2d(g, fmt) == (head + "".join(rows)).encode("ascii"), (n, fmt)


def test_pbm_binary_layout():
    data = dump2d(build2d(3), "pbm_binary")
    assert data.startswith(b"P4\n5 5\n")
    payload = data[len(b"P4\n5 5\n"):]
    assert len(payload) == 5  # one byte per 5-bit row
    assert payload[0] == 0b11111000
    assert payload[2] == 0b10001000
    # padding bits are zero in every row
    assert all(b & 0x07 == 0 for b in payload)


def test_svg_structure():
    g = build2d(3)
    text = dump2d(g, "svg").decode()
    assert 'viewBox="0 0 5 5"' in text
    assert text.count("<rect") == g.filled_count()
    assert text.count("fill=") == text.count('fill="black"')
    # row-major emission order
    import re
    coords = [(int(m.group(2)), int(m.group(1)))
              for m in re.finditer(r'<rect x="(\d+)" y="(\d+)"', text)]
    assert coords == sorted(coords)
    cells = g.to_bool_array()
    assert {(y, x) for y, x in coords} == {(int(y), int(x)) for y, x in np.argwhere(cells)}


def test_round_trips():
    for n in range(1, 5):
        g = build2d(n)
        assert read_pbm_ascii(dump2d(g, "pbm_ascii")) == g
        assert read_csv(dump2d(g, "csv")) == g


def test_raster_grid_round_trips_too():
    from pelljeru import ExactModel, rasterize_exact
    r = rasterize_exact(ExactModel(depth=2), 13)
    assert read_pbm_ascii(dump2d(r, "pbm_ascii")) == r


def test_determinism():
    for fmt in FORMATS_2D:
        g = build2d(4)
        assert dump2d(g, fmt) == dump2d(build2d(4), fmt), fmt
    for fmt in FORMATS_3D:
        g = build3d(3)
        assert dump3d(g, fmt) == dump3d(build3d(3), fmt), fmt


def test_xyz_exact_output():
    assert dump3d(build3d(1), "xyz_text") == b"0 0 0\n"
    lines = dump3d(build3d(2), "xyz_text").decode().splitlines()
    assert len(lines) == 8
    assert lines[0] == "0 0 0" and lines[-1] == "1 1 1"


def test_xyz_sorted_and_complete():
    g = build3d(3)
    lines = dump3d(g, "xyz_text").decode().splitlines()
    assert len(lines) == g.filled_count() == 76
    triples = [tuple(map(int, ln.split())) for ln in lines]
    keys = [(z, y, x) for x, y, z in triples]
    assert keys == sorted(keys)
    assert all(g.voxel(x, y, z) for x, y, z in triples)


def mesh_edge_multiset(tris):
    edges = {}
    for a, b, c in tris:
        for e in ((a, b), (b, c), (c, a)):
            edges[e] = edges.get(e, 0) + 1
    return edges


def test_mesh_solid_block():
    verts, tris = surface_mesh(build3d(2))
    # 2x2x2 solid: the shell is 6 faces of 4 unit quads, two triangles each
    assert len(tris) == 48
    assert len(verts) == 26  # full 3x3x3 lattice minus the body center
    assert len(set(verts)) == len(verts)


def test_mesh_watertight_and_oriented():
    # level 3 has three orthogonal tunnels meeting at the center, so its
    # boundary is a genus-5 surface; levels 1 and 2 are solid blocks
    euler = {1: 2, 2: 2, 3: -8}
    for n in (1, 2, 3):
        g = build3d(n)
        verts, tris = surface_mesh(g)
        edges = mesh_edge_multiset(tris)
        # each directed edge once, each undirected edge in both directions
        assert all(c == 1 for c in edges.values()), n
        assert all((b, a) in edges for (a, b) in edges), n
        assert len(verts) - len(edges) // 2 + len(tris) == euler[n], n
        # outward winding: signed volume equals the filled voxel count
        vol = 0
        for a, b, c in tris:
            va, vb, vc = verts[a], verts[b], verts[c]
            vol += np.linalg.det(np.array([va, vb, vc], dtype=np.float64))
        assert round(vol / 6) == g.filled_count(), n


def test_obj_text_form():
    lines = dump3d(build3d(2), "obj_mesh").decode().splitlines()
    v_lines = [ln for ln in lines if ln.startswith("v ")]
    f_lines = [ln for ln in lines if ln.startswith("f ")]
    assert len(v_lines) + len(f_lines) == len(lines)
    assert len(v_lines) == 26 and len(f_lines) == 48
    assert v_lines[0] == "v 0 0 0"
    for ln in f_lines:
        ids = [int(t) for t in ln.split()[1:]]
        assert len(ids) == 3
        assert all(1 <= i <= len(v_lines) for i in ids)


def test_unknown_formats_rejected():
    with pytest.raises(ValueError):
        write2d(build2d(2), "png", io.BytesIO())
    with pytest.raises(ValueError):
        write3d(build3d(2), "stl", io.BytesIO())


def test_write_dispatch():
    sink = io.BytesIO()
    assert write(build2d(1), "pbm_ascii", sink) == len(b"P1\n1 1\n1\n")
    assert write(build3d(1), "xyz_text", io.BytesIO()) == len(b"0 0 0\n")
    with pytest.raises(TypeError):
        write("grid", "csv", io.BytesIO())


def test_reader_rejects_malformed():
    with pytest.raises(ValueError):
        read_pbm_ascii(b"P4\n1 1\n1\n")
    with pytest.raises(ValueError):
        read_pbm_ascii(b"P1\n2 3\n0 0 0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pbm_ascii(b"P1\n1 1\n7\n")
    with pytest.raises(ValueError):
        read_pbm_ascii(b"P1\n2 2\n1 1 1\n")
    with pytest.raises(ValueError):
        read_csv(b"")
    with pytest.raises(ValueError):
        read_csv(b"1,0\n1\n")
    with pytest.raises(ValueError):
        read_csv(b"1,2\n0,1\n")


def test_pbm_reader_tolerates_comments_and_runs():
    data = b"P1\n# a comment\n2 2\n11\n1 0\n"
    g = read_pbm_ascii(data)
    assert g.cell(0, 0) and g.cell(1, 0) and g.cell(0, 1) and not g.cell(1, 1)
