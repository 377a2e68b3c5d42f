import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelljeru import Grid2D, build2d, build3d
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


# sha256 of the writers' bytes, frozen from the per-line encoders that the
# whole-array ones replaced
SVG_SHA256 = {
    1: "90eb522e9db4c84a5f7209ed5afd857611516396865d3bea50b09fcbff8fd0e6",
    2: "0a5789691f42a40464bd6d37a8618432fb0c165dd16322557ed5e560fe0ff511",
    3: "b2a72d732626fc75926e5176651f321d31e69e45b6fb0f4a98070e801da27449",
    4: "575e81dec42b19ce21185e0156a9074676ae4fcb713ba4519795a79b0ac34423",
    5: "826247c978a366939f67a57cdcbc32fd44b52ba16d12cdf54434781fbc67d343",
    6: "3cace74cc87c4d3016852f395aae52d2572bf1ac2d1fdd09caf6d30e34a52004",
    7: "f2e7dc62f368c9325b0c69a6acc23fe640b1bdac3fc48dae04c8a881e0796b88",
    8: "e471900e19e62abd30fcb4f8aa6e55db38465d220f07dfcc08d05794d199bfd4",
}
XYZ_SHA256 = {
    1: "a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
    2: "98b2c5fb5a5784741bde4d17c127e89427ffabbc98d806d3a6f79f5ccccc1e52",
    3: "7a927439fb2c4f84dfa2ca8b6b2fbd1f0939d63d3c193294418bf02868a331eb",
    4: "4f04e9f69a1a362b76cf66917dfe6208b064ab3e103eac46f63a8469f8b86a71",
    5: "9298014479c51911934724495e42a05ebdcea9ecffbb80633d675fbb09781047",
    6: "777094323de41fa18ccdf6cd868dd2821efdc466691620debf676da42fd28738",
}
OBJ_SHA256 = {
    1: "69eec30addbfff22a95ca11e88c7e1da494ae761ed288475e944b4d5124eadc6",
    2: "beed40bd528efef55a951da94ffec0fd4f22e5e2d792a69dedb983c870286610",
    3: "bda5fe2aea5bf1a8d9822636d838c9c881c17224bc0639c1ae1f3467339e368a",
    4: "d0a3693e8c31cf8349227fd1516002e5dfe1a2bd6ea08af01fdf04a60de355c4",
    5: "209b1d1acdc320cd2e18ba45f57b5e6ba6a1290e46da842ddf35a1da4c4c9177",
    6: "a076112fc2f4445bcb79e1c94d449337f0c41b481a8cdbc92782a20ee19eb642",
}


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
        # CRLF row ends, and blank lines anywhere, parse the same
        crlf = dump2d(g, "csv").replace(b"\n", b"\r\n")
        assert read_csv(b"\r\n" + crlf + b" \n\n") == g


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


def test_writer_digests_frozen():
    for n, digest in SVG_SHA256.items():
        assert hashlib.sha256(dump2d(build2d(n), "svg")).hexdigest() == digest, n
    for n in XYZ_SHA256:
        cube = build3d(n)
        assert hashlib.sha256(dump3d(cube, "xyz_text")).hexdigest() == XYZ_SHA256[n], n
        assert hashlib.sha256(dump3d(cube, "obj_mesh")).hexdigest() == OBJ_SHA256[n], n


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
    assert len(np.unique(verts, axis=0)) == len(verts)


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
    with pytest.raises(ValueError):
        read_csv(b"1;0\n0,1\n")


def test_pbm_reader_tolerates_comments_and_runs():
    data = b"P1\n# a comment\n2 2\n11\n1 0\n"
    g = read_pbm_ascii(data)
    assert g.cell(0, 0) and g.cell(1, 0) and g.cell(0, 1) and not g.cell(1, 1)


@st.composite
def random_grids(draw, max_side=64):
    side = draw(st.integers(1, max_side), label="side")
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), label="density")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return Grid2D.from_bool_array(np.random.default_rng(seed).random((side, side)) < density)


@settings(deadline=None)
@given(grid=random_grids())
def test_random_grids_round_trip(grid):
    assert read_pbm_ascii(dump2d(grid, "pbm_ascii")) == grid
    assert read_csv(dump2d(grid, "csv")) == grid


# one or more whitespace bytes and '#' comments; a comment may end the stream
PBM_SEPARATORS = st.lists(
    st.one_of(st.sampled_from([b" ", b"\t", b"\n", b"\v", b"\f", b"\r"]),
              st.binary(max_size=8).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")),
    min_size=1, max_size=3).map(b"".join)


@settings(deadline=None)
@given(grid=random_grids(), data=st.data())
def test_pbm_reader_ignores_whitespace_and_comments(grid, data):
    bits = "".join("1" if v else "0" for v in grid.to_bool_array().ravel()).encode()
    # P1 lets bits run together, so split them into runs at a few random cuts
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(bits)), max_size=12), label="cuts")))
    runs = [bits[a:b] for a, b in zip([0] + cuts, cuts + [len(bits)]) if a < b]
    tokens = [b"P1", str(grid.side).encode(), str(grid.side).encode(), *runs]
    stream = data.draw(st.one_of(st.just(b""), PBM_SEPARATORS), label="lead")
    for token in tokens:
        stream += token + data.draw(PBM_SEPARATORS)
    trailing_comment = data.draw(st.binary(max_size=8), label="tail").replace(b"\n", b"")
    assert read_pbm_ascii(stream + b"#" + trailing_comment) == grid


def read_or_value_error(read, data):
    try:
        out = read(data)
    except ValueError:
        return
    assert isinstance(out, Grid2D)


@settings(deadline=None)
@given(data=st.binary(max_size=64))
def test_readers_raise_only_value_error_on_noise(data):
    read_or_value_error(read_pbm_ascii, data)
    read_or_value_error(read_csv, data)
    read_or_value_error(read_pbm_ascii, b"P1 2 2 " + data)


@settings(deadline=None)
@given(grid=random_grids(max_side=8), fmt=st.sampled_from(["pbm_ascii", "csv"]),
       at=st.integers(0, 400), cut=st.integers(0, 4), junk=st.binary(max_size=4))
def test_readers_raise_only_value_error_on_damage(grid, fmt, at, cut, junk):
    data = dump2d(grid, fmt)
    at %= len(data) + 1
    read = read_pbm_ascii if fmt == "pbm_ascii" else read_csv
    read_or_value_error(read, data[:at] + junk + data[at + cut:])


@pytest.mark.parametrize("data", [
    b"1,0\n0, 1\n",      # space in a cell
    b"1,0\n0,1 \n",      # trailing space
    b"+1,0\n0,1\n",      # sign
    b"1,0\n0,-0\n",
    b"01,0\n0,1\n",      # leading zero
    b"0_0,1\n1,1\n",     # underscore
    b"1,0\r0,1\r",       # bare carriage returns end no row
])
def test_csv_reader_rejects_what_int_accepted(data):
    # each of these parsed with int() per cell, and now raises
    with pytest.raises(ValueError):
        read_csv(data)
