import hashlib

import numpy as np
import pytest

from pelljeru import (
    MAX_BUILD_2D,
    BuildLimitError,
    CoordinateError,
    N_MAX,
    Grid2D,
    Grid3D,
    build2d,
    build3d,
    contains2d,
    count2d_recurrence,
    corner_subgrid,
    PellIndexError,
    pell,
    subgrid,
)

# hand-checked against the published 5x5 picture: square minus plus-cross
P3_CELLS = np.array([
    [1, 1, 1, 1, 1],
    [1, 1, 0, 1, 1],
    [1, 0, 0, 0, 1],
    [1, 1, 0, 1, 1],
    [1, 1, 1, 1, 1],
], dtype=bool)

# Frozen sha256 of build2d(n).packed_rows() for every level up to the guard;
# every byte of the packed rows is pinned, padding included.
FROZEN_SHA256 = {
    1: "76be8b528d0075f7aae98d6fa57a6d3c83ae480a8469e668d7b0af968995ac71",
    2: "924d46482608156796c55cf9f59843a261c720c001d9859321523ca9c794151e",
    3: "2af38b4f1f943a85093a343147768f5754ff08e4335b57f7c425ed45f032291b",
    4: "9063eb877dbd10e701e67cee8fb0c5a4ccc02a3a3feb33003711ab5f4ff93c39",
    5: "cf10f91b8e2f2d4521c2887c32dbab104c1d9d7aea9950a579c533feeef73560",
    6: "e90438e682adb6ffa46abd2659ec22a32150b13329c0c338b81b22966a942193",
    7: "59b74e5b018e85bad191e5bea0a1a5bbb6c77c70c5319e907206883c2934d069",
    8: "415d87f2d3bcad6c9dbfb305a41a10ce669c61f8b2d30f20ff701caf5af94f92",
    9: "5665960ff1c4cfa52b0d9efcd736263e20d7284c196dfbfdd35ef94796c730ad",
    10: "05ab4ba07bd9a2521c1d62a962f154feb798b90d9d9312d0b654bfa6a05d4b3d",
    11: "2c94a270ff8235bfbbf43f4419c4c89448f7e4babefde77d9f874eaf603f7a47",
    12: "905e08e0e79b436e11e74f1fc8b0061664a7852f3a2e2fdc971554f786630ef7",
}


def test_contains_basics():
    assert contains2d(1, 0, 0) is True
    assert contains2d(3, 2, 2) is False
    assert contains2d(3, 2, 0) is True
    assert contains2d(3, 2, 1) is False  # cross arm between edge block and center


def test_contains_level3_full_pattern():
    got = np.array([[contains2d(3, x, y) for x in range(5)] for y in range(5)])
    assert np.array_equal(got, P3_CELLS)


def test_contains_guards():
    with pytest.raises(ValueError):
        contains2d(0, 0, 0)
    with pytest.raises(CoordinateError):
        contains2d(3, 5, 0)
    with pytest.raises(CoordinateError):
        contains2d(3, 0, -1)


def test_build_small_levels():
    g1 = build2d(1)
    assert g1.side == 1 and g1.filled_count() == 1
    g2 = build2d(2)
    assert g2.side == 2 and g2.filled_count() == 4
    assert np.array_equal(build2d(3).to_bool_array(), P3_CELLS)


def test_build_matches_classifier():
    for n in range(1, 7):
        g = build2d(n)
        ref = np.array([[contains2d(n, x, y) for x in range(g.side)] for y in range(g.side)])
        assert np.array_equal(g.to_bool_array(), ref), n


def test_build_guards():
    with pytest.raises(ValueError):
        build2d(0)
    with pytest.raises(BuildLimitError):
        build2d(MAX_BUILD_2D + 1)
    with pytest.raises(BuildLimitError):
        build2d(5, max_build=4)
    assert build2d(5, max_build=5).side == 29


def test_build_above_pell_cap_is_an_index_error():
    # no max_build can lift a build past the Pell index cap
    for limit in (None, N_MAX + 12):
        with pytest.raises(PellIndexError, match=rf"outside \[1, {N_MAX}\]"):
            build2d(N_MAX + 1, max_build=limit)


def test_symmetry():
    for n in range(2, 9):
        cells = build2d(n).to_bool_array()
        assert np.array_equal(cells, cells[::-1])
        assert np.array_equal(cells, cells[:, ::-1])
        assert np.array_equal(cells, np.rot90(cells))


def test_self_similarity_corners_and_edges():
    for n in range(3, 11):
        g = build2d(n)
        sub1 = build2d(n - 1)
        sub2 = build2d(n - 2)
        low_w, mid_w = pell(n - 1), pell(n - 2)
        hi0 = g.side - low_w
        for name in ("NW", "NE", "SW", "SE"):
            assert corner_subgrid(g, name) == sub1, (n, name)
        flush_hi = g.side - mid_w
        edge_origins = [(low_w, 0), (low_w, flush_hi), (0, low_w), (flush_hi, low_w)]
        for x0, y0 in edge_origins:
            assert subgrid(g, x0, y0, mid_w) == sub2, (n, x0, y0)


def test_top_level_cross_geometry():
    # the nine placed blocks leave exactly the plus-cross uncovered, and the
    # built grid is empty on all of it
    for n in range(3, 7):
        g = build2d(n)
        s = g.side
        low_w, mid_w = pell(n - 1), pell(n - 2)
        covered = np.zeros((s, s), dtype=bool)
        for y0, x0, w in [(a, b, low_w) for a in (0, s - low_w) for b in (0, s - low_w)]:
            covered[y0:y0 + w, x0:x0 + w] = True
        for x0, y0 in [(low_w, 0), (low_w, s - mid_w), (0, low_w), (s - mid_w, low_w)]:
            covered[y0:y0 + mid_w, x0:x0 + mid_w] = True
        cross = ~covered
        xs = np.arange(s)
        mid = (xs >= low_w) & (xs < low_w + mid_w)
        flush = (xs < mid_w) | (xs >= s - mid_w)
        expected = (mid[None, :] & ~flush[:, None] & ~mid[:, None]) \
            | (mid[:, None] & ~flush[None, :] & ~mid[None, :]) \
            | (mid[:, None] & mid[None, :])
        assert np.array_equal(cross, expected), n
        assert not g.to_bool_array()[cross].any(), n


def test_filled_counts_recurrence():
    counts = {n: build2d(n).filled_count() for n in range(1, MAX_BUILD_2D + 1)}
    assert counts[1] == 1 and counts[2] == 4
    for n in range(3, MAX_BUILD_2D + 1):
        assert counts[n] == 4 * counts[n - 1] + 4 * counts[n - 2]
    assert counts == {n: count2d_recurrence(n) for n in counts}
    assert counts[3] == 20 and counts[12] == 28385280


def test_build_digests_frozen():
    for n, digest in FROZEN_SHA256.items():
        assert hashlib.sha256(build2d(n).packed_rows().tobytes()).hexdigest() == digest, n


def test_build_matches_classifier_sample_at_guard():
    g = build2d(12)
    x, y = np.random.default_rng(12).integers(0, g.side, size=(2, 20000))
    got = (g.packed_rows()[y, x >> 3] >> (7 - (x & 7))) & 1
    ref = [contains2d(12, int(a), int(b)) for a, b in zip(x, y)]
    assert got.astype(bool).tolist() == ref
    assert 0 < sum(ref) < len(ref)


def test_grid_storage_and_access():
    g = build2d(3)
    rows = g.packed_rows()
    assert rows.shape == (5, 1) and rows.dtype == np.uint8
    # padding bits past the side must stay zero
    assert not (rows & np.uint8(0x07)).any()
    assert g.cell(0, 0) is True and g.cell(2, 2) is False
    assert np.array_equal(g.row_bits(2), np.array([1, 0, 0, 0, 1], dtype=bool))
    with pytest.raises(CoordinateError):
        g.cell(5, 0)


def test_grid_equality_and_diff():
    a = build2d(4)
    b = Grid2D.from_bool_array(a.to_bool_array())
    assert a == b
    assert a.difference_count(b) == 0
    flipped = a.to_bool_array().copy()
    flipped[0, 0] ^= True
    c = Grid2D.from_bool_array(flipped)
    assert a != c
    assert a.difference_count(c) == 1
    with pytest.raises(ValueError):
        a.difference_count(build2d(3))
    # one filled cell on two axes is not one filled voxel on three
    assert build2d(1) != build3d(1)


def test_from_bool_array_validation():
    with pytest.raises(ValueError):
        Grid2D.from_bool_array(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Grid2D.from_bool_array(np.ones((0, 0), dtype=bool))
    for shape in ((2, 3, 3), (3, 3), (0, 0, 0)):
        with pytest.raises(ValueError):
            Grid3D.from_bool_array(np.ones(shape, dtype=bool))


def test_nonzero_padding_bits_rejected():
    # side 3 leaves five padding bits per row; 0xFF would count 24 cells
    with pytest.raises(ValueError, match="padding"):
        Grid2D(3, np.full((3, 1), 0xFF, dtype=np.uint8))
    with pytest.raises(ValueError, match="padding"):
        Grid2D(9, np.zeros((9, 2), dtype=np.uint8) | np.array([0, 0x01], dtype=np.uint8))
    full = Grid2D(3, np.full((3, 1), 0xE0, dtype=np.uint8))
    assert full == Grid2D.from_bool_array(np.ones((3, 3), dtype=bool))
    assert full.filled_count() == 9
    assert Grid2D(8, np.full((8, 1), 0xFF, dtype=np.uint8)).filled_count() == 64


def test_subgrid_guards():
    g = build2d(4)
    with pytest.raises(CoordinateError):
        subgrid(g, 8, 0, 5)
    with pytest.raises(ValueError):
        subgrid(g, 0, 0, 0)
    with pytest.raises(ValueError):
        corner_subgrid(build2d(1), "NW")
    with pytest.raises(ValueError):
        corner_subgrid(g, "north")


def test_constructor_leaves_caller_array_writeable():
    a = np.full((3, 1), 0xE0, dtype=np.uint8)
    g = Grid2D(3, a)
    a[0, 0] = 0  # the grid holds its own copy
    assert a.flags.writeable
    assert g.filled_count() == 9
    frozen = build2d(5).packed_rows()
    assert Grid2D(29, frozen).packed_rows() is frozen  # read-only input is not copied


def test_rows_read_only():
    g = build2d(3)
    with pytest.raises(ValueError):
        g.packed_rows()[0, 0] = 0
