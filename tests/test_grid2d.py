import numpy as np
import pytest

from pelljeru import (
    MAX_BUILD_2D,
    Band,
    BandKind,
    BuildLimitError,
    CoordinateError,
    N_MAX,
    Grid2D,
    band_of,
    build2d,
    contains2d,
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


def test_band_of():
    assert band_of(0, 3) == Band(BandKind.LOW, 0)
    assert band_of(2, 3) == Band(BandKind.MID, 0)
    assert band_of(4, 3) == Band(BandKind.HIGH, 1)
    # 12 = 5 + 2 + 5 split at n=4
    assert band_of(4, 4) == Band(BandKind.LOW, 4)
    assert band_of(5, 4) == Band(BandKind.MID, 0)
    assert band_of(7, 4) == Band(BandKind.HIGH, 0)


def test_band_of_guards():
    with pytest.raises(CoordinateError):
        band_of(-1, 3)
    with pytest.raises(CoordinateError):
        band_of(5, 3)
    with pytest.raises(ValueError):
        band_of(0, 1)


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
    for n in range(3, 7):
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
    counts = {n: build2d(n).filled_count() for n in range(1, 8)}
    assert counts[1] == 1 and counts[2] == 4
    for n in range(3, 8):
        assert counts[n] == 4 * counts[n - 1] + 4 * counts[n - 2]
    assert counts[3] == 20


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


def test_from_bool_array_validation():
    with pytest.raises(ValueError):
        Grid2D.from_bool_array(np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Grid2D.from_bool_array(np.ones((0, 0), dtype=bool))


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


def test_rows_read_only():
    g = build2d(3)
    with pytest.raises(ValueError):
        g.packed_rows()[0, 0] = 0
