import itertools

import numpy as np
import pytest

from pelljeru import (
    MAX_BUILD_3D,
    BuildLimitError,
    CoordinateError,
    Grid3D,
    N_MAX,
    build2d,
    build3d,
    contains3d,
    PellIndexError,
    pell,
    subgrid3,
)

# Level-3 voxel set as hand-listed in an unrelated published rendering
# script for the same solid (5x5x5 subdivision, 76 cubes kept); serves as
# an implementation-independent oracle.
LEVEL3_VOXELS = {
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (0, 1, 0), (1, 1, 0), (3, 1, 0), (4, 1, 0), (0, 2, 0),
    (4, 2, 0), (0, 3, 0), (1, 3, 0), (3, 3, 0), (4, 3, 0), (0, 4, 0), (1, 4, 0), (2, 4, 0), (3, 4, 0), (4, 4, 0),
    (0, 0, 1), (1, 0, 1), (3, 0, 1), (4, 0, 1), (0, 1, 1), (1, 1, 1), (3, 1, 1), (4, 1, 1), (0, 3, 1), (1, 3, 1),
    (3, 3, 1), (4, 3, 1), (0, 4, 1), (1, 4, 1), (3, 4, 1), (4, 4, 1), (0, 0, 2), (4, 0, 2), (0, 4, 2), (4, 4, 2),
    (0, 0, 3), (1, 0, 3), (3, 0, 3), (4, 0, 3), (0, 1, 3), (1, 1, 3), (3, 1, 3), (4, 1, 3), (0, 3, 3), (1, 3, 3),
    (3, 3, 3), (4, 3, 3), (0, 4, 3), (1, 4, 3), (3, 4, 3), (4, 4, 3), (0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4),
    (4, 0, 4), (0, 1, 4), (1, 1, 4), (3, 1, 4), (4, 1, 4), (0, 2, 4), (4, 2, 4), (0, 3, 4), (1, 3, 4), (3, 3, 4),
    (4, 3, 4), (0, 4, 4), (1, 4, 4), (2, 4, 4), (3, 4, 4), (4, 4, 4),
}


def test_contains_basics():
    assert contains3d(1, 0, 0, 0) is True
    assert contains3d(3, 2, 2, 2) is False  # body center, three mid axes
    assert contains3d(3, 2, 2, 0) is False  # two mid axes
    assert contains3d(3, 2, 0, 0) is True   # one mid axis, flush edge block


def test_contains_guards():
    with pytest.raises(ValueError):
        contains3d(0, 0, 0, 0)
    with pytest.raises(CoordinateError):
        contains3d(3, 0, 0, 5)
    with pytest.raises(CoordinateError):
        contains3d(3, -1, 0, 0)


def test_build_small():
    assert build3d(1).filled_count() == 1
    g2 = build3d(2)
    assert g2.side == 2 and g2.filled_count() == 8
    assert build3d(3).filled_count() == 76


def test_level3_matches_external_listing():
    occ = build3d(3).to_bool_array()
    got = {(int(x), int(y), int(z)) for z, y, x in np.argwhere(occ)}
    assert got == LEVEL3_VOXELS


def test_build_matches_classifier():
    for n in range(1, 5):
        g = build3d(n)
        s = g.side
        ref = np.array([[[contains3d(n, x, y, z) for x in range(s)]
                         for y in range(s)] for z in range(s)])
        assert np.array_equal(g.to_bool_array(), ref), n


def test_octahedral_symmetry():
    for n in range(2, 6):
        occ = build3d(n).to_bool_array()
        for perm in itertools.permutations(range(3)):
            t = np.transpose(occ, perm)
            for fz, fy, fx in itertools.product((1, -1), repeat=3):
                assert np.array_equal(occ, t[::fz, ::fy, ::fx]), (n, perm, fz, fy, fx)


def test_self_similarity():
    for n in range(3, 6):
        g = build3d(n)
        s = g.side
        sub1, sub2 = build3d(n - 1), build3d(n - 2)
        low_w, mid_w = pell(n - 1), pell(n - 2)
        hi1 = s - low_w
        for x0, y0, z0 in itertools.product((0, hi1), repeat=3):
            assert subgrid3(g, x0, y0, z0, low_w) == sub1, (n, x0, y0, z0)
        flush = (0, s - mid_w)
        origins = [(low_w, fy, fz) for fy in flush for fz in flush]
        origins += [(fx, low_w, fz) for fx in flush for fz in flush]
        origins += [(fx, fy, low_w) for fx in flush for fy in flush]
        assert len(origins) == 12
        for x0, y0, z0 in origins:
            assert subgrid3(g, x0, y0, z0, mid_w) == sub2, (n, x0, y0, z0)


def test_counts_recurrence():
    counts = {n: build3d(n).filled_count() for n in range(1, 6)}
    assert counts[1] == 1 and counts[2] == 8
    for n in range(3, 6):
        assert counts[n] == 8 * counts[n - 1] + 12 * counts[n - 2]


def test_boundary_faces_equal_2d():
    for n in range(2, 5):
        occ = build3d(n).to_bool_array()
        flat = build2d(n).to_bool_array()
        for face in (occ[0], occ[-1], occ[:, 0], occ[:, -1], occ[:, :, 0], occ[:, :, -1]):
            assert np.array_equal(face, flat), n


def test_layer_accessor():
    g = build3d(3)
    assert g.layer(0) == build2d(3)
    assert g.layer(2).filled_count() == 4
    with pytest.raises(CoordinateError):
        g.layer(5)


def test_voxel_accessor():
    g = build3d(3)
    assert g.voxel(2, 0, 0) is True
    assert g.voxel(2, 2, 2) is False
    with pytest.raises(CoordinateError):
        g.voxel(0, 0, 5)


def test_build_guards():
    with pytest.raises(ValueError):
        build3d(0)
    with pytest.raises(BuildLimitError):
        build3d(MAX_BUILD_3D + 1)
    with pytest.raises(BuildLimitError):
        build3d(4, max_build=3)
    assert build3d(4, max_build=4).side == 12


def test_build_above_pell_cap_is_an_index_error():
    # no max_build can lift a build past the Pell index cap
    for limit in (None, N_MAX + 12):
        with pytest.raises(PellIndexError, match=rf"outside \[1, {N_MAX}\]"):
            build3d(N_MAX + 1, max_build=limit)


def test_nonzero_padding_bits_rejected():
    # side 3 leaves five padding bits per x-row; 0xFF would count 72 voxels
    with pytest.raises(ValueError, match="padding"):
        Grid3D(3, np.full((3, 3, 1), 0xFF, dtype=np.uint8))
    full = Grid3D(3, np.full((3, 3, 1), 0xE0, dtype=np.uint8))
    assert full == Grid3D.from_bool_array(np.ones((3, 3, 3), dtype=bool))
    assert full.filled_count() == 27


def test_subgrid3_guards():
    g = build3d(3)
    with pytest.raises(CoordinateError):
        subgrid3(g, 3, 0, 0, 3)
    with pytest.raises(CoordinateError):
        subgrid3(g, 0, 0, 0, 0)
