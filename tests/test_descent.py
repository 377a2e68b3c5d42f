"""Self-similarity of the point classifiers at every level up to N_MAX.

Dense builds stop at level 12 (2D) and 8 (3D); these properties reach the
band splits above that, where only the classifiers go.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelljeru import N_MAX, contains2d, contains3d, pell

CONTAINS = {2: contains2d, 3: contains3d}


def blocks(n, dims):
    """(origin, width, level) of every corner and flush edge block at level n."""
    side, low_w, mid_w = pell(n), pell(n - 1), pell(n - 2)
    out = [(o, low_w, n - 1) for o in itertools.product((0, side - low_w), repeat=dims)]
    for axis in range(dims):
        for flush in itertools.product((0, side - mid_w), repeat=dims - 1):
            out.append((flush[:axis] + (low_w,) + flush[axis:], mid_w, n - 2))
    return out


@pytest.mark.parametrize("dims, count", [(2, 4 + 4), (3, 8 + 12)])
@settings(deadline=None)
@given(data=st.data())
def test_blocks_repeat_lower_levels(dims, count, data):
    n = data.draw(st.integers(3, N_MAX), label="n")
    contains = CONTAINS[dims]
    placed = blocks(n, dims)
    assert len(placed) == count
    for origin, width, level in placed:
        offset = data.draw(st.tuples(*[st.integers(0, width - 1)] * dims), label="offset")
        cell = tuple(o + c for o, c in zip(origin, offset))
        assert contains(n, *cell) == contains(level, *offset), (n, origin, offset)


@pytest.mark.parametrize("dims", [2, 3])
@settings(deadline=None)
@given(data=st.data())
def test_cross_and_arms_are_empty(dims, data):
    # a cell with one mid-band axis and a second axis mid-band or in the
    # cross arm beside the edge block is removed, whatever the other axes
    n = data.draw(st.integers(3, N_MAX), label="n")
    side, low_w, mid_w = pell(n), pell(n - 1), pell(n - 2)
    mid = st.integers(low_w, low_w + mid_w - 1)
    arm = st.one_of(mid, st.integers(mid_w, low_w - 1), st.integers(low_w + mid_w, side - mid_w - 1))
    i, j = data.draw(st.permutations(range(dims)), label="axes")[:2]
    cell = [data.draw(st.integers(0, side - 1)) for _ in range(dims)]
    cell[i] = data.draw(mid, label="mid")
    cell[j] = data.draw(arm, label="arm")
    assert CONTAINS[dims](n, *cell) is False, (n, cell)
