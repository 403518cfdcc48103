import numpy as np
import pytest

from crbmkit.bitspace import (
    MAX_CELLS,
    affine_rank,
    ball_members,
    check_cells,
    check_width,
    cylinder_members,
    popcounts,
    set_bits,
    star_members,
    state_bits,
)
from crbmkit.errors import CapExceeded


def test_ball_members_examples():
    # unit strings are little-endian: "01" means unit1=0, unit2=1 -> index 2
    assert ball_members(0, 2) == [0, 1, 2]
    assert ball_members(1, 1) == [0, 1]
    # N=3 center 101 (units 1,3 on) -> index 5; size must be 4
    members = ball_members(5, 3)
    brute = [v for v in range(8) if bin(v ^ 5).count("1") <= 1]
    assert members == brute
    assert len(members) == 4


def test_cylinder_members_examples():
    # N=3, unit 3 fixed to 0: lower half of the cube
    assert cylinder_members(0b100, 0, 3) == [0, 1, 2, 3]
    # N=2 fully fixed to 11
    assert cylinder_members(0b11, 0b11, 2) == [3]
    # free cylinder
    assert cylinder_members(0, 0, 3) == list(range(8))


def test_star_members_examples():
    assert star_members(0, 0b111) == [0, 1, 2, 4]
    # cylinder fixing unit 3 to 0: two free directions remain
    assert star_members(0, 0b011) == [0, 1, 2]
    # 1-dimensional cylinder: an edge
    assert star_members(0, 0b001) == [0, 1]
    # no free direction: the center alone
    assert star_members(6, 0) == [6]


def test_star_members_match_intersection():
    for center in range(8):
        for free in range(8):
            ball = set(ball_members(center, 3))
            cyl = set(cylinder_members(7 & ~free, center & ~free, 3))
            got = set(star_members(center, free))
            assert got == ball & cyl
            assert got <= ball and got <= cyl


def test_width_errors():
    with pytest.raises(ValueError):
        check_width(0)
    check_width(1)


def test_wide_cubes_enumerate_only_members():
    # a state, a cylinder or a star is ints: its width allocates nothing
    top = 1 << 39
    assert star_members(top, 1) == [top, top | 1]
    assert ball_members(top, 40)[:3] == [0, top, top | 1]
    assert cylinder_members(((1 << 40) - 1) & ~0b110, top, 40) == [
        top, top | 2, top | 4, top | 6]
    assert set_bits(top | 5) == [0, 2, 39]


def test_check_cells_names_count_subject_and_limit():
    check_cells(MAX_CELLS, "at the limit")
    with pytest.raises(CapExceeded) as exc:
        check_cells(MAX_CELLS + 1, "one past")
    assert str(exc.value) == (f"one past needs {MAX_CELLS + 1} cells, above the "
                              f"limit MAX_CELLS = {MAX_CELLS}")


@pytest.mark.parametrize("width", [1, 4, 8, 12])
def test_enumerations_match_filters(width):
    center = (0x5A5A5A ^ width) & ((1 << width) - 1)
    ball = ball_members(center, width)
    brute = [v for v in range(1 << width) if bin(v ^ center).count("1") <= 1]
    assert ball == brute
    mask = 0b101 & ((1 << width) - 1)
    brute = [v for v in range(1 << width) if (v & mask) == (center & mask)]
    assert cylinder_members(mask, center & mask, width) == brute


def test_star_affine_independence():
    # member matrix with appended ones column has full rank for every star
    for center in range(8):
        for free in range(8):
            members = star_members(center, free)
            assert affine_rank(members, 3) == len(members)


@pytest.mark.parametrize("width", [1, 3, 6])
def test_state_bits_table_and_single_states(width):
    table = state_bits(width)
    assert table.shape == (1 << width, width) and table.dtype == float
    for v in range(1 << width):
        assert table[v].tolist() == [(v >> i) & 1 for i in range(width)]
        assert np.array_equal(state_bits(width, v), table[v])
    picked = [5 % (1 << width), 0, (1 << width) - 1]
    assert np.array_equal(state_bits(width, picked), table[picked])


def test_popcounts_is_bit_count():
    for width in range(13):
        table = popcounts(width)
        assert table.dtype == np.uint8 and not table.flags.writeable
        assert table.tolist() == [v.bit_count() for v in range(1 << width)]
