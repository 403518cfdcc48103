import pytest
from hypothesis import given, strategies as st

from crbmkit.bitspace import (
    CylinderSet,
    HammingBall,
    MAX_CELLS,
    Star,
    State,
    affine_rank,
    ball_members,
    check_cells,
    cylinder_members,
    hamming_distance,
    star_members,
)
from crbmkit.errors import CapExceeded, CenterNotInCylinder, WidthMismatch


def test_ball_members_examples():
    # unit strings are little-endian: "01" means unit1=0, unit2=1 -> index 2
    assert ball_members(HammingBall(State(0, 2))) == [0, 1, 2]
    assert ball_members(HammingBall(State(1, 1))) == [0, 1]
    # N=3 center 101 (units 1,3 on) -> index 5; size must be 4
    members = ball_members(HammingBall(State(5, 3)))
    brute = [v for v in range(8) if bin(v ^ 5).count("1") <= 1]
    assert members == brute
    assert len(members) == 4


def test_cylinder_members_examples():
    # N=3, unit 3 fixed to 0: lower half of the cube
    c = CylinderSet.from_fixed(3, {2: 0})
    assert cylinder_members(c) == [0, 1, 2, 3]
    # N=2 fully fixed to 11
    c = CylinderSet.from_fixed(2, {0: 1, 1: 1})
    assert cylinder_members(c) == [3]
    # free cylinder
    assert cylinder_members(CylinderSet.full(3)) == list(range(8))


def test_star_members_examples():
    full = Star(HammingBall(State(0, 3)), CylinderSet.full(3))
    assert star_members(full) == [0, 1, 2, 4]
    # cylinder fixing unit 3 to 0: two free directions remain
    s = Star(HammingBall(State(0, 3)), CylinderSet.from_fixed(3, {2: 0}))
    assert star_members(s) == [0, 1, 2]
    # 1-dimensional cylinder: an edge
    s = Star(HammingBall(State(0, 3)), CylinderSet.from_fixed(3, {1: 0, 2: 0}))
    assert star_members(s) == [0, 1]


def test_star_members_match_intersection():
    for center in range(8):
        for mask in range(8):
            values = center & mask
            star = Star(HammingBall(State(center, 3)),
                        CylinderSet(3, mask, values))
            ball = set(ball_members(star.ball))
            cyl = set(cylinder_members(star.cylinder))
            got = set(star_members(star))
            assert got == ball & cyl
            assert got <= ball and got <= cyl


def test_hamming_distance_examples():
    assert hamming_distance(State(0, 3), State(0, 3)) == 0
    assert hamming_distance(State(5, 3), State(2, 3)) == 3
    assert hamming_distance(State(0b0011, 4), State(0b0101, 4)) == 2


def test_width_errors():
    with pytest.raises(WidthMismatch):
        hamming_distance(State(0, 2), State(0, 3))
    with pytest.raises(CenterNotInCylinder):
        Star(HammingBall(State(0, 2)), CylinderSet.from_fixed(2, {0: 1}))
    with pytest.raises(ValueError):
        State(0, 0)


def test_wide_objects_construct():
    # a state or a cylinder is one int: its width allocates nothing
    assert State(1 << 39, 40).index == 1 << 39
    assert CylinderSet.full(40).dimension == 40


def test_check_cells_names_count_subject_and_limit():
    check_cells(MAX_CELLS, "at the limit")
    with pytest.raises(CapExceeded) as exc:
        check_cells(MAX_CELLS + 1, "one past")
    assert str(exc.value) == (f"one past needs {MAX_CELLS + 1} cells, above the "
                              f"limit MAX_CELLS = {MAX_CELLS}")


@pytest.mark.parametrize("width", [1, 4, 8, 12])
def test_enumerations_match_filters(width):
    center = (0x5A5A5A ^ width) & ((1 << width) - 1)
    ball = ball_members(HammingBall(State(center, width)))
    brute = [v for v in range(1 << width) if bin(v ^ center).count("1") <= 1]
    assert ball == brute
    mask = 0b101 & ((1 << width) - 1)
    cyl = CylinderSet(width, mask, center & mask)
    brute = [v for v in range(1 << width) if (v & mask) == (center & mask)]
    assert cylinder_members(cyl) == brute


def test_star_affine_independence():
    # member matrix with appended ones column has full rank for every star
    for center in range(8):
        for mask in range(8):
            star = Star(HammingBall(State(center, 3)),
                        CylinderSet(3, mask, center & mask))
            members = star_members(star)
            assert affine_rank(members, 3) == len(members)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_hamming_is_xor_popcount(width, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    d = hamming_distance(State(a, width), State(b, width))
    assert d == bin(a ^ b).count("1")
    assert d == hamming_distance(State(b, width), State(a, width))
