import pytest

from crbmkit import bitspace, packing
from crbmkit.bitspace import CylinderSet, HammingBall, Star, State
from crbmkit.errors import CapExceeded, InfeasibleDepth
from crbmkit.packing import (
    STAR_CELLS,
    PackingSequence,
    build_packing,
    feasible_depths,
    k_coefficient,
    k_sandwich,
    p_coefficient,
    seq_values,
    universal_budget,
    validate_packing,
)


def test_seq_values_table_rows():
    v1 = seq_values(1)
    assert (v1.S, v1.F, v1.R, v1.resets_needed) == (1, 1, 1, 0)
    assert v1.K == 0.5 and v1.P == 0.5
    assert seq_values(2).F == 3 and seq_values(2).R == 1
    v3 = seq_values(3)
    assert (v3.F, v3.R) == (20, 4)
    assert seq_values(4).F == 284 and seq_values(4).R == 44
    v5 = seq_values(5)
    assert (v5.F, v5.R) == (8408, 1144)


def test_k_coefficient_limits():
    ks = [k_coefficient(r) for r in range(1, 60)]
    assert all(b <= a for a, b in zip(ks, ks[1:]))  # monotone decreasing
    assert 0.2258 <= k_coefficient(10 ** 5) <= 0.2268
    # the recurrence agrees with the exact ratio where both are cheap
    for r in range(1, 12):
        assert abs(k_coefficient(r) - seq_values(r).K) < 1e-13


def test_p_coefficient_limit():
    assert abs(p_coefficient(50) - 0.0269) <= 5e-4
    for r in range(1, 12):
        assert abs(p_coefficient(r) - seq_values(r).P) < 1e-13


def test_k_sandwich_brackets_k():
    # K(6) prod (1-(i-3)/2^i) <= K(r) <= K(6) prod (1-(i-4)/2^i)
    for r in (10, 100, 1000):
        lo, hi = k_sandwich(r)
        k = k_coefficient(r)
        assert lo - 1e-12 <= k <= hi + 1e-12
    # both printed roundings of K(6) are within tolerance of the true value
    k6 = k_coefficient(6)
    assert abs(k6 - 0.2442) <= 5e-4
    assert abs(k6 - 0.2445) <= 5e-4


def test_build_packing_small_cases():
    seq = build_packing(1, 1)
    assert len(seq.stars) == 1 and len(seq.resets) == 0
    assert validate_packing(seq).ok

    seq = build_packing(3, 1)
    assert len(seq.stars) == 4 and len(seq.resets) == 0
    assert all(s.cylinder.dimension == 1 for s in seq.stars)
    assert validate_packing(seq).ok

    seq = build_packing(6, 3)
    rep = validate_packing(seq)
    assert rep.ok
    assert rep.star_count == 20


def test_build_packing_star_counts():
    for k in range(1, 11):
        r = 1
        while r * (r + 1) // 2 <= k:
            v = seq_values(r)
            seq = build_packing(k, r)
            assert len(seq.stars) == (1 << (k - v.S)) * v.F
            r += 1


def test_build_packing_infeasible_depth():
    with pytest.raises(InfeasibleDepth):
        build_packing(2, 2)


def test_feasible_depths_and_the_depth_check_agree():
    assert [list(feasible_depths(k)) for k in (0, 1, 2, 3, 5, 6)] == [
        [], [1], [1], [1, 2], [1, 2], [1, 2, 3]]
    for k in range(8):
        for r in range(1, 5):
            if r in feasible_depths(k):
                continue
            message = f"k = {k} < S({r}) = {seq_values(r).S}"
            for call in (lambda: universal_budget(k, r, 2),
                         lambda: build_packing(k, r)):
                with pytest.raises(InfeasibleDepth) as exc:
                    call()
                assert str(exc.value) == message


def _first_refused_k(r):
    v = seq_values(r)
    k = v.S
    while (1 << (k - v.S)) * v.F * STAR_CELLS <= bitspace.MAX_CELLS:
        k += 1
    return k


@pytest.mark.parametrize("r", [1, 2, 3])
def test_build_packing_is_priced_on_its_stars(r, monkeypatch):
    # refused from the star count alone, before a single star is built
    k = _first_refused_k(r)
    stars = (1 << (k - seq_values(r).S)) * seq_values(r).F
    built = []
    monkeypatch.setattr(packing, "Star", lambda *a: built.append(a))
    with pytest.raises(CapExceeded) as exc:
        build_packing(k, r)
    assert str(exc.value).startswith(
        f"build_packing at (k, r) = ({k}, {r}) with {stars} stars needs "
        f"{stars * STAR_CELLS} cells")
    assert built == []
    if r == 2:
        assert k == 21  # where 2^k cells alone would still pass


def test_build_packing_admits_the_k_below_the_first_refused(monkeypatch):
    monkeypatch.setattr(bitspace, "MAX_CELLS", 2000)
    k = _first_refused_k(2)
    assert len(build_packing(k - 1, 2).stars) * STAR_CELLS <= 2000
    with pytest.raises(CapExceeded):
        build_packing(k, 2)


def _star(width, center, fixed):
    return Star(HammingBall(State(center, width)),
                CylinderSet.from_fixed(width, fixed))


def test_validate_rejects_overlapping_stars():
    bad = PackingSequence(
        k=2, r=1,
        stars=(_star(2, 0, {1: 0}), _star(2, 1, {0: 1})),
        resets=(),
    )
    rep = validate_packing(bad)
    assert not rep.ok
    assert any("overlaps" in v or "cover" in v for v in rep.violations)


def test_validate_hand_built_sequences_for_k3():
    # ball in the full cube, then an edge, then two singletons
    seq_a = PackingSequence(
        k=3, r=0,
        stars=(
            _star(3, 0, {}),
            _star(3, 3, {0: 1, 1: 1}),
            _star(3, 5, {0: 1, 1: 0, 2: 1}),
            _star(3, 6, {0: 0, 1: 1, 2: 1}),
        ),
        resets=(
            (1, CylinderSet.from_fixed(3, {0: 1, 1: 1})),
            (1, CylinderSet.from_fixed(3, {0: 1, 1: 0, 2: 1})),
            (1, CylinderSet.from_fixed(3, {0: 0, 1: 1, 2: 1})),
        ),
    )
    assert validate_packing(seq_a).ok

    # four parallel edges (this is build_packing(3, 1))
    seq_b = PackingSequence(
        k=3, r=1,
        stars=tuple(_star(3, c, {1: (c >> 1) & 1, 2: (c >> 2) & 1})
                    for c in (0, 2, 4, 6)),
        resets=(),
    )
    assert validate_packing(seq_b).ok

    # two 2-dimensional stars with singleton leftovers
    seq_c = PackingSequence(
        k=3, r=0,
        stars=(
            _star(3, 0, {2: 0}),
            _star(3, 3, {0: 1, 1: 1, 2: 0}),
            _star(3, 4, {2: 1}),
            _star(3, 7, {0: 1, 1: 1, 2: 1}),
        ),
        resets=(
            (1, CylinderSet.from_fixed(3, {0: 1, 1: 1, 2: 0})),
            (3, CylinderSet.from_fixed(3, {0: 1, 1: 1, 2: 1})),
        ),
    )
    assert validate_packing(seq_c).ok


def test_validate_names_each_violation_kind():
    ball = _star(2, 0, {})                 # members 0, 1, 2; cylinder: all
    point = _star(2, 3, {0: 1, 1: 1})      # member and cylinder: 3
    reset_point = (1, CylinderSet.from_fixed(2, {0: 1, 1: 1}))
    assert validate_packing(
        PackingSequence(2, 0, (ball, point), (reset_point,))).violations == ()
    # the ball's cylinder holds the point filled before it
    assert validate_packing(
        PackingSequence(2, 0, (point, ball), ())).violations == (
        "cylinder of star 1 intersects an earlier star",)
    # resetting the whole cube before the point un-fills the ball
    assert validate_packing(PackingSequence(
        2, 0, (ball, point), ((1, CylinderSet.full(2)),))).violations == (
        "reset before star 1 touches filled states",)
    # every kind at once comes out grouped by kind, each in star order
    rep = validate_packing(PackingSequence(
        3, 0, (_star(3, 3, {0: 1, 1: 1, 2: 0}), _star(3, 0, {2: 0}),
               _star(3, 3, {0: 1, 1: 1, 2: 0})),
        ((2, CylinderSet.from_fixed(3, {2: 0})),)))
    assert rep.violations == (
        "star 2 overlaps an earlier star",
        "stars do not cover the cube",
        "cylinder of star 1 intersects an earlier star",
        "cylinder of star 2 intersects an earlier star",
        "reset before star 2 touches filled states",
    )


def test_validate_catches_missing_reset():
    # the leaf star of build_packing(3, 2) is filled from dirtied rows if its
    # reset entry is dropped
    seq = build_packing(3, 2)
    stripped = PackingSequence(seq.k, seq.r, seq.stars, ())
    rep = validate_packing(stripped)
    assert not rep.ok
    assert any("non-clean" in v for v in rep.violations)
