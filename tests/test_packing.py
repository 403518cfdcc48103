import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crbmkit import bitspace, packing
from crbmkit.errors import CapExceeded, InfeasibleDepth
from crbmkit.packing import (
    STAR_CELLS,
    STATE_CELLS,
    PackingSequence,
    best_depth,
    build_packing,
    feasible_depths,
    k_coefficient,
    seq_values,
    universal_budget,
    validate_packing,
)


def k_sandwich(r):
    """Lower/upper products around K(r) for r >= 6, anchored at K(6)."""
    k6 = k_coefficient(6)
    lo = hi = k6
    for i in range(7, r + 1):
        lo *= 1.0 - (i - 3) / 2.0 ** i
        hi *= 1.0 - (i - 4) / 2.0 ** i
    return lo, hi


def test_seq_values_table_rows():
    v1 = seq_values(1)
    assert (v1.S, v1.F, v1.R, v1.paper_resets, v1.E) == (1, 1, 1, 0, 0)
    assert v1.K == 0.5 and v1.P == 0.5
    assert seq_values(2).F == 3 and seq_values(2).R == 1
    v3 = seq_values(3)
    assert (v3.F, v3.R) == (20, 4)
    assert seq_values(4).F == 284 and seq_values(4).R == 44
    v5 = seq_values(5)
    assert (v5.F, v5.R) == (8408, 1144)



def test_seq_values_ratios_are_correctly_rounded():
    # K = F / 2^S and P = R / 2^S as the nearest doubles to the exact ratios
    for r in range(1, 41):
        v = seq_values(r)
        assert v.K == float(Fraction(v.F, 2 ** v.S))
        assert v.P == float(Fraction(v.R, 2 ** v.S))

def test_k_coefficient_limits():
    ks = [k_coefficient(r) for r in range(1, 60)]
    assert all(b <= a for a, b in zip(ks, ks[1:]))  # monotone decreasing
    assert 0.2258 <= k_coefficient(10 ** 5) <= 0.2268
    # the recurrence agrees with the exact ratio where both are cheap
    for r in range(1, 12):
        assert abs(k_coefficient(r) - seq_values(r).K) < 1e-13


def test_p_coefficient_limit():
    assert abs(seq_values(50).P - 0.0269) <= 5e-4
    # P(r) = (1/2) prod_{i=2..r} (1 - (i+1)/2^i)
    p = 0.5
    for r in range(1, 12):
        assert abs(p - seq_values(r).P) < 1e-13
        p *= 1.0 - (r + 2) / 2.0 ** (r + 1)


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
    assert len(seq.centers) == 1 and len(seq.reset_positions) == 0
    assert validate_packing(seq).ok

    seq = build_packing(3, 1)
    assert len(seq.centers) == 4 and len(seq.reset_positions) == 0
    assert all(bin(f).count("1") == 1 for f in seq.free_masks.tolist())
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
            assert len(seq.centers) == (1 << (k - v.S)) * v.F
            assert len(seq.reset_positions) == v.E
            r += 1


def test_emitted_resets_exceed_the_paper_count_from_depth_3():
    # E(r) sums the lineage groups of levels 2..r; R(r) is the last of them
    assert [seq_values(r).E for r in range(1, 6)] == [0, 1, 8, 99, 2600]
    assert [seq_values(r).paper_resets for r in range(1, 6)] == [
        0, 1, 4, 44, 1144]
    assert universal_budget(8, 3, 2) == 80 + 8
    assert universal_budget(10, 4, 2) == 284 + 99
    # priced on E, the cheapest depth is 2 at (6, 1) and 3 at (6, 2), (8, 1)
    assert [best_depth(k, 1 << n) for k, n in [(6, 1), (6, 2), (8, 1)]] == [
        2, 3, 3]


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
    built = []  # _bad_patterns runs once each level's stars are built
    monkeypatch.setattr(packing, "_bad_patterns", lambda *a: built.append(a))
    with pytest.raises(CapExceeded) as exc:
        build_packing(k, r)
    assert str(exc.value).startswith(
        f"build_packing at (k, r) = ({k}, {r}) with {stars} stars needs "
        f"{stars * STAR_CELLS} cells")
    assert built == []
    if r == 2:
        assert k == 25  # where 2^k cells alone would still pass


def test_build_packing_admits_the_k_below_the_first_refused(monkeypatch):
    monkeypatch.setattr(bitspace, "MAX_CELLS", 2000)
    k = _first_refused_k(2)
    assert len(build_packing(k - 1, 2).centers) * STAR_CELLS <= 2000
    with pytest.raises(CapExceeded):
        build_packing(k, 2)


@pytest.mark.parametrize("k, r", [(16, 2), (16, 4)])
def test_build_packing_peak_is_within_its_price(k, r):
    tracemalloc.start()
    try:
        seq = build_packing(k, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(seq.centers) * STAR_CELLS * 8


def _reference_packing(k, r):
    """build_packing one star at a time: centers, free masks and resets
    (position, fixed_mask, fixed_values) as lists of ints."""
    centers, free_masks, resets = [], [], []
    lineages = [0]
    start = 0
    for level in range(1, r + 1):
        width = r - level + 1
        work = ((1 << width) - 1) << start
        rest = start + width
        if level >= 2:
            resets += [(len(centers), (1 << start) - 1, lin) for lin in lineages]
        for lin in lineages:
            for tail in range(1 << (k - rest)):
                centers.append(lin | (tail << rest))
                free_masks.append(work)
        star = {0} | {1 << t for t in range(width)}
        lineages = [lin | (pat << start) for lin in lineages
                    for pat in range(1 << width) if pat not in star]
        start = rest
    return centers, free_masks, resets


@pytest.mark.parametrize("k, r", [(k, r) for k in range(1, 13)
                                  for r in feasible_depths(k)] + [(16, 4)])
def test_build_packing_matches_the_per_star_loop(k, r):
    seq = build_packing(k, r)
    centers, free_masks, resets = _reference_packing(k, r)
    arrays = (seq.centers, seq.free_masks, seq.reset_positions,
              seq.reset_masks, seq.reset_values)
    assert all(a.dtype == np.int64 for a in arrays)
    assert seq.centers.tolist() == centers
    assert seq.free_masks.tolist() == free_masks
    assert list(zip(seq.reset_positions.tolist(), seq.reset_masks.tolist(),
                    seq.reset_values.tolist())) == resets


def _seq(k, r, stars, resets=()):
    """A hand-built sequence: stars as (center, free_mask), resets as
    (position, fixed_mask, fixed_values)."""
    centers, free_masks = np.array(stars, dtype=np.int64).reshape(-1, 2).T
    positions, masks, values = np.array(resets, dtype=np.int64).reshape(-1, 3).T
    return PackingSequence(k, r, centers, free_masks, positions, masks, values)


def test_validate_rejects_overlapping_stars():
    bad = _seq(2, 1, [(0, 0b01), (1, 0b10)])
    rep = validate_packing(bad)
    assert not rep.ok
    assert any("overlaps" in v or "cover" in v for v in rep.violations)


def test_validate_hand_built_sequences_for_k3():
    # ball in the full cube, then an edge, then two singletons
    seq_a = _seq(3, 0, [(0, 0b111), (3, 0b100), (5, 0), (6, 0)],
                 [(1, 0b011, 0b011), (1, 0b111, 0b101), (1, 0b111, 0b110)])
    assert validate_packing(seq_a).ok

    # four parallel edges (this is build_packing(3, 1))
    seq_b = _seq(3, 1, [(c, 0b001) for c in (0, 2, 4, 6)])
    assert validate_packing(seq_b).ok

    # two 2-dimensional stars with singleton leftovers
    seq_c = _seq(3, 0, [(0, 0b011), (3, 0), (4, 0b011), (7, 0)],
                 [(1, 0b111, 0b011), (3, 0b111, 0b111)])
    assert validate_packing(seq_c).ok


def test_validate_names_each_violation_kind():
    ball = (0, 0b11)                       # members 0, 1, 2; cylinder: all
    point = (3, 0)                         # member and cylinder: 3
    reset_point = (1, 0b11, 0b11)
    assert validate_packing(
        _seq(2, 0, [ball, point], [reset_point])).violations == ()
    # the ball's cylinder holds the point filled before it
    assert validate_packing(_seq(2, 0, [point, ball])).violations == (
        "cylinder of star 1 intersects an earlier star",)
    # resetting the whole cube before the point un-fills the ball
    assert validate_packing(
        _seq(2, 0, [ball, point], [(1, 0, 0)])).violations == (
        "reset before star 1 touches filled states",)
    # every kind at once comes out grouped by kind, each in star order
    rep = validate_packing(
        _seq(3, 0, [(3, 0), (0, 0b011), (3, 0)], [(2, 0b100, 0)]))
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
    none = np.zeros(0, dtype=np.int64)
    stripped = dataclasses.replace(seq, reset_positions=none,
                                   reset_masks=none, reset_values=none)
    rep = validate_packing(stripped)
    assert not rep.ok
    assert any("non-clean" in v for v in rep.violations)


def test_validate_packing_is_priced_on_the_cube(monkeypatch):
    seq = build_packing(7, 1)
    cells = (1 << 7) * STATE_CELLS
    monkeypatch.setattr(bitspace, "MAX_CELLS", cells - 1)
    with pytest.raises(CapExceeded) as exc:
        validate_packing(seq)
    assert str(exc.value).startswith(
        f"validate_packing at k = 7 needs {cells} cells")
    monkeypatch.setattr(bitspace, "MAX_CELLS", cells)
    assert validate_packing(seq).ok


@pytest.mark.parametrize("k, r", [(13, 4), (15, 5)])
def test_validate_packing_peak_is_within_its_price(k, r):
    seq = build_packing(k, r)
    tracemalloc.start()
    try:
        assert validate_packing(seq).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << k) * STATE_CELLS * 8
