"""Recursive star packings of the Boolean cube and their counting sequences.

The construction splits {0,1}^k into 2^(k-S(r)) cylinder branches over S(r)
working coordinates, allocated as contiguous blocks of sizes r, r-1, ..., 1
(step i consumes block i).  At step i every branch is packed by cylinders
over block i; each cylinder contributes the star centered at its smallest
element, and the non-star block patterns spawn the next level's branches.

Counting sequences (exact integers, arbitrary precision):

    S(r) = 1 + 2 + ... + r
    F(r) = f_r(f_{r-1}(... f_2(f_1))),  f_i(z) = 2^S(i-1) + (2^i - (i+1)) z
    R(r) = prod_{i=2..r} (2^i - (i+1))
    K(r) = 2^-S(r) F(r),  P(r) = 2^-S(r) R(r)

K obeys K(r) = 2^-r + K(r-1)(1 - 2^-r (r+1)), which is how it is evaluated
in floating point for very large r.

The construction needs no resets at r = 1; at r = 2 it needs exactly R(2)
joint resets.  For r >= 3 the branch groups of *every* intermediate level
need a reset after their parent level's fills, so the emitted schedule has
sum_{i=2..r} prod_{j<i} sigma_j entries, which exceeds R(r); R remains the
leaf-level group count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitspace import (
    CylinderSet,
    HammingBall,
    Star,
    State,
    affine_rank,
    check_cells,
    cylinder_members,
    star_members,
)
from .errors import InfeasibleDepth


def s_value(r: int) -> int:
    return r * (r + 1) // 2


def f_value(r: int) -> int:
    f = 1
    for i in range(2, r + 1):
        f = (1 << s_value(i - 1)) + ((1 << i) - (i + 1)) * f
    return f


def r_value(r: int) -> int:
    prod = 1
    for i in range(2, r + 1):
        prod *= (1 << i) - (i + 1)
    return prod


@dataclass(frozen=True)
class SeqValues:
    r: int
    S: int
    F: int
    R: int
    resets_needed: int
    K: float
    P: float


def seq_values(r: int) -> SeqValues:
    """Exact S, F, R and float K, P for one recursion depth."""
    if r < 1:
        raise ValueError("r must be >= 1")
    s = s_value(r)
    f = f_value(r)
    rr = r_value(r)
    return SeqValues(
        r=r,
        S=s,
        F=f,
        R=rr,
        resets_needed=0 if r == 1 else rr,
        K=float(Fraction(f, 1 << s)),
        P=float(Fraction(rr, 1 << s)),
    )


def k_coefficient(r: int) -> float:
    """K(r) by the recurrence; usable far beyond exact-integer range."""
    if r < 1:
        raise ValueError("r must be >= 1")
    k = 0.5
    for i in range(2, r + 1):
        k = 2.0 ** -i + k * (1.0 - 2.0 ** -i * (i + 1))
    return k


def p_coefficient(r: int) -> float:
    """P(r) = (1/2) prod_{i=2..r} (1 - (i+1)/2^i)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    p = 0.5
    for i in range(2, r + 1):
        p *= 1.0 - (i + 1) / 2.0 ** i
    return p


def k_sandwich(r: int) -> tuple[float, float]:
    """Lower/upper products around K(r) for r >= 6, anchored at K(6)."""
    k6 = k_coefficient(6)
    lo = hi = k6
    for i in range(7, r + 1):
        lo *= 1.0 - (i - 3) / 2.0 ** i
        hi *= 1.0 - (i - 4) / 2.0 ** i
    return lo, hi


def universal_budget(k: int, r: int, components: int) -> int:
    """Hidden-unit budget 2^(k-S(r)) F(r) (M-1) + resets for M components."""
    s = s_value(r)
    if k < s:
        raise InfeasibleDepth(f"k = {k} < S({r}) = {s}")
    v = seq_values(r)
    return (1 << (k - s)) * v.F * (components - 1) + v.resets_needed


def best_depth(k: int, components: int) -> int:
    """Feasible r minimizing the budget (smallest r on ties)."""
    best_r, best_m = 1, None
    r = 1
    while s_value(r) <= k:
        m = universal_budget(k, r, components)
        if best_m is None or m < best_m:
            best_r, best_m = r, m
        r += 1
    return best_r


@dataclass(frozen=True)
class PackingSequence:
    """Ordered stars covering {0,1}^k plus the joint-reset schedule.

    ``resets`` holds (position, cylinder) pairs: the cylinder's rows are
    driven back to the start state just before the star at index ``position``
    is filled.
    """

    k: int
    r: int
    stars: tuple[Star, ...]
    resets: tuple[tuple[int, CylinderSet], ...]


def _bad_patterns(width: int) -> list[int]:
    """Block patterns not covered by the block's star (weight >= 2)."""
    stars = {0} | {1 << t for t in range(width)}
    return [p for p in range(1 << width) if p not in stars]


def build_packing(k: int, r: int) -> PackingSequence:
    """The recursive star packing sequence with 2^(k-S(r)) F(r) stars."""
    s = s_value(r)
    if k < s:
        raise InfeasibleDepth(f"k = {k} < S({r}) = {s}")
    check_cells(1 << k, f"build_packing at k = {k}")

    # block i (1-indexed) occupies sizes r-i+1 contiguously from bit 0
    starts = []
    pos = 0
    for i in range(1, r + 1):
        starts.append(pos)
        pos += r - i + 1
    outer_coords = list(range(s, k))

    def block_coords(i: int) -> list[int]:
        return list(range(starts[i - 1], starts[i - 1] + (r - i + 1)))

    stars: list[Star] = []
    resets: list[tuple[int, CylinderSet]] = []

    # lineage = tuple of bad patterns chosen at blocks 1..i-1
    lineages: list[tuple[int, ...]] = [()]
    for level in range(1, r + 1):
        work = block_coords(level)
        rest_coords = [c for i in range(level + 1, r + 1) for c in block_coords(i)]
        if level >= 2:
            position = len(stars)
            for lineage in lineages:
                fixed: dict[int, int] = {}
                for j, pat in enumerate(lineage, start=1):
                    for t, coord in enumerate(block_coords(j)):
                        fixed[coord] = (pat >> t) & 1
                resets.append((position, CylinderSet.from_fixed(k, fixed)))
        for lineage in lineages:
            lineage_fixed: dict[int, int] = {}
            for j, pat in enumerate(lineage, start=1):
                for t, coord in enumerate(block_coords(j)):
                    lineage_fixed[coord] = (pat >> t) & 1
            for outer in range(1 << len(outer_coords)):
                for u in range(1 << len(rest_coords)):
                    fixed = dict(lineage_fixed)
                    for t, coord in enumerate(outer_coords):
                        fixed[coord] = (outer >> t) & 1
                    for t, coord in enumerate(rest_coords):
                        fixed[coord] = (u >> t) & 1
                    cyl = CylinderSet.from_fixed(k, fixed)
                    center = State(cyl.fixed_values, k)
                    stars.append(Star(HammingBall(center), cyl))
        lineages = [lin + (pat,) for lin in lineages
                    for pat in _bad_patterns(len(work))]

    return PackingSequence(k, r, tuple(stars), tuple(resets))


@dataclass(frozen=True)
class PackingReport:
    ok: bool
    violations: tuple[str, ...]
    star_count: int
    reset_count: int


def validate_packing(seq: PackingSequence) -> PackingReport:
    """Check cover, disjointness, the no-earlier-intersection property, star
    affine independence, and soundness of the reset schedule.

    Schedule soundness replays the fills: a star may only be filled while all
    its members are still at the start state (clean); filling dirties the
    rest of its cylinder; a reset may not touch already-filled states and
    re-cleans its cylinder.
    """
    violations: list[str] = []
    full = set(range(1 << seq.k))

    member_sets = [frozenset(st.index for st in star_members(s)) for s in seq.stars]
    seen: set[int] = set()
    for i, mem in enumerate(member_sets):
        if mem & seen:
            violations.append(f"star {i} overlaps an earlier star")
        seen |= mem
    if seen != full:
        violations.append("stars do not cover the cube")

    for i, star in enumerate(seq.stars):
        cyl_states = {st.index for st in cylinder_members(star.cylinder)}
        earlier = set().union(*member_sets[:i]) if i else set()
        if cyl_states & earlier:
            violations.append(f"cylinder of star {i} intersects an earlier star")
        if affine_rank(star_members(star)) != len(member_sets[i]):
            violations.append(f"star {i} members are affinely dependent")

    resets_at: dict[int, list[CylinderSet]] = {}
    for pos, cyl in seq.resets:
        resets_at.setdefault(pos, []).append(cyl)
    clean = set(full)
    filled: set[int] = set()
    for i, star in enumerate(seq.stars):
        for cyl in resets_at.get(i, ()):
            cyl_states = {st.index for st in cylinder_members(cyl)}
            if cyl_states & filled:
                violations.append(f"reset before star {i} touches filled states")
            clean |= cyl_states
        mem = member_sets[i]
        if not mem <= clean:
            violations.append(f"star {i} filled from non-clean rows")
        cyl_states = {st.index for st in cylinder_members(star.cylinder)}
        clean -= cyl_states
        filled |= mem

    return PackingReport(
        ok=not violations,
        violations=tuple(violations),
        star_count=len(seq.stars),
        reset_count=len(seq.resets),
    )
