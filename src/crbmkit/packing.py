"""Recursive star packings of the Boolean cube and their counting sequences.

This module is the one owner of the packing's shape: the depths r that fit
in k inputs (``feasible_depths``, with S(r) <= k), the budget of each depth
and the cheapest one, the star sequence with its reset schedule, and its
validation.  Other modules receive plain integer state indices.

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

``build_packing`` is priced before any star is built: its star count times
STAR_CELLS, the measured cost of one star, against ``bitspace.MAX_CELLS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitspace import (
    CylinderSet,
    HammingBall,
    Star,
    State,
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


def feasible_depths(k: int) -> range:
    """The recursion depths r with S(r) <= k, ascending; empty for k = 0."""
    r = 0
    while s_value(r + 1) <= k:
        r += 1
    return range(1, r + 1)


def _depth_values(k: int, r: int) -> SeqValues:
    """seq_values(r), refused when the depth does not fit in k inputs."""
    if r >= 1 and r not in feasible_depths(k):
        raise InfeasibleDepth(f"k = {k} < S({r}) = {s_value(r)}")
    return seq_values(r)


def universal_budget(k: int, r: int, components: int) -> int:
    """Hidden-unit budget 2^(k-S(r)) F(r) (M-1) + resets for M components."""
    v = _depth_values(k, r)
    return (1 << (k - v.S)) * v.F * (components - 1) + v.resets_needed


def best_depth(k: int, components: int) -> int:
    """Feasible r minimizing the budget (smallest r on ties); 1 if none is."""
    return min(feasible_depths(k), default=1,
               key=lambda r: universal_budget(k, r, components))


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


#: cells (8 bytes each) charged per star by build_packing's size check: a
#: Star with its ball, center and cylinder peaks at 432-434 bytes of Python
#: objects (tracemalloc, CPython 3.11, (k, r) = (14, 2), (16, 2), (14, 3),
#: (16, 4)), rounded up to whole cells
STAR_CELLS = 55


def _bad_patterns(width: int) -> list[int]:
    """Block patterns not covered by the block's star (weight >= 2)."""
    stars = {0} | {1 << t for t in range(width)}
    return [p for p in range(1 << width) if p not in stars]


def build_packing(k: int, r: int) -> PackingSequence:
    """The recursive star packing sequence with 2^(k-S(r)) F(r) stars."""
    v = _depth_values(k, r)
    total = (1 << (k - v.S)) * v.F
    check_cells(total * STAR_CELLS,
                f"build_packing at (k, r) = ({k}, {r}) with {total} stars")

    full = (1 << k) - 1
    stars: list[Star] = []
    resets: list[tuple[int, CylinderSet]] = []
    # a lineage is the values of the bad patterns chosen at blocks
    # 1..level-1, which fill the coordinates below ``start``
    lineages = [0]
    start = 0
    for level in range(1, r + 1):
        # block ``level`` is the ``width`` coordinates from ``start``; its
        # stars' cylinders leave only those free
        width = r - level + 1
        work = ((1 << width) - 1) << start
        rest = start + width
        if level >= 2:
            resets += [(len(stars), CylinderSet(k, (1 << start) - 1, lin))
                       for lin in lineages]
        # one star per lineage and pattern of the coordinates above the block
        for lin in lineages:
            for tail in range(1 << (k - rest)):
                values = lin | (tail << rest)
                stars.append(Star(HammingBall(State(values, k)),
                                  CylinderSet(k, full & ~work, values)))
        lineages = [lin | (pat << start) for lin in lineages
                    for pat in _bad_patterns(width)]
        start = rest

    return PackingSequence(k, r, tuple(stars), tuple(resets))


@dataclass(frozen=True)
class PackingReport:
    ok: bool
    violations: tuple[str, ...]
    star_count: int
    reset_count: int


def validate_packing(seq: PackingSequence) -> PackingReport:
    """Check cover, disjointness, the no-earlier-intersection property and
    soundness of the reset schedule, in one replay of the fills.

    A star may only be filled while all its members are still at the start
    state (clean); filling dirties the rest of its cylinder; a reset may not
    touch already-filled states and re-cleans its cylinder.  Violations are
    listed by kind: overlaps, cover, cylinder intersections, then the
    schedule in replay order.  Affine independence needs no check: a star's
    members are its center plus one flip per distinct free coordinate.
    """
    resets_at: dict[int, list[CylinderSet]] = {}
    for pos, cyl in seq.resets:
        resets_at.setdefault(pos, []).append(cyl)
    overlaps: list[str] = []
    hits: list[str] = []
    schedule: list[str] = []
    full = set(range(1 << seq.k))
    clean = set(full)
    seen: set[int] = set()  # members of the stars filled so far
    for i, star in enumerate(seq.stars):
        for cyl in resets_at.get(i, ()):
            states = cylinder_members(cyl)
            if not seen.isdisjoint(states):
                schedule.append(f"reset before star {i} touches filled states")
            clean.update(states)
        members = star_members(star)
        cyl_states = cylinder_members(star.cylinder)
        if not seen.isdisjoint(members):
            overlaps.append(f"star {i} overlaps an earlier star")
        if not seen.isdisjoint(cyl_states):
            hits.append(f"cylinder of star {i} intersects an earlier star")
        if not clean.issuperset(members):
            schedule.append(f"star {i} filled from non-clean rows")
        clean.difference_update(cyl_states)
        seen.update(members)
    cover = [] if seen == full else ["stars do not cover the cube"]
    violations = overlaps + cover + hits + schedule

    return PackingReport(
        ok=not violations,
        violations=tuple(violations),
        star_count=len(seq.stars),
        reset_count=len(seq.resets),
    )
