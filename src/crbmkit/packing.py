"""Recursive star packings of the Boolean cube and their counting sequences.

This module is the one owner of the packing's shape: the depths r that fit
in k inputs (``feasible_depths``, with S(r) <= k), the budget of each depth
and the cheapest one, the star sequence with its reset schedule, and its
validation.  The sequence is int64 arrays: a star is its center and the
mask of its free coordinates, a reset its cylinder's fixed mask and values
(the integer encoding of ``bitspace``).  Each level's stars are filled by
one broadcast over its lineages and tails.

The construction splits {0,1}^k into 2^(k-S(r)) cylinder branches over S(r)
working coordinates, allocated as contiguous blocks of sizes r, r-1, ..., 1
(step i consumes block i).  At step i every branch is packed by cylinders
over block i; each cylinder contributes the star centered at its smallest
element, and the non-star block patterns spawn the next level's branches.

Counting sequences (exact integers, arbitrary precision):

    S(r) = 1 + 2 + ... + r
    F(r) = f_r(f_{r-1}(... f_2(f_1))),  f_i(z) = 2^S(i-1) + (2^i - (i+1)) z
    R(r) = prod_{i=2..r} (2^i - (i+1))
    E(r) = sum_{i=2..r} prod_{j<i} sigma_j,  sigma_j = 2^w - (w+1), w = r-j+1
    K(r) = 2^-S(r) F(r),  P(r) = 2^-S(r) R(r)

K obeys K(r) = 2^-r + K(r-1)(1 - 2^-r (r+1)), which is how it is evaluated
in floating point for very large r.

Resets.  sigma_j is the number of bad patterns of block j, so level i has
prod_{j<i} sigma_j lineages, and the schedule resets each lineage of levels
2..r before its level's fills: E(r) resets, 0 at r = 1, 1 at r = 2, 8 at
r = 3 and 99 at r = 4.  The paper's count R(r) (4 and 44 there) is the last
term, the leaf level's lineages.  This construction needs the others too: a
fill concentrates its step on the star's input cylinder, not on the star,
so it moves every row of the cylinder, and the deeper levels' stars of the
lineage lie in that cylinder; a star may only be filled from rows at the
start state (``validate_packing`` checks it).  So ``universal_budget`` and
``best_depth`` price E(r), what ``build_packing`` emits; ``SeqValues``
carries both counts.

``build_packing`` is priced before any star is built: its star count times
STAR_CELLS, the measured cost of one star, against ``bitspace.MAX_CELLS``;
``validate_packing`` is priced on its 2^k cube states at STATE_CELLS each.
The price runs on every call, but a sequence is built once per (k, r): its
arrays read-only, it is kept for later calls in a ``bitspace.Kept`` memo,
at most KEEP_ENTRIES = 32 sequences and KEEP_CELLS = 2^19 cells (4 MiB) in
all, and one priced above that is built per call and not kept.  A compile
of one shape thus shares its packing with the compiles before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitspace import (
    OBJECT_CELLS,
    Kept,
    array_cells,
    check_cells,
    cylinder_members,
    star_cylinder,
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


def e_value(r: int) -> int:
    """Resets of the emitted schedule: one per lineage of levels 2..r."""
    total, groups = 0, 1
    for j in range(1, r):
        width = r - j + 1
        groups *= (1 << width) - (width + 1)
        total += groups
    return total


@dataclass(frozen=True)
class SeqValues:
    """The counting sequences at one depth, with both reset counts:
    ``paper_resets`` is the paper's R(r) (none at r = 1), the column R of
    ``cli table1``; ``E`` is what ``build_packing`` emits and
    ``universal_budget`` prices."""

    r: int
    S: int
    F: int
    R: int
    paper_resets: int
    E: int
    K: float
    P: float


def seq_values(r: int) -> SeqValues:
    """Exact S, F, R, E and float K, P for one recursion depth."""
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
        paper_resets=0 if r == 1 else rr,
        E=e_value(r),
        # int true division is correctly rounded, like float(Fraction)
        K=f / (1 << s),
        P=rr / (1 << s),
    )


def k_coefficient(r: int) -> float:
    """K(r) by the recurrence; usable far beyond exact-integer range."""
    if r < 1:
        raise ValueError("r must be >= 1")
    k = 0.5
    for i in range(2, r + 1):
        k = 2.0 ** -i + k * (1.0 - 2.0 ** -i * (i + 1))
    return k


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


def star_count(k: int, r: int) -> int:
    """The 2^(k-S(r)) F(r) stars of the depth-r packing of {0,1}^k."""
    v = _depth_values(k, r)
    return (1 << (k - v.S)) * v.F


def universal_budget(k: int, r: int, components: int) -> int:
    """Hidden-unit budget 2^(k-S(r)) F(r) (M-1) + E(r) for M components:
    one unit per star and component past the start, one per emitted
    reset."""
    return star_count(k, r) * (components - 1) + _depth_values(k, r).E


def best_depth(k: int, components: int) -> int:
    """Feasible r minimizing the budget (smallest r on ties); 1 if none is."""
    return min(feasible_depths(k), default=1,
               key=lambda r: universal_budget(k, r, components))


@dataclass(frozen=True, eq=False)
class PackingSequence:
    """Ordered stars covering {0,1}^k plus the joint-reset schedule, as
    int64 arrays.

    The i-th star is ``(centers[i], free_masks[i])``: its center and one
    flip per free bit, in the cylinder that fixes every other bit to the
    center's.  Reset j drives the cylinder
    ``(reset_masks[j], reset_values[j])`` back to the start state just
    before the star at ``reset_positions[j]`` is filled.
    """

    k: int
    r: int
    centers: np.ndarray
    free_masks: np.ndarray
    reset_positions: np.ndarray
    reset_masks: np.ndarray
    reset_values: np.ndarray

    def resets_at(self) -> dict[int, list[tuple[int, int]]]:
        """The ``(fixed_mask, fixed_values)`` cylinders reset just before
        the star at each position that has any, in order."""
        at: dict[int, list[tuple[int, int]]] = {}
        for pos, mask, values in zip(self.reset_positions.tolist(),
                                     self.reset_masks.tolist(),
                                     self.reset_values.tolist()):
            at.setdefault(pos, []).append((mask, values))
        return at


#: cells (8 bytes each) charged per star by build_packing's size check: the
#: star's center and free mask, one int64 each, plus the row of tails a
#: level's centers are broadcast from; tracemalloc peaks at 21.4-24.3 bytes
#: per star (CPython 3.11, (k, r) = (14, 2), (16, 2), (14, 3), (16, 4),
#: (18, 1), (20, 1)), rounded up to whole cells
STAR_CELLS = 4

#: cells charged per state of {0,1}^k by validate_packing's size check: it
#: replays the fills on Python sets of the whole cube; tracemalloc peaks at
#: 18.4-36.4 cells per state (CPython 3.11, every feasible (k, r) with
#: 4 <= k <= 18, r = 1 only from k = 17), rounded up
STATE_CELLS = 40


def _bad_patterns(width: int) -> np.ndarray:
    """Block patterns not covered by the block's star (weight >= 2)."""
    return np.array([p for p in range(1 << width) if p & (p - 1)],
                    dtype=np.int64)


#: the packing sequences kept for later builds of their (k, r)
_SEQUENCES = Kept()


def build_packing(k: int, r: int) -> PackingSequence:
    """The recursive star packing sequence with 2^(k-S(r)) F(r) stars,
    read-only.  Priced on every call; a sequence is built once per (k, r)
    and kept (``bitspace.Kept``) while it fits."""
    total = star_count(k, r)
    check_cells(total * STAR_CELLS,
                f"build_packing at (k, r) = ({k}, {r}) with {total} stars")
    return _SEQUENCES.get((k, r), lambda: _build_packing(k, r, total))


def _build_packing(k: int, r: int, total: int
                   ) -> tuple[PackingSequence, int]:
    """The sequence ``build_packing`` returns, with its arrays read-only,
    and the cells it holds."""
    centers = np.empty(total, dtype=np.int64)
    free_masks = np.empty(total, dtype=np.int64)
    resets = [np.zeros((3, 0), dtype=np.int64)]  # position, mask, values
    # a lineage is the values of the bad patterns chosen at blocks
    # 1..level-1, which fill the coordinates below ``start``
    lineages = np.zeros(1, dtype=np.int64)
    start = filled = 0
    for level in range(1, r + 1):
        # block ``level`` is the ``width`` coordinates from ``start``; its
        # stars' cylinders leave only those free
        width = r - level + 1
        rest = start + width
        if level >= 2:
            reset = np.empty((3, lineages.size), dtype=np.int64)
            reset[0], reset[1], reset[2] = filled, (1 << start) - 1, lineages
            resets.append(reset)
        # one star per lineage and pattern of the coordinates above the
        # block, lineage-major
        tails = np.arange(1 << (k - rest), dtype=np.int64)
        tails <<= rest
        count = lineages.size * tails.size
        np.bitwise_or(lineages[:, None], tails[None, :],
                      out=centers[filled:filled + count].reshape(-1, tails.size))
        free_masks[filled:filled + count] = ((1 << width) - 1) << start
        filled += count
        lineages = (lineages[:, None]
                    | (_bad_patterns(width) << start)[None, :]).ravel()
        start = rest

    block = np.concatenate(resets, axis=1)
    arrays = (centers, free_masks, *block)
    for a in arrays:
        a.setflags(write=False)
    # the five arrays, the reset rows' block and the sequence with its dict
    return (PackingSequence(k, r, *arrays),
            array_cells(*arrays) + 4 * OBJECT_CELLS)


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
    check_cells((1 << seq.k) * STATE_CELLS,
                f"validate_packing at k = {seq.k}")
    overlaps: list[str] = []
    hits: list[str] = []
    schedule: list[str] = []
    full = set(range(1 << seq.k))
    clean = set(full)
    seen: set[int] = set()  # members of the stars filled so far
    resets_at = seq.resets_at()
    for i, (center, free) in enumerate(zip(seq.centers.tolist(),
                                           seq.free_masks.tolist())):
        for mask, values in resets_at.get(i, ()):
            states = cylinder_members(mask, values, seq.k)
            if not seen.isdisjoint(states):
                schedule.append(f"reset before star {i} touches filled states")
            clean.update(states)
        members = star_members(center, free)
        cyl_states = cylinder_members(*star_cylinder(center, free, seq.k),
                                      seq.k)
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
        star_count=len(seq.centers),
        reset_count=len(seq.reset_positions),
    )
