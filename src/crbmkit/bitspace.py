"""Bit-indexed combinatorics over {0,1}^N.

States are little-endian bit-indexed integers: unit i of the cube is bit i of
the index, so enumeration in ascending index order is the canonical order
everywhere.  Hamming balls here always have radius 1; a star is the
intersection of a radius-1 ball with a cylinder set containing its center.
The member enumerations return plain ascending indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, CenterNotInCylinder, WidthMismatch

#: The one enumeration-size limit: cells (float64 entries) in the largest
#: array a pipeline builds, 2^25 = 256 MiB.
MAX_CELLS = 2 ** 25


def check_cells(cells: int, what: str) -> None:
    """Refuse, before any work starts, an enumeration of ``cells`` cells."""
    if cells > MAX_CELLS:
        raise CapExceeded(f"{what} needs {cells} cells, above the limit "
                          f"MAX_CELLS = {MAX_CELLS}")


def check_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")


@dataclass(frozen=True)
class State:
    """A vertex of {0,1}^width, stored as the integer with bit i = unit i."""

    index: int
    width: int

    def __post_init__(self):
        check_width(self.width)
        if not 0 <= self.index < (1 << self.width):
            raise ValueError(f"index {self.index} out of range for width {self.width}")


@dataclass(frozen=True)
class CylinderSet:
    """States with the coordinates in ``fixed_mask`` pinned to ``fixed_values``."""

    width: int
    fixed_mask: int
    fixed_values: int

    def __post_init__(self):
        check_width(self.width)
        full = (1 << self.width) - 1
        if self.fixed_mask & ~full:
            raise ValueError("fixed_mask has bits outside the cube")
        if self.fixed_values & ~self.fixed_mask:
            raise ValueError("fixed_values has set bits outside fixed_mask")

    @property
    def dimension(self) -> int:
        return self.width - bin(self.fixed_mask).count("1")

    def free_coords(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if not (self.fixed_mask >> i) & 1)

    def contains_index(self, index: int) -> bool:
        return (index & self.fixed_mask) == self.fixed_values

    def contains(self, s: State) -> bool:
        if s.width != self.width:
            raise WidthMismatch(f"state width {s.width} != cylinder width {self.width}")
        return self.contains_index(s.index)

    @staticmethod
    def full(width: int) -> "CylinderSet":
        return CylinderSet(width, 0, 0)

    @staticmethod
    def from_fixed(width: int, fixed: dict[int, int]) -> "CylinderSet":
        mask = 0
        vals = 0
        for coord, bit in fixed.items():
            mask |= 1 << coord
            if bit:
                vals |= 1 << coord
        return CylinderSet(width, mask, vals)


@dataclass(frozen=True)
class HammingBall:
    """A state together with all its immediate neighbors (radius 1)."""

    center: State

    @property
    def width(self) -> int:
        return self.center.width


@dataclass(frozen=True)
class Star:
    """Intersection of a radius-1 ball with a cylinder containing its center."""

    ball: HammingBall
    cylinder: CylinderSet

    def __post_init__(self):
        if self.ball.width != self.cylinder.width:
            raise WidthMismatch("ball and cylinder widths differ")
        if not self.cylinder.contains(self.ball.center):
            raise CenterNotInCylinder(
                f"center {self.ball.center.index} not in cylinder"
            )

    @property
    def width(self) -> int:
        return self.ball.width


def hamming_distance(a: State, b: State) -> int:
    if a.width != b.width:
        raise WidthMismatch(f"widths differ: {a.width} vs {b.width}")
    return bin(a.index ^ b.index).count("1")


def ball_members(ball: HammingBall) -> list[int]:
    """Center plus all states at Hamming distance 1, as ascending indices."""
    c = ball.center.index
    return sorted([c] + [c ^ (1 << i) for i in range(ball.width)])


def cylinder_members(c: CylinderSet) -> list[int]:
    """All 2^dimension indices matching the fixed coordinates, ascending:
    each free coordinate, taken in ascending order, doubles the list with a
    bit above every earlier free bit."""
    members = [c.fixed_values]
    for coord in c.free_coords():
        members += [v | (1 << coord) for v in members]
    return members


def star_members(s: Star) -> list[int]:
    """Ball-cylinder intersection: center plus one flip per free coordinate,
    as ascending indices."""
    c = s.ball.center.index
    return sorted([c] + [c ^ (1 << i) for i in s.cylinder.free_coords()])


def affine_rank(indices: list[int], width: int) -> int:
    """Rank of the states' bit matrix with an appended all-ones column."""
    if not indices:
        return 0
    m = np.array([[(v >> i) & 1 for i in range(width)] + [1] for v in indices],
                 dtype=float)
    return int(np.linalg.matrix_rank(m))
