"""Bit-indexed combinatorics over {0,1}^N.

Every cube subset is plain integers.  A state is its little-endian index:
unit i of the cube is bit i, so enumeration in ascending index order is the
canonical order everywhere.  A Hamming ball (always radius 1) is its
center; a cylinder set is ``(fixed_mask, fixed_values)``, the states whose
bits in ``fixed_mask`` equal ``fixed_values``; a star, the intersection of a
ball with a cylinder through its center, is ``(center, free_mask)``, whose
cylinder fixes the other bits to the center's.  The member enumerations
return plain ascending indices.

The module also holds the sizes a pipeline may build and keep: the one
enumeration limit ``MAX_CELLS``, checked before any work starts, and
``Kept``, the priced memo of what a compile keeps for later compiles.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Hashable

import numpy as np

from .errors import CapExceeded

#: The one enumeration-size limit: cells (float64 entries) in the largest
#: array a pipeline builds, 2^25 = 256 MiB.
MAX_CELLS = 2 ** 25

#: What one ``Kept`` memo holds at most: KEEP_ENTRIES tables, and
#: KEEP_CELLS cells (8 bytes each) in all, 4 MiB, as its builders price
#: them.  The compile keeps two, its packing sequences and its shapes.
KEEP_ENTRIES = 32
KEEP_CELLS = 1 << 19
#: cells a kept table is charged per Python object it holds, beside its
#: arrays' entries: an ndarray's header is 112 bytes, and a small tuple,
#: float or dict slot takes less
OBJECT_CELLS = 16


def check_cells(cells: int, what: str) -> None:
    """Refuse, before any work starts, an enumeration of ``cells`` cells."""
    if cells > MAX_CELLS:
        raise CapExceeded(f"{what} needs {cells} cells, above the limit "
                          f"MAX_CELLS = {MAX_CELLS}")


def array_cells(*arrays: np.ndarray) -> int:
    """The cells a kept table is charged for ``arrays``: each one's entries
    plus OBJECT_CELLS."""
    return sum(a.size + OBJECT_CELLS for a in arrays)


class Kept:
    """A memo of read-only tables, the least recently used dropped first,
    holding at most KEEP_ENTRIES tables and KEEP_CELLS cells in all: the
    worst case it keeps is KEEP_CELLS cells, 4 MiB.  Each table is charged
    the cells its builder prices it at, which must bound all it can ever
    hold, and each entry four objects more for the memo's own; one priced
    above KEEP_CELLS is handed to its caller and not kept, so it lives as
    long as the caller's use of it."""

    def __init__(self):
        self._tables: OrderedDict = OrderedDict()  # key -> (table, cells)
        self.cells = 0

    def clear(self) -> None:
        self._tables.clear()
        self.cells = 0

    def get(self, key: Hashable, build: Callable[[], tuple]):
        """The table kept under ``key``, or else the table of ``build()``,
        a ``(table, cells)`` pair, kept under ``key`` when it fits."""
        hit = self._tables.get(key)
        if hit is not None:
            self._tables.move_to_end(key)
            return hit[0]
        table, cells = build()
        # the memo's own objects: the key, its slot and the pair it stores
        cells += 4 * OBJECT_CELLS
        if cells <= KEEP_CELLS:
            while self._tables and (len(self._tables) >= KEEP_ENTRIES
                                    or self.cells + cells > KEEP_CELLS):
                self.cells -= self._tables.popitem(last=False)[1][1]
            self._tables[key] = table, cells
            self.cells += cells
        return table


def check_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")


def state_bits(width: int, states=None) -> np.ndarray:
    """Bit i of each state in column i, as 0.0/1.0: the (2^width, width)
    table of every state, ascending, or the bits of ``states`` (an index or
    an array of indices) along a new last axis."""
    if states is None:
        states = np.arange(1 << width)
    return ((np.asarray(states)[..., None] >> np.arange(width)) & 1).astype(float)


@lru_cache(maxsize=None)
def popcounts(width: int) -> np.ndarray:
    """The number of set bits of every state of {0,1}^width, ascending, as a
    read-only uint8 array: each bit doubles the table with one more count."""
    pc = np.zeros(1 << width, dtype=np.uint8)
    for i in range(width):
        pc[1 << i:2 << i] = pc[:1 << i] + 1
    pc.flags.writeable = False
    return pc


def set_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def ball_members(center: int, width: int) -> list[int]:
    """Center plus all states at Hamming distance 1, as ascending indices."""
    return sorted([center] + [center ^ (1 << i) for i in range(width)])


def cylinder_members(fixed_mask: int, fixed_values: int, width: int) -> list[int]:
    """All states of {0,1}^width matching the fixed coordinates, ascending:
    each free coordinate, taken in ascending order, doubles the list with a
    bit above every earlier free bit."""
    members = [fixed_values]
    for coord in set_bits(((1 << width) - 1) & ~fixed_mask):
        members += [v | (1 << coord) for v in members]
    return members


def star_cylinder(center: int, free_mask: int, width: int) -> tuple[int, int]:
    """The cylinder ``(fixed_mask, fixed_values)`` of the star
    ``(center, free_mask)`` in {0,1}^width: every bit outside ``free_mask``
    fixed to the center's."""
    fixed_mask = ((1 << width) - 1) & ~free_mask
    return fixed_mask, center & fixed_mask


def star_members(center: int, free_mask: int) -> list[int]:
    """Ball-cylinder intersection: center plus one flip per free coordinate,
    as ascending indices."""
    return sorted([center] + [center ^ (1 << i) for i in set_bits(free_mask)])


def affine_rank(indices: list[int], width: int) -> int:
    """Rank of the states' bit matrix with an appended all-ones column."""
    if not indices:
        return 0
    m = np.column_stack([state_bits(width, indices), np.ones(len(indices))])
    return int(np.linalg.matrix_rank(m))
