"""Dimension certification: numeric Jacobian rank and the tropical bound.

The numeric path ranks the within-block differences D = g(x, y) - g(x, 0)
of g = d log G / d theta, the gradients of the unnormalized log
probabilities, at one standard-normal parameter draw.  Block x of the
Jacobian of theta -> p(y|x) is p(y|x) (g(x, y) - gbar(x)), with
gbar(x) = sum_y p(y|x) g(x, y): scaling a row by p > 0 keeps the row space,
and gbar(x) is an affine combination of the g(x, y), so the Jacobian has
D's rank.  Its rows shrink with p(y|x), which crowds its small singular
values towards the rank threshold; D's entries lie in [-1, 1].  The rank is
read off a singular-value threshold, and a count that moves when the
threshold is halved or doubled raises UnstableRank.  At generic parameters
the rank equals the model dimension, and a standard-normal draw is generic
with probability one, so one draw is taken.

The tropical path builds the integer matrix (A | A_{C_1} | ... | A_{C_m})
whose row at visible state v = (x, y) is (1, v) masked by membership in each
slicing C_i.  Its column span modulo functions of x lower-bounds the
dimension.  The input cylinders [x] are quotiented out by within-block row
differences: row (x, 0) is subtracted from every row (x, y != 0), and the
rank of these differences is the bound.  The indicator columns X of the
cylinders enter only that argument, never an array.  The rank is taken
over F_p, p = 2^31 - 1, in two stages.  A peel reads only the zero pattern:
a column, failing that a row, with a single nonzero is a pivot, and
clearing the rest of its row, or column, with it changes no other entry,
so the peeled pivots add exactly to the rank of what remains.  The
residual (89 x 35 of the 240 x 81 differences at (4,4,8)) is gathered
once and ranked by int64 Gaussian elimination.  For an integer matrix the
rank over F_p never exceeds the rank over Q, so the result is a certified
lower bound on the rank, and with it on the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitspace import affine_rank, ball_members, check_cells, state_bits
from .bounds import expected_dim
from .crbm import _log_grads, random_params
# not called here: perfbench/spans.py patches this binding (ROADMAP item 2)
from .crbm import conditional_jacobian  # noqa: F401
from .errors import UnstableRank

#: relative SVD threshold coefficient
RANK_TOL_COEFF = 2.0 ** -40
#: prime modulus of the tropical rank; residue products fit in int64
MOD_PRIME = 2 ** 31 - 1


def numeric_rank(matrix: np.ndarray) -> int:
    """Rank by singular-value thresholding at
    sigma_max * max(dim) * RANK_TOL_COEFF.

    The count must agree under halving and doubling the threshold, otherwise
    the rank is numerically unstable and an error is raised.
    """
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite matrix entries")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    tol = sv[0] * max(m.shape) * RANK_TOL_COEFF
    lo = int((sv > 2.0 * tol).sum())
    hi = int((sv > 0.5 * tol).sum())
    if lo != hi:
        raise UnstableRank(f"rank {lo} vs {hi} under threshold perturbation")
    return int((sv > tol).sum())


def _rank_mod_p(matrix: np.ndarray) -> int:
    """Rank over F_p, p = MOD_PRIME, of an integer matrix, which is left
    as it is.  For an integer matrix the result never exceeds the rank over
    Q."""
    return _peel_and_eliminate(np.asarray(matrix, dtype=np.int64) % MOD_PRIME)


def _peel_and_eliminate(rows: np.ndarray) -> int:
    """Rank over F_p of the int64 matrix ``rows``, whose entries are nonzero
    mod p exactly where they are nonzero (|entry| < p suffices); ``rows`` is
    only read.

    The peel reads only the zero pattern.  A column with one nonzero is a
    pivot on that nonzero's row: column operations with it clear the rest of
    its row and nothing else, so the rank is one plus the rank with that row
    and column dropped.  Other such columns on the same row then fall to
    zero, so a row gives one pivot however many of them it holds.  Failing
    any such column, a row with one nonzero is a pivot on its column, by the
    same argument with row operations.  Both rules leave every entry outside
    the pivot's row and column as it was, so once neither applies the
    residual is the submatrix on the rows and columns still nonzero, and
    ``_eliminate_mod_p`` ranks one gathered copy of it.
    """
    live = rows != 0
    rank = 0
    while True:
        single = live.sum(axis=0, dtype=np.int32) == 1
        if single.any():
            # the rows holding a nonzero of a singleton column
            taken = live @ single
            live[taken] = False
        else:
            single = live.sum(axis=1, dtype=np.int32) == 1
            if not single.any():
                break
            taken = single @ live
            live[:, taken] = False
        rank += int(np.count_nonzero(taken))
    residual = rows[np.ix_(np.flatnonzero(live.any(axis=1)),
                           np.flatnonzero(live.any(axis=0)))]
    residual %= MOD_PRIME
    return rank + _eliminate_mod_p(residual)


def _eliminate_mod_p(rows: np.ndarray) -> int:
    """Rank over F_p of the int64 residues ``rows``, by Gaussian elimination
    in place.

    Each pivot updates only the rows below it with a nonzero entry in its
    column; on a sparse matrix most rows are skipped.  Residues stay below
    p < 2^31, so the product of two fits in int64.
    """
    p = MOD_PRIME
    n_rows, n_cols = rows.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = rank + np.flatnonzero(rows[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = int(nonzero[0])
        if pivot != rank:
            # the old row `rank` lands at `pivot`, with a zero in this column
            rows[[rank, pivot]] = rows[[pivot, rank]]
        inv = pow(int(rows[rank, col]), -1, p)
        rows[rank, col:] = rows[rank, col:] * inv % p
        touched = nonzero[1:]
        if touched.size:
            below = rows[touched, col:]
            below -= below[:, :1] * rows[rank, col:]
            below %= p
            rows[touched, col:] = below
        rank += 1
    return rank


def tropical_matrix(k: int, n: int, slicings: list[int]) -> np.ndarray:
    """(A | A_{C_1} | ... | A_{C_m}) as a 0/1 int64 array of shape
    (2^(k+n), (k+n+1)(m+1)), m = len(slicings).

    Rows are indexed by visible states v = x + 2^k*y; A's row is (1, bits(v));
    block i is that row masked by membership of v in the radius-1 ball
    centered at ``slicings[i]``.  The input cylinders [x] are not built:
    ``tropical_rank_mod_inputs`` quotients them out.  A center that is not a
    state of {0,1}^(k+n) raises ValueError.
    """
    width = k + n
    for center in slicings:
        if (not isinstance(center, (int, np.integer))
                or not 0 <= center < 1 << width):
            raise ValueError(f"slicing center {center!r} is not a state of "
                             f"{{0,1}}^{width}")
    base = np.ones((1 << width, width + 1), dtype=np.int64)
    base[:, 1:] = state_bits(width)
    # mask column 0 holds every state, so the first masked block is A
    masks = np.zeros((1 << width, len(slicings) + 1), dtype=np.int64)
    masks[:, 0] = 1
    for i, center in enumerate(slicings):
        masks[ball_members(center, width), i + 1] = 1
    return (masks[:, :, None] * base[:, None, :]).reshape(1 << width, -1)


def tropical_rank_mod_inputs(k: int, n: int, m: int,
                             slicings: list[int]) -> int:
    """Rank of the column span modulo functions of x achievable on the
    radius-1 ball slicings centered at ``slicings``: rank(A_theta | X) - 2^k,
    where A_theta = ``tropical_matrix(k, n, slicings)`` and X holds the
    indicator columns of the input cylinders [x].

    The input cylinders are quotiented out by within-block row differences.
    Subtracting row (x, 0) from the rows (x, y != 0) of each input block
    clears their X columns, and X's identity on the rows (x, 0) then clears
    the rest of those rows, so rank(A_theta | X) = 2^k + rank(D), where D
    holds the differences of the rows of A_theta.  X itself is never built.
    D overwrites A_theta, and its rank over F_p, a certified lower bound on
    its rank over Q, is taken by peeling the pivots its zero pattern decides
    (a column or row with one nonzero), which is exact over any field, then
    eliminating the residual submatrix.
    """
    if len(slicings) > m:
        raise ValueError("more slicings than hidden units")
    blocks = tropical_matrix(k, n, slicings).reshape(1 << n, 1 << k, -1)
    # the differences, in {-1, 0, 1}, overwrite the rows they are taken of
    blocks[1:] -= blocks[:1]
    return _peel_and_eliminate(blocks[1:].reshape(-1, blocks.shape[2]))


def greedy_distance4_balls(k: int, n: int, m: int) -> list[int]:
    """Lexicographic first-fit ball centers pairwise at Hamming distance
    >= 4."""
    width = k + n
    centers: list[int] = []
    for v in range(1 << width):
        if len(centers) == m:
            break
        if all((v ^ c).bit_count() >= 4 for c in centers):
            centers.append(v)
    return centers


def _placement_clean(k: int, n: int, centers: list[int]) -> bool:
    """True iff the union of the balls centered at ``centers`` contains no
    input cylinder [x] and its complement affinely spans {0,1}^(k+n)."""
    width = k + n
    flips = np.concatenate([[0], 1 << np.arange(width)])
    inside = np.zeros(1 << width, dtype=bool)
    inside[(np.asarray(centers, dtype=np.int64)[:, None] ^ flips).ravel()] = True
    # state x + 2^k y sits at [y, x]: a column is the cylinder [x]
    if inside.reshape(1 << n, 1 << k).all(axis=0).any():
        return False
    return affine_rank(np.flatnonzero(~inside).tolist(), width) == width + 1


@dataclass(frozen=True)
class DimensionReport:
    k: int
    n: int
    m: int
    expected_value: int
    regime: str
    numeric: int
    tropical: int
    balls_placed: int
    placement_clean: bool
    agree: bool
    tropical_consistent: bool


def certify_dimension(k: int, n: int, m: int, seed: int = 0) -> DimensionReport:
    """Combine the expected dimension, the tropical lower bound from a greedy
    distance-4 ball placement, and the numeric rank of the log-gradient
    differences at one parameter draw."""
    # the tropical matrix, wider than the Jacobian's (k+n+1)m + n columns
    check_cells((1 << (k + n)) * (k + n + 1) * (m + 1),
                f"certify_dimension at (k, n, m) = ({k}, {n}, {m})")
    expected_value, regime = expected_dim(k, n, m)
    grads = _log_grads(random_params(k, n, m, np.random.default_rng(seed)))
    numeric = numeric_rank((grads[:, 1:] - grads[:, :1])
                           .reshape(-1, grads.shape[2]))
    balls = greedy_distance4_balls(k, n, m)
    tropical = tropical_rank_mod_inputs(k, n, m, balls)
    return DimensionReport(
        k=k, n=n, m=m,
        expected_value=expected_value, regime=regime,
        numeric=numeric, tropical=tropical,
        balls_placed=len(balls),
        placement_clean=_placement_clean(k, n, balls),
        agree=numeric == expected_value,
        tropical_consistent=tropical <= numeric,
    )


__all__ = [
    "DimensionReport",
    "certify_dimension",
    "greedy_distance4_balls",
    "numeric_rank",
    "tropical_matrix",
    "tropical_rank_mod_inputs",
]
