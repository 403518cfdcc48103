"""Closed-form bounds and exact small-instance code functions A(n,d), K(n,d).

A(n, d) is the largest subset of {0,1}^n with pairwise Hamming distance at
least d; K(n, d) the smallest set covering {0,1}^n within radius d.  Exact
values are computed by integer programming (HiGHS branch-and-bound) up to
length 6; beyond that only the closed-form bounds are offered.  The two
values the expected dimension needs, A(n, 4) and K(n, 1) for n <= 6, are
read from a constant table that the test suite checks against the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bitspace import popcounts
from .errors import TooLarge
from .packing import feasible_depths, universal_budget

#: exact-search cap for code functions
CODE_CAP = 6
#: A(n, 4) and K(n, 1) for n = 1..CODE_CAP, equal to code_A_exact(n, 4)
#: and code_K_exact(n, 1)
A4_TABLE = (1, 1, 1, 2, 2, 4)
K1_TABLE = (1, 2, 2, 4, 7, 12)


def _distances(n: int) -> np.ndarray:
    """(2^n, 2^n) Hamming distances between the states of {0,1}^n."""
    idx = np.arange(1 << n)
    return popcounts(n)[np.bitwise_xor.outer(idx, idx)]


@lru_cache(maxsize=None)
def code_A_exact(n: int, d: int) -> int:
    """Largest code of length n with minimum distance d (exact, n <= 6)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CODE_CAP:
        raise TooLarge(f"exact A(n,d) capped at n <= {CODE_CAP}")
    if d <= 1:
        return 1 << n
    from scipy.optimize import Bounds, LinearConstraint, milp

    size = 1 << n
    # one row per close pair u < v, in row-major order: x_u + x_v <= 1
    us, vs = np.nonzero(np.triu(_distances(n) < d, 1))
    rows = np.zeros((us.size, size))
    rows[np.arange(us.size), us] = rows[np.arange(us.size), vs] = 1.0
    constraints = [LinearConstraint(rows, -np.inf, 1.0)] if us.size else []
    res = milp(c=-np.ones(size), constraints=constraints,
               integrality=np.ones(size), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"A({n},{d}) search failed: {res.message}")
    return int(round(-res.fun))


@lru_cache(maxsize=None)
def code_K_exact(n: int, d: int) -> int:
    """Smallest radius-d covering code of length n (exact, n <= 6)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CODE_CAP:
        raise TooLarge(f"exact K(n,d) capped at n <= {CODE_CAP}")
    from scipy.optimize import Bounds, LinearConstraint, milp

    cover = (_distances(n) <= d).astype(float)
    size = 1 << n
    res = milp(c=np.ones(size),
               constraints=[LinearConstraint(cover, 1.0, np.inf)],
               integrality=np.ones(size), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"K({n},{d}) search failed: {res.message}")
    return int(round(res.fun))


def code_A_lower(n: int) -> int:
    """Gilbert-Varshamov style lower bound on A(n, 4)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << max(n - math.floor(math.log2(n * n - n + 2)), 0)


def code_K_upper(n: int) -> int:
    """Upper bound 2^(n - floor(log2(n+1))) on K(n, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n - math.floor(math.log2(n + 1)))


def ambient_dim(k: int, n: int) -> int:
    return (1 << k) * ((1 << n) - 1)


def param_count(k: int, n: int, m: int) -> int:
    return (k + n + 1) * m + n


def expected_dim(k: int, n: int, m: int) -> tuple[int, str]:
    """Expected dimension and the regime certifying it.

    Returns (dim, regime) where regime is "parameter-counting" when
    m + 1 <= A(k+n, 4), "full" when m >= K(k+n, 1), and "unresolved"
    (with the min of the two formulas) in the gap between the two
    certified regimes, which is surfaced rather than guessed.
    """
    if k < 0 or n < 1 or m < 0:
        raise ValueError("need k >= 0, n >= 1, m >= 0")
    if m == 0:
        return n, "parameter-counting"
    length = k + n
    if length <= CODE_CAP:
        a4 = A4_TABLE[length - 1]
        k1 = K1_TABLE[length - 1]
    else:
        a4 = code_A_lower(length)
        k1 = code_K_upper(length)
    if m + 1 <= a4:
        return param_count(k, n, m), "parameter-counting"
    if m >= k1:
        return ambient_dim(k, n), "full"
    return min(param_count(k, n, m), ambient_dim(k, n)), "unresolved"


@dataclass(frozen=True)
class BoundsReport:
    k: int
    n: int
    m_by_depth: dict[int, int] = field(default_factory=dict)
    m_min: int | None = None
    best_r: int | None = None
    rbm_route: int | None = None
    necessary: int | None = None


def universal_m_table(k: int, n: int) -> BoundsReport:
    """All depth-r universal budgets, their minimum, the RBM-route bound
    (1/2) 2^(k+n) - 1, and the parameter-counting necessary bound."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0, n >= 1")
    table = {r: universal_budget(k, r, 1 << n) for r in feasible_depths(k)}
    best = min(table, key=table.get) if table else None
    return BoundsReport(
        k=k, n=n,
        m_by_depth=table,
        m_min=table[best] if best is not None else None,
        best_r=best,
        rbm_route=(1 << (k + n - 1)) - 1,
        necessary=-(-(ambient_dim(k, n) - n) // (n + k + 1)),
    )


def divergence_upper(k: int, n: int, m: int) -> float:
    """Best available divergence bound in bits for given hidden-unit count.

    Minimum of: the joint-model bound
    (n+k) - floor(log2(m'+1)) - (m'+1)/2^floor(log2(m'+1)) at
    m' = min(m, 2^(n+k-1) - 1), which is 0 from m' = 2^(n+k-1) - 1 on, where
    the joint RBM is universal;  n (uniform rows are always reachable);  and
    n - l* with l* the largest block width whose partition compiles within m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    joint = min(m, (1 << (n + k - 1)) - 1) + 1
    fl = math.floor(math.log2(joint))
    candidates = [float(n), (n + k) - fl - joint / (1 << fl),
                  float(n - feasible_block_width(k, n, m))]
    return max(min(candidates), 0.0)


def feasible_block_width(k: int, n: int, m: int) -> int:
    """Largest l with m >= 2^(k-S(r)) F(r) (2^l - 1) + E(r) for some r."""
    for l in range(n, 0, -1):
        if any(m >= universal_budget(k, r, 1 << l) for r in feasible_depths(k)):
            return l
    return 0


def _necessary_ceiling(k: int, n: int) -> int:
    """The smallest integer m >= 2^(k/2) - (n+k)^2 / 2n, in exact integer
    arithmetic: for m >= 0 that is 2n m + (n+k)^2 >= sqrt(4 n^2 2^k), whose
    integer left side meets the ceiling of the root."""
    root = math.isqrt(4 * n * n * (1 << k) - 1) + 1
    return -(-(root - (n + k) ** 2) // (2 * n))


def deterministic_m_bounds(k: int, n: int) -> tuple[int, int]:
    """(sufficient, necessary) hidden-unit counts for all deterministic
    policies: min{2^k - 1, ceil(3n/(k+2) 2^k)} and
    max(0, ceil(2^(k/2) - (n+k)^2 / 2n)), both exact."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1, n >= 1")
    sufficient = min((1 << k) - 1, -(-3 * n * (1 << k) // (k + 2)))
    return sufficient, max(0, _necessary_ceiling(k, n))


def deterministic_necessity_check(k: int, n: int) -> bool:
    """Verify the counting inequality behind the necessary bound.

    The number of policies reachable through two stacked threshold maps is
    at most 2^(m(n+k)^2 + n m^2); covering all 2^(n 2^k) deterministic
    policies therefore forces m(n+k)^2 + n m^2 >= n 2^k, whose smallest
    integer solution is >= 2^(k/2) - (n+k)^2/(2n).  Checked in exact integer
    arithmetic: every m below the stated bound violates the count.
    """
    # the largest integer m with 2n*m + (n+k)^2 < 2n * 2^(k/2)
    m_hat = _necessary_ceiling(k, n) - 1
    if m_hat < 0:
        return True  # bound is vacuous; nothing to check
    lhs = m_hat * (n + k) ** 2 + n * m_hat * m_hat
    return lhs < n * (1 << k)
