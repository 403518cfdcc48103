"""Binary Markov random fields and their compilation into (C)RBM weights.

Faces of the interaction structure are bitmasks over the ground set; the
energy of a state v is sum_A theta_A * [A subseteq v].  Compilation cancels
every face of cardinality > 1 outside the kept sub-complex with one hidden
unit whose softplus log-partition term has the face's coefficient as its
top Moebius coefficient (Younes 1996).  The unit's scale solves
top(t) = |rho| on one closed-form curve for both signs of rho, bracketed by
the sign of top(t) - |rho| because the curve dips below zero for faces of
4 or more units; the unit's whole polynomial is also closed form, from two
finite differences, and is subtracted from the residue in one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .bitspace import check_cells, popcounts, set_bits
from .crbm import CrbmParams
from .distributions import Dist
from .errors import BudgetMismatch, NoBracket

#: scale cap for the coefficient solver's bracketing direction
T_MAX = 1e3

SOLVE_TOL = 1e-11


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of subsets of [N], stored as bitmasks."""

    n: int
    faces: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set size must be >= 1")
        if 0 not in self.faces:
            raise ValueError("a simplicial complex contains the empty face")
        for a in self.faces:
            if a & ~((1 << self.n) - 1):
                raise ValueError(f"face {a:b} outside the ground set")
        # one pass per coordinate over the sorted faces, so a sparse complex
        # on a wide ground set allocates nothing of size 2^n
        faces = np.array(sorted(self.faces))
        for i in range(self.n):
            bit = 1 << i
            below = faces[(faces & bit) != 0] ^ bit
            if (faces[np.searchsorted(faces, below)] != below).any():
                raise ValueError("face family is not downward closed")

    @staticmethod
    def full(n: int) -> "SimplicialComplex":
        return SimplicialComplex(n, frozenset(range(1 << n)))

    @staticmethod
    def from_generators(n: int, generators: list[int]) -> "SimplicialComplex":
        faces = {0}
        for g in generators:
            sub = g
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & g
        return SimplicialComplex(n, frozenset(faces))

    @staticmethod
    def singletons(n: int) -> "SimplicialComplex":
        return SimplicialComplex(n, frozenset([0] + [1 << i for i in range(n)]))


@dataclass(frozen=True)
class MrfModel:
    """An interaction structure with one real parameter per face."""

    complex: SimplicialComplex
    theta: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for a, v in self.theta.items():
            if a not in self.complex.faces:
                raise ValueError(f"theta assigned to non-face {a:b}")
            if not np.isfinite(v):
                raise ValueError("non-finite parameter")

    @property
    def n(self) -> int:
        return self.complex.n

    def energy_table(self) -> np.ndarray:
        """E(v) = sum_A theta_A [A subseteq v] over all 2^n states."""
        e = np.zeros(1 << self.n)
        v = np.arange(1 << self.n)
        for a, th in self.theta.items():
            if th:
                e[(v & a) == a] += th
        return e


def mrf_distribution(model: MrfModel) -> Dist:
    """Exact Gibbs distribution by enumeration, log domain."""
    e = model.energy_table()
    e = e - e.max()
    p = np.exp(e)
    return Dist(model.n, p / p.sum())


def _mobius_pass(values: np.ndarray, n: int, sign: float) -> np.ndarray:
    """One pass per coordinate i over the (2^n,) ``values``: each state with
    bit i set gains ``sign`` times its value at the state without it."""
    f = np.asarray(values, dtype=float).copy()
    for i in range(n):
        pairs = f.reshape(-1, 2, 1 << i)   # [high bits, bit i, low bits]
        pairs[:, 1] += sign * pairs[:, 0]
    return f


def mobius_coefficients(table: np.ndarray, n: int) -> np.ndarray:
    """Coefficients J_B with table[v] = sum_{B subseteq v} J_B."""
    return _mobius_pass(table, n, -1.0)


def mobius_forward(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of mobius_coefficients: evaluate the polynomial pointwise."""
    return _mobius_pass(coeffs, n, 1.0)


def _softplus(a: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, a)


@lru_cache(maxsize=None)
def _alternating_binomials(q: int) -> np.ndarray:
    """(q+1, q+1) table of (-1)^(j-i) C(j, i), zero above the diagonal;
    row j applied to (g(0), ..., g(j)) gives the j-th finite difference."""
    table = np.zeros((q + 1, q + 1))
    for j in range(q + 1):
        for i in range(j + 1):
            table[j, i] = (-1) ** (j - i) * comb(j, i)
    table.flags.writeable = False
    return table


def younes_solve(rho: float, n: int) -> tuple[float, float, int, np.ndarray]:
    """Weights (w, b) making the top Moebius coefficient of
    log(1 + exp(w S^eps + b)) equal to rho, plus the unit's whole polynomial.

    For rho >= 0 the sum S runs over all units (eps = +1) and (w, b) scale
    the direction (1, -(N - 1/2)); for rho < 0 the last unit enters with a
    minus sign and the base bias is -(N - 3/2), the image of the positive
    base under x_N -> 1 - x_N.  That substitution maps one unit onto the
    other and negates the top coefficient, so both signs solve
    top(t) = |rho| for the eps = +1 curve
    top(t) = sum_k (-1)^(N-k) C(N,k) log(1 + exp(t (k - N + 1/2))).

    top(0) = 0 and top(t) ~ t/2 for large t, but for N >= 4 top dips below
    zero first: it is negative on (0, t0) with t0 about 0.99 at N = 4, 1.51
    at N = 5, 2.42 at N = 8 and 2.82 at N = 10, with a minimum of -0.008 to
    -0.28, and increasing past t0.  So the bracket is by sign: t_hi doubles,
    its last step clamped to T_MAX, until top(t_hi) >= |rho|, keeping
    top(t_lo) < |rho| <= top(t_hi), and a Newton step that leaves the
    bracket falls back to bisection; NoBracket means top(T_MAX) < |rho|.
    Each step costs O(N).

    The unit's coefficient J_B depends only on j = |B minus {N}| and on
    whether N is in B, so the whole polynomial comes from two j-th finite
    differences of g(k) = log(1 + exp(t (k - N + 1/2))): D_j of g(0..j)
    and D'_j of g(1..j+1).  For eps = +1, J_B = D_j without N and
    D'_j - D_j with it; eps = -1 swaps D and D'.

    Returns (w, b, eps_sign, coeffs) where coeffs[mask] is the coefficient
    of the face mask over the N units; coeffs[-1] is the top coefficient.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    eps_sign = 1 if rho >= 0 else -1
    base_b = -(n - 0.5) if eps_sign == 1 else -(n - 1.5)
    slopes = np.arange(n + 1) - n + 0.5
    row = _alternating_binomials(n)[n]
    row_slopes = row * slopes
    target = abs(rho)

    def top(t: float) -> tuple[float, float]:
        """top(t) and its derivative, sum_k row_k a_k sigmoid(t a_k)."""
        x = t * slopes
        g = _softplus(x)
        return float(row @ g), float(row_slopes @ np.exp(x - g))

    t_star = 0.0
    if rho != 0.0:
        t_lo, t_hi = 0.0, 1.0
        val, slope = top(t_hi)
        while val < target:
            if t_hi >= T_MAX:
                raise NoBracket(f"|rho| = {target} beyond solver scale cap")
            t_lo, t_hi = t_hi, min(2.0 * t_hi, T_MAX)
            val, slope = top(t_hi)
        t_star = t_hi
        for _ in range(200):
            if abs(val - target) <= SOLVE_TOL:
                break
            # a Newton step leaving the bracket, or a flat slope, bisects
            newton = t_star - (val - target) / slope if slope > 0 else t_hi
            t_star = newton if t_lo < newton < t_hi else 0.5 * (t_lo + t_hi)
            val, slope = top(t_star)
            if val < target:
                t_lo = t_star
            else:
                t_hi = t_star

    g = _softplus(t_star * slopes)
    diffs = _alternating_binomials(n - 1)
    d0, d1 = diffs @ g[:-1], diffs @ g[1:]
    without_last, with_last = (d0, d1 - d0) if eps_sign == 1 else (d1, d0 - d1)
    pc = popcounts(n - 1)
    coeffs = np.concatenate([without_last[pc], with_last[pc]])
    return t_star, t_star * base_b, eps_sign, coeffs


def _faces_to_cancel(complex_: SimplicialComplex, keep: set[int]
                     ) -> list[tuple[int, list[int]]]:
    """(mask, sorted bits) of the faces of cardinality > 1 outside the kept
    set, largest first."""
    todo = [(a, set_bits(a)) for a in complex_.faces
            if a.bit_count() > 1 and a not in keep]
    return sorted(todo, key=lambda face: (-len(face[1]), face[1]))


def compile_mrf_to_rbm(model: MrfModel,
                       j_keep: SimplicialComplex | None = None
                       ) -> tuple[CrbmParams, Dist]:
    """RBM weights whose joint equals hadamard(p, correction^-1 ... ), i.e.
    p * correction = RBM joint, with one hidden unit per cancelled face.

    Faces are processed in decreasing cardinality (ties by ascending index
    set); each unit cancels the face's current residue coefficient, and its
    whole polynomial is subtracted from the residue.  Remaining
    cardinality >= 2 coefficients live on kept faces and are returned,
    negated, as the correction distribution; singleton residues become the
    RBM's visible biases.
    """
    n = model.n
    check_cells(1 << n, f"compile_mrf_to_rbm at n = {n}")
    keep = set(j_keep.faces) if j_keep is not None else {0}
    order = _faces_to_cancel(model.complex, keep)

    residue = np.zeros(1 << n)
    for a, th in model.theta.items():
        residue[a] += th

    weights = []
    biases = []
    for a, bits in order:
        w, b, eps_sign, local = younes_solve(float(residue[a]), len(bits))
        unit = np.zeros(n)
        unit[bits] = w
        unit[bits[-1]] *= eps_sign
        weights.append(unit)
        biases.append(b)
        # subtract the unit's full polynomial from the residue; the j-th bit
        # of a local index is the face's j-th coordinate
        masks = np.zeros(1 << len(bits), dtype=np.int64)
        for j, coord in enumerate(bits):
            masks[1 << j:2 << j] = masks[:1 << j] | (1 << coord)
        residue[masks] -= local

    pc = popcounts(n)
    kept = np.zeros(1 << n, dtype=bool)
    kept[list(keep)] = True
    leftovers = np.flatnonzero((pc > 1) & (np.abs(residue) > 1e-8) & ~kept)
    if leftovers.size:
        raise BudgetMismatch(f"uncancelled faces remain: {leftovers.tolist()}")

    m = len(weights)
    params = CrbmParams(
        0, n, m,
        np.array(weights).reshape(m, n),
        np.zeros((m, 0)),
        np.array([residue[1 << s] for s in range(n)]),
        np.array(biases),
    )
    # non-kept residues are certified tiny above; the correction carries
    # exactly the kept cardinality >= 2 coefficients, negated
    corr_theta = {int(v): -float(residue[v]) for v in
                  np.flatnonzero((pc > 1) & kept & (residue != 0))}
    # without kept faces the correction is uniform: no face beyond singletons
    corr_complex = j_keep if j_keep is not None else SimplicialComplex.singletons(n)
    correction = mrf_distribution(MrfModel(corr_complex, corr_theta))
    return params, correction


def compile_conditional_mrf(model: MrfModel, k: int) -> CrbmParams:
    """CRBM reproducing the conditionals of an MRF on [k+n] given the
    first k units; input-only faces are absorbed by the correction and
    input biases are dropped (they cancel in every conditional)."""
    n_total = model.n
    if not 0 <= k < n_total:
        raise ValueError(f"k must be in [0, {n_total - 1}]")
    check_cells(1 << n_total, f"compile_conditional_mrf at n = {n_total}")
    n = n_total - k
    # the input-only faces: every subset of the first k units
    j_keep = SimplicialComplex(n_total, frozenset(range(1 << k)))
    rbm, _ = compile_mrf_to_rbm(model, j_keep)
    w_full = rbm.W  # (m, k+n)
    return CrbmParams(
        k, n, rbm.m,
        w_full[:, k:],
        w_full[:, :k],
        rbm.b[k:],
        rbm.c,
    )
