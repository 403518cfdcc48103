"""Binary Markov random fields and their compilation into (C)RBM weights.

Faces of the interaction structure are bitmasks over the ground set; the
energy of a state v is sum_A theta_A * [A subseteq v].  Compilation cancels
every face of cardinality > 1 outside the kept sub-complex with one hidden
unit whose softplus log-partition term has the face's coefficient as its
top Moebius coefficient; the residue polynomial is recomputed exactly over
the full table after each unit, so no symbolic bookkeeping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .bitspace import check_cells
from .crbm import CrbmParams
from .distributions import Dist
from .errors import BudgetMismatch, NoBracket

#: scale cap for the coefficient solver's bracketing direction
T_MAX = 1e3

SOLVE_TOL = 1e-11


def popcount(mask: int) -> int:
    return bin(mask).count("1")


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
            for i in range(self.n):
                if (a >> i) & 1 and (a ^ (1 << i)) not in self.faces:
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


def mobius_coefficients(table: np.ndarray, n: int) -> np.ndarray:
    """Coefficients J_B with table[v] = sum_{B subseteq v} J_B (in place DP)."""
    f = np.asarray(table, dtype=float).copy()
    for i in range(n):
        bit = 1 << i
        hi = (np.arange(1 << n) & bit) == bit
        f[hi] -= f[np.arange(1 << n)[hi] ^ bit]
    return f


def mobius_forward(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Inverse of mobius_coefficients: evaluate the polynomial pointwise."""
    f = np.asarray(coeffs, dtype=float).copy()
    for i in range(n):
        bit = 1 << i
        hi = (np.arange(1 << n) & bit) == bit
        f[hi] += f[np.arange(1 << n)[hi] ^ bit]
    return f


def _softplus(a: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, a)


def _phi_table(n: int, w: float, b: float, eps_sign: int) -> np.ndarray:
    """log(1 + exp(w S^eps(x) + b)) over {0,1}^n; eps flips the last unit."""
    v = np.arange(1 << n)
    s = np.zeros(1 << n)
    for i in range(n - 1):
        s += (v >> i) & 1
    s += eps_sign * ((v >> (n - 1)) & 1)
    return _softplus(w * s + b)


def younes_top_coefficient(n: int, w: float, b: float, eps_sign: int = 1) -> float:
    """J_[N] = sum_k (-1)^(N-k) C(N,k) log(1+exp(k w + b)) for eps = +1;
    computed by Moebius inversion of the full table in general."""
    if eps_sign == 1:
        ks = np.arange(n + 1)
        binom = np.array([comb(n, int(k)) for k in ks], dtype=float)
        signs = (-1.0) ** (n - ks)
        return float(np.sum(signs * binom * _softplus(w * ks + b)))
    return float(mobius_coefficients(_phi_table(n, w, b, eps_sign), n)[(1 << n) - 1])


def younes_solve(rho: float, n: int) -> tuple[float, float, int, dict[int, float]]:
    """Weights (w, b) making the top Moebius coefficient of
    log(1 + exp(w S^eps + b)) equal to rho, plus the lower-order polynomial.

    For rho >= 0 the sum S runs over all units (eps = +1) and (w, b) scale
    the direction (1, -(N - 1/2)); for rho < 0 the last unit enters with a
    minus sign and the base bias is -(N - 3/2), the image of the positive
    base under the substitution x_N -> 1 - x_N.  The scale is found by
    bracketing and bisection on the top coefficient, which is 0 at scale 0
    and unbounded in |rho|'s direction.

    Returns (w, b, eps_sign, Q) where Q maps every non-top face mask to its
    coefficient.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    eps_sign = 1 if rho >= 0 else -1
    base_b = -(n - 0.5) if eps_sign == 1 else -(n - 1.5)

    def top(t: float) -> float:
        return younes_top_coefficient(n, t, t * base_b, eps_sign)

    if rho == 0.0:
        t_star = 0.0
    else:
        t_hi = 1.0
        while abs(top(t_hi)) < abs(rho):
            t_hi *= 2.0
            if t_hi > T_MAX:
                raise NoBracket(f"|rho| = {abs(rho)} beyond solver scale cap")
        t_lo = 0.0
        for _ in range(200):
            mid = 0.5 * (t_lo + t_hi)
            val = top(mid)
            if abs(val - rho) <= SOLVE_TOL:
                t_lo = t_hi = mid
                break
            if (val - rho) * (1 if rho >= 0 else -1) < 0:
                t_lo = mid
            else:
                t_hi = mid
        t_star = 0.5 * (t_lo + t_hi)

    w, b = t_star, t_star * base_b
    coeffs = mobius_coefficients(_phi_table(n, w, b, eps_sign), n)
    full = (1 << n) - 1
    q = {mask: float(coeffs[mask]) for mask in range(1 << n) if mask != full}
    return w, b, eps_sign, q


def _faces_to_cancel(complex_: SimplicialComplex, keep: set[int]) -> list[int]:
    """Faces of cardinality > 1 outside the kept set, largest first."""
    todo = [a for a in complex_.faces if popcount(a) > 1 and a not in keep]
    return sorted(todo, key=lambda a: (-popcount(a), _sorted_bits(a)))


def _sorted_bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def compile_mrf_to_rbm(model: MrfModel,
                       j_keep: SimplicialComplex | None = None
                       ) -> tuple[CrbmParams, Dist]:
    """RBM weights whose joint equals hadamard(p, correction^-1 ... ), i.e.
    p * correction = RBM joint, with one hidden unit per cancelled face.

    Faces are processed in decreasing cardinality (ties by ascending index
    set); each unit cancels the face's current residue coefficient, and the
    residue polynomial is recomputed exactly after every unit.  Remaining
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
    for a in order:
        bits = _sorted_bits(a)
        q = len(bits)
        rho = float(residue[a])
        w, b, eps_sign, _ = younes_solve(rho, q)
        unit = np.zeros(n)
        for j, coord in enumerate(bits):
            unit[coord] = w * (eps_sign if j == q - 1 else 1)
        weights.append(unit)
        biases.append(b)
        # subtract the unit's full polynomial from the residue
        local = mobius_coefficients(
            _phi_table(q, w, b, eps_sign), q)
        for sub in range(1 << q):
            mask = 0
            for j, coord in enumerate(bits):
                if (sub >> j) & 1:
                    mask |= 1 << coord
            residue[mask] -= local[sub]

    leftovers = [v for v in range(1 << n)
                 if popcount(v) > 1 and abs(residue[v]) > 1e-8 and v not in keep]
    if leftovers:
        raise BudgetMismatch(f"uncancelled faces remain: {leftovers}")

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
    corr_theta = {v: -float(residue[v]) for v in range(1 << n)
                  if popcount(v) > 1 and v in keep and residue[v] != 0}
    corr_complex = j_keep if j_keep is not None else SimplicialComplex.full(n)
    correction = mrf_distribution(MrfModel(corr_complex, corr_theta))
    return params, correction


def conditional_budget(complex_: SimplicialComplex, k: int) -> int:
    """|{A in I : A not subseteq [k], |A| > 1}|, the hidden-unit count."""
    input_mask = (1 << k) - 1
    return sum(1 for a in complex_.faces
               if popcount(a) > 1 and a & ~input_mask)


def compile_conditional_mrf(model: MrfModel, k: int) -> CrbmParams:
    """CRBM reproducing the conditionals of an MRF on [k+n] given the
    first k units; input-only faces are absorbed by the correction and
    input biases are dropped (they cancel in every conditional)."""
    n_total = model.n
    if not 0 <= k < n_total:
        raise ValueError(f"k must be in [0, {n_total - 1}]")
    check_cells(1 << n_total, f"compile_conditional_mrf at n = {n_total}")
    n = n_total - k
    input_mask = (1 << k) - 1
    j_keep = SimplicialComplex(n_total, frozenset(
        a for a in range(1 << n_total) if (a & ~input_mask) == 0))
    rbm, _ = compile_mrf_to_rbm(model, j_keep)
    w_full = rbm.W  # (m, k+n)
    return CrbmParams(
        k, n, rbm.m,
        w_full[:, k:],
        w_full[:, :k],
        rbm.b[k:],
        rbm.c,
    )


def conditional_family_model(k: int, output_complex: SimplicialComplex,
                             theta_rows: list[dict[int, float]]) -> MrfModel:
    """Joint MRF on [k+n] whose conditional at input x is the output-field
    distribution with parameters theta_rows[x].

    The per-face map x -> theta^x_B is extended multilinearly over the input
    cube, so the joint's faces live in the product complex 2^[k] x J.
    """
    n = output_complex.n
    if len(theta_rows) != (1 << k):
        raise ValueError("need one theta row per input state")
    faces = set()
    theta: dict[int, float] = {}
    for b_face in output_complex.faces:
        coeff = mobius_coefficients(
            np.array([theta_rows[x].get(b_face, 0.0) for x in range(1 << k)]), k)
        for a_face in range(1 << k):
            mask = a_face | (b_face << k)
            faces.add(mask)
            if coeff[a_face]:
                theta[mask] = float(coeff[a_face])
    # close downward over the product complex
    for a_face in range(1 << k):
        for b_face in output_complex.faces:
            faces.add(a_face | (b_face << k))
    joint_complex = SimplicialComplex(k + n, frozenset(faces))
    return MrfModel(joint_complex, theta)
