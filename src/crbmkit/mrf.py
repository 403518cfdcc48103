"""Binary Markov random fields and their compilation into (C)RBM weights.

Faces of the interaction structure are bitmasks over the ground set; the
energy of a state v is sum_A theta_A * [A subseteq v].  Compilation given
the first k units cancels every face of cardinality > 1 not inside those
inputs with one hidden unit whose softplus log-partition term has the
face's coefficient as its top Moebius coefficient (Younes 1996); the joint
compile is the one given no inputs.  The unit's scale solves
top(t) = |rho| on one closed-form curve for both signs of rho, bracketed by
the sign of top(t) - |rho| because the curve dips below zero for faces of
4 or more units; the bracket's ends t = 2^j are read off a table of the
curve cached per cardinality, with no fixed cap.  The unit's whole
polynomial is also closed form, from two finite differences.  A unit
changes only the residues of subsets of its face, so all faces of one
cardinality are solved together: one masked solve per cardinality level,
and one scatter subtracting that level's polynomials from the residue.
A complex is closed downward, so every subset a unit touches is a face:
the residue lives per face, one slot of the complex's sorted face array
each, and nothing of size 2^n is built by the cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb
from operator import or_

import numpy as np

from .bitspace import check_cells, popcounts, set_bits, state_bits
from .crbm import CrbmParams
from .distributions import Dist
from .errors import BudgetMismatch, NoBracket, TooLarge

SOLVE_TOL = 1e-11
#: cells (8 bytes each) charged per enumerated subset by ``full`` and
#: ``from_generators``, before they enumerate: the face set, its sorted
#: copy and the face array; tracemalloc peaks at 83.6-85.0 B per face for
#: ``full`` and 147.4-149.0 B per subset of one generator for
#: ``from_generators`` (CPython 3.11, n = 12, 14, 16, 18), rounded up
FACE_CELLS = 19


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of subsets of [N], stored as bitmasks; at
    most 63 units, so that every face is an int64 mask."""

    n: int
    faces: frozenset[int]
    #: the faces, ascending, as a read-only int64 array
    face_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set size must be >= 1")
        if self.n > 63:
            raise TooLarge(f"a complex on {self.n} units: faces are int64 "
                           f"masks, capped at the 63-unit limit")
        if 0 not in self.faces:
            raise ValueError("a simplicial complex contains the empty face")
        for a in self.faces:
            if a & ~((1 << self.n) - 1):
                raise ValueError(f"face {a:b} outside the ground set")
        # one pass per coordinate over the sorted faces, so a sparse complex
        # on a wide ground set allocates nothing of size 2^n
        faces = np.array(sorted(self.faces), dtype=np.int64)
        for i in range(self.n):
            bit = 1 << i
            below = faces[(faces & bit) != 0] ^ bit
            if (faces[np.searchsorted(faces, below)] != below).any():
                raise ValueError("face family is not downward closed")
        faces.flags.writeable = False
        object.__setattr__(self, "face_array", faces)

    @staticmethod
    def full(n: int) -> "SimplicialComplex":
        check_cells((1 << n) * FACE_CELLS, f"the full complex on {n} units")
        return SimplicialComplex(n, frozenset(range(1 << n)))

    @staticmethod
    def from_generators(n: int, generators: list[int]) -> "SimplicialComplex":
        # before pricing: a negative mask never enumerates down to 0 (n < 1
        # is the complex's to refuse)
        for g in generators:
            if not 0 <= g < 1 << max(n, 1):
                raise ValueError(f"face {g:b} outside the ground set")
        subsets = sum(1 << g.bit_count() for g in generators)
        check_cells(subsets * FACE_CELLS, f"a complex on {n} units from "
                    f"generators with {subsets} subsets")
        faces = {0}
        for g in generators:
            sub = g
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & g
        return SimplicialComplex(n, frozenset(faces))


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
        """E(v) = sum_A theta_A [A subseteq v] over all 2^n states.

        E(v) depends only on the bits of v that some face of theta uses, so
        the table is the Moebius transform of theta on the cube of those
        bits, read at each state's used bits: a field on a few units costs
        a few passes over the 2^n states, not n.
        """
        check_cells(1 << self.n, f"the energy table at n = {self.n}")
        used = set_bits(reduce(or_, self.theta, 0))
        states = np.arange(1 << self.n)
        local = np.zeros_like(states)       # each state's used bits, packed
        for j, bit in enumerate(used):
            local |= ((states >> bit) & 1) << j
        coeffs = np.zeros(1 << len(used))
        coeffs[local[list(self.theta)]] = list(self.theta.values())
        return mobius_forward(coeffs, len(used))[local]


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


def _top_curve(t: np.ndarray, slopes: np.ndarray, row: np.ndarray,
               row_slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """top(t) = sum_k row_k softplus(t a_k) and its derivative
    sum_k row_k a_k sigmoid(t a_k) at each entry of the 1-D ``t``, for the
    slopes a_k = ``slopes`` and ``row_slopes`` = row * slopes."""
    x = t[:, None] * slopes
    g = _softplus(x)
    return g @ row, np.exp(x - g) @ row_slopes


#: the bracket ends 0 and t = 2^j, j = 0..1023; 2^1024 overflows float64
_BRACKET_ENDS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(1024))])


@lru_cache(maxsize=None)
def _bracket_table(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """top(2^j), its slope there and top's running max over j = 0..1023,
    for faces of cardinality q.  The running max first reaches |rho| at the
    first j with top(2^j) >= |rho|."""
    slopes = np.arange(q + 1) - q + 0.5
    row = _alternating_binomials(q)[q]
    # t * slopes overflows to -inf near t = 2^1023, where softplus is 0
    with np.errstate(over="ignore"):
        tops, rises = _top_curve(_BRACKET_ENDS[1:], slopes, row, row * slopes)
    reach = np.maximum.accumulate(tops)
    for a in (tops, rises, reach):
        a.flags.writeable = False
    return tops, rises, reach


def younes_solve(rho: np.ndarray, n: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights (w, b) making the top Moebius coefficient of
    log(1 + exp(w S^eps + b)) equal to rho, plus the unit's whole polynomial,
    for each entry of the 1-D array ``rho`` of residues of faces of one
    cardinality N = ``n``.

    For rho >= 0 the sum S runs over all units (eps = +1) and (w, b) scale
    the direction (1, -(N - 1/2)); for rho < 0 the last unit enters with a
    minus sign and the base bias is -(N - 3/2), the image of the positive
    base under x_N -> 1 - x_N.  That substitution maps one unit onto the
    other and negates the top coefficient, so both signs solve
    top(t) = |rho| for the eps = +1 curve
    top(t) = sum_k (-1)^(N-k) C(N,k) log(1 + exp(t (k - N + 1/2))).

    top(0) = 0 and top(t) ~ t/2 for large t, but for N >= 4 top dips below
    zero first, to a minimum of -0.008 at N = 4, -0.17 at N = 8, -0.28 at
    N = 10, -0.38 at N = 12 and -0.48 at N = 14, and is positive and
    increasing past its last sign change t0, about 0.99 at N = 4, 1.51 at
    N = 5, 2.42 at N = 8, 2.82 at N = 10 and 3.13 at N = 12.  Only for
    N <= 5 is top negative on all of (0, t0): from N = 6 on it changes sign
    several times below t0 (at N = 8 near t = 0.18, 0.71 and 2.42), and from
    N = 11 on top(1) > 0 (+0.0115 at N = 12, +0.023 at N = 14), so for
    |rho| under that bump the bracket is (0, 1] and the root lies before
    the dip.  So the bracket is by sign, at the first t_hi = 2^j, j >= 0,
    with top(t_hi) >= |rho|, and t_lo = t_hi / 2 (0 at j = 0), keeping
    top(t_lo) < |rho| <= top(t_hi): the bracket a doubling from t = 1
    stops at, with no fixed cap.  It is read off a table of top(2^j) and
    its slope for j = 0..1023, built once per N, by a binary search of
    top's running max over j; a Newton step that leaves the bracket falls
    back to bisection.  Every face keeps its own bracket and trajectory in
    one masked loop, and stops once |top - |rho|| <= SOLVE_TOL; each step
    costs O(N) per face still running.  NoBracket means float64 cannot hold
    the solve: top(2^1023) is still below |rho| (2^1024 overflows), or a
    face is still off after 200 steps.

    The unit's coefficient J_B depends only on j = |B minus {N}| and on
    whether N is in B, so the whole polynomial comes from two j-th finite
    differences of g(k) = log(1 + exp(t (k - N + 1/2))): D_j of g(0..j)
    and D'_j of g(1..j+1).  For eps = +1, J_B = D_j without N and
    D'_j - D_j with it; eps = -1 swaps D and D'.

    Returns arrays (w, b, eps_sign, coeffs), one entry (row) per face;
    coeffs[f, mask] is face f's coefficient of the face mask over its N
    units, and coeffs[:, -1] are the top coefficients.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ValueError("rho must be a 1-D array of residues")
    target = np.abs(rho)
    eps_sign = np.where(rho >= 0, 1, -1)
    base_b = np.where(eps_sign == 1, -(n - 0.5), -(n - 1.5))
    slopes = np.arange(n + 1) - n + 0.5
    row = _alternating_binomials(n)[n]
    row_slopes = row * slopes

    t_lo = np.zeros(rho.shape)
    t_hi = np.zeros(rho.shape)
    t_star = np.zeros(rho.shape)
    val = np.zeros(rho.shape)
    slope = np.zeros(rho.shape)

    live = np.flatnonzero(rho != 0.0)
    # top(t) <= t/2, so t leaves float64 before top(t) can reach |rho|
    tops, rises, reach = _bracket_table(n)
    j = np.searchsorted(reach, target[live])
    if (j == reach.size).any():
        f = live[j == reach.size][0]
        raise NoBracket(f"q = {n}, |rho| = {target[f]:.6g}: residual "
                        f"{target[f] - tops[-1]:.6g} at the largest finite "
                        f"t = {_BRACKET_ENDS[-1]:.6g}")
    t_lo[live], t_hi[live] = _BRACKET_ENDS[j], _BRACKET_ENDS[j + 1]
    t_star[live], val[live], slope[live] = t_hi[live], tops[j], rises[j]
    live = live[np.abs(val[live] - target[live]) > SOLVE_TOL]
    for _ in range(200):
        if not live.size:
            break
        # a Newton step leaving the bracket bisects; so does a flat slope,
        # whose zero step stays at t_star, always an end of the bracket
        lo, hi, s = t_lo[live], t_hi[live], slope[live]
        newton = t_star[live] - (val[live] - target[live]) / np.where(s > 0, s, np.inf)
        t = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        t_star[live] = t
        val[live], slope[live] = _top_curve(t, slopes, row, row_slopes)
        below = val[live] < target[live]
        t_lo[live[below]] = t[below]
        t_hi[live[~below]] = t[~below]
        live = live[np.abs(val[live] - target[live]) > SOLVE_TOL]
    if live.size:
        f = live[0]
        raise NoBracket(f"q = {n}, |rho| = {target[f]:.6g}: residual "
                        f"{abs(val[f] - target[f]):.3g} > SOLVE_TOL after 200 steps")

    g = _softplus(t_star[:, None] * slopes)
    diffs = _alternating_binomials(n - 1).T
    d0, d1 = g[:, :-1] @ diffs, g[:, 1:] @ diffs
    plus = (eps_sign == 1)[:, None]
    without_last = np.where(plus, d0, d1)
    with_last = np.where(plus, d1 - d0, d0 - d1)
    pc = popcounts(n - 1)
    coeffs = np.concatenate([without_last[:, pc], with_last[:, pc]], axis=1)
    return t_star, t_star * base_b, eps_sign, coeffs


def _cardinalities(faces: np.ndarray) -> np.ndarray:
    """|A| for each int64 face mask A, summed over its eight bytes."""
    return popcounts(8)[faces.view(np.uint8)].reshape(faces.size, 8).sum(
        axis=1, dtype=np.intp)


def _slots(faces: np.ndarray, n: int, masks: np.ndarray) -> np.ndarray:
    """The slot of each face mask in the sorted ``faces``; in the full
    complex on n units a face's slot is its mask."""
    return masks if faces.size == 1 << n else np.searchsorted(faces, masks)


def _cancelled(faces: np.ndarray, card: np.ndarray, k: int) -> np.ndarray:
    """The ``faces`` (of cardinalities ``card``) of cardinality > 1 not
    inside the first k units; below 2^63, so a shift by 63 clears them."""
    return (card > 1) & (faces >> min(k, 63) != 0)


def _cancel_faces(model: MrfModel, k: int, what: str) -> CrbmParams:
    """The CRBM given the first k units: one hidden unit per face of
    cardinality > 1 not inside them, its weights on the first k units the
    input weights V and on the rest the output weights W.  The output
    biases are the output units' singleton residues (the inputs' cancel in
    every conditional and are dropped), and the other cancelled faces are
    certified below 1e-8.  At k = 0 every face of cardinality > 1 is cancelled: that is the
    joint compile, whose correction is uniform.

    The residue lives per face slot; theta and the subset masks find their
    slots by binary search.  Faces are processed in decreasing cardinality
    (ties by ascending index set); each unit cancels the face's current
    residue coefficient, and its whole polynomial is subtracted from the
    residue.  A unit changes only the residues of subsets of its face, so
    every face of one cardinality has its residue fixed before any of them
    is solved: each level is one ``younes_solve`` call, and its polynomials
    are subtracted in face order by one scatter.  Before the first solve,
    the residue, the (m, n) weights and each level's (f_q, 2^q) subset masks
    and coefficients are checked against the cell limit under ``what``.
    """
    n, faces = model.n, model.complex.face_array
    card = _cardinalities(faces)
    cancel = _cancelled(faces, card, k)
    per_level = np.bincount(card[cancel], minlength=2).tolist()
    check_cells(max([faces.size, n * sum(per_level)]
                    + [f << q for q, f in enumerate(per_level)]), what)
    residue = np.zeros(faces.size)
    theta = np.fromiter(model.theta, np.int64, len(model.theta))
    residue[_slots(faces, n, theta)] += np.fromiter(model.theta.values(), float,
                                                    len(model.theta))

    # the coordinates of every cancelled face's set bits, face by face
    rows, cols = np.nonzero(state_bits(n, faces[cancel]))
    card_of = card[cancel][rows]
    weights = [np.zeros((0, n))]
    biases = [np.zeros(0)]
    for q in range(len(per_level) - 1, 1, -1):
        if not per_level[q]:
            continue
        bits = cols[card_of == q].reshape(-1, q)
        bits = bits[np.lexsort(bits.T[::-1])]   # rows ascend by index set
        f = len(bits)
        # slots[i, l] is the face-i subset whose j-th coordinate is the j-th
        # bit of the local index l; l = 2^q - 1 is the face itself
        slots = _slots(faces, n, (1 << bits) @ state_bits(q).T.astype(np.int64))
        w, b, eps_sign, local = younes_solve(residue[slots[:, -1]], q)
        units = np.zeros((f, n))
        units[np.arange(f)[:, None], bits] = w[:, None]
        units[np.arange(f), bits[:, -1]] *= eps_sign
        weights.append(units)
        biases.append(b)
        np.subtract.at(residue, slots, local)

    leftovers = faces[cancel & (np.abs(residue) > 1e-8)]
    if leftovers.size:
        raise BudgetMismatch(f"uncancelled faces remain: {leftovers.tolist()}")

    weights = np.concatenate(weights)
    visible = np.zeros(n)
    singletons = card == 1
    # the exponent frexp returns for the singleton 2^i is i + 1
    visible[np.frexp(faces[singletons])[1] - 1] = residue[singletons]
    return CrbmParams(k, n - k, len(weights), weights[:, k:], weights[:, :k],
                      visible[k:], np.concatenate(biases))


def compile_mrf_to_rbm(model: MrfModel) -> tuple[CrbmParams, Dist]:
    """RBM weights whose joint is the field's Gibbs law, with one hidden unit
    per face of cardinality > 1: the compile given no inputs (see
    ``_cancel_faces``), whose singleton residues become the visible biases.
    The correction, with p * correction = RBM joint, is uniform."""
    n = model.n
    what = f"compile_mrf_to_rbm at n = {n}"
    check_cells(1 << n, what)   # the correction is a 2^n distribution
    return _cancel_faces(model, 0, what), Dist.uniform(n)


def conditional_budget(complex_: SimplicialComplex, k: int) -> int:
    """The hidden units ``compile_conditional_mrf`` spends given the first k
    units (``compile_mrf_to_rbm``'s at k = 0): one per face of cardinality
    > 1 that is not a subset of the inputs."""
    if k < 0:
        raise ValueError("k must be >= 0")
    faces = complex_.face_array
    return int(np.count_nonzero(_cancelled(faces, _cardinalities(faces), k)))


def compile_conditional_mrf(model: MrfModel, k: int) -> CrbmParams:
    """CRBM reproducing the conditionals of an MRF on [k+n] given the
    first k units.  Input-only faces get no hidden unit and input biases
    are dropped: both cancel in every conditional, so no correction is
    built, and the compile is priced on the faces it cancels."""
    n_total = model.n
    if not 0 <= k < n_total:
        raise ValueError(f"k must be in [0, {n_total - 1}]")
    return _cancel_faces(model, k, f"compile_conditional_mrf at n = {n_total}")
