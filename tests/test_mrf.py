import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from crbmkit import bitspace, mrf
from crbmkit.bitspace import popcounts, set_bits
from crbmkit.crbm import eval_conditional, eval_joint_rbm
from crbmkit.distributions import Dist, conditional_of_joint, tv_row_distance
from crbmkit.errors import CapExceeded, NoBracket, TooLarge
from crbmkit.mrf import (
    FACE_CELLS,
    SOLVE_TOL,
    MrfModel,
    SimplicialComplex,
    compile_conditional_mrf,
    compile_mrf_to_rbm,
    conditional_budget,
    mobius_coefficients,
    mobius_forward,
    mrf_distribution,
    younes_solve,
)


def singletons(n):
    """The complex of the empty face and the n singletons."""
    return SimplicialComplex(n, frozenset([0] + [1 << i for i in range(n)]))


def joint_tv(model, params, corr):
    """Summed absolute difference between the field's Gibbs law and the
    compiled RBM's joint; the compile's correction field must be uniform."""
    assert np.array_equal(corr.probs, Dist.uniform(model.complex.n).probs)
    return np.abs(mrf_distribution(model).probs
                  - eval_joint_rbm(params).probs).sum()


def conditional_family_model(k, output_complex, theta_rows):
    """Joint MRF on [k+n] whose conditional at input x is the output-field
    distribution with parameters theta_rows[x].

    The per-face map x -> theta^x_B is extended multilinearly over the input
    cube, so the joint's faces live in the product complex 2^[k] x J.
    """
    n = output_complex.n
    assert len(theta_rows) == 1 << k
    faces = set()
    theta = {}
    for b_face in output_complex.faces:
        coeff = mobius_coefficients(
            np.array([theta_rows[x].get(b_face, 0.0) for x in range(1 << k)]), k)
        for a_face in range(1 << k):
            mask = a_face | (b_face << k)
            faces.add(mask)
            if coeff[a_face]:
                theta[mask] = float(coeff[a_face])
    return MrfModel(SimplicialComplex(k + n, frozenset(faces)), theta)


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(2, frozenset([0, 3]))  # missing the singletons
    full = SimplicialComplex.full(3)
    assert len(full.faces) == 8
    gen = SimplicialComplex.from_generators(3, [0b011, 0b110])
    assert 0b011 in gen.faces and 0b110 in gen.faces and 0b101 not in gen.faces


@pytest.mark.parametrize("generator", [-1, -2, 8, 2 ** 62 - 1, 2 ** 63])
def test_generators_outside_the_ground_set_are_refused(generator):
    # a negative mask never enumerates down to 0, and a mask past the
    # ground set is a face outside it, not a pricing question
    with pytest.raises(ValueError, match="outside the ground set"):
        SimplicialComplex.from_generators(3, [0b011, generator])


def test_mrf_distribution_examples():
    full = SimplicialComplex.full(3)
    assert np.allclose(mrf_distribution(MrfModel(full, {})).probs, 1 / 8)

    # singleton interactions: a product with the given logits
    theta = {0b001: 0.5, 0b010: -1.0, 0b100: 2.0}
    p = mrf_distribution(MrfModel(singletons(3), theta))
    expect = np.ones(8)
    for v in range(8):
        for i, th in enumerate((0.5, -1.0, 2.0)):
            if (v >> i) & 1:
                expect[v] *= np.exp(th)
    expect /= expect.sum()
    assert np.allclose(p.probs, expect)

    # a single top interaction, checked against plain enumeration
    p = mrf_distribution(MrfModel(full, {0b111: 2.0}))
    expect = np.array([np.exp(2.0 if v == 7 else 0.0) for v in range(8)])
    expect /= expect.sum()
    assert np.allclose(p.probs, expect)


def test_mobius_transforms_are_inverse():
    rng = np.random.default_rng(0)
    for n in range(1, 8):
        table = rng.standard_normal(1 << n)
        coeffs = mobius_coefficients(table, n)
        assert np.abs(mobius_forward(coeffs, n) - table).max() < 1e-12


def younes_top_coefficient(n: int, w: float, b: float, eps_sign: int = 1) -> float:
    """Oracle: J_[N] of log(1 + exp(w S^eps + b)), term by term.  For eps = +1
    it is sum_k (-1)^(N-k) C(N,k) log(1 + exp(k w + b)); x_N -> 1 - x_N turns
    the eps = -1 unit into the eps = +1 unit with bias b - w and negates it."""
    shift = b if eps_sign == 1 else b - w
    top = sum((-1) ** (n - k) * comb(n, k) * float(np.logaddexp(0.0, k * w + shift))
              for k in range(n + 1))
    return top if eps_sign == 1 else -top


#: the scalar oracle's bracket cap; it refuses |rho| above top(1e3), about 500
ORACLE_T_MAX = 1e3


def scalar_younes_solve(rho: float, q: int) -> tuple[float, float, int, np.ndarray]:
    """Oracle: one face at a time, with the bracket, Newton/bisection steps
    and finite differences of the batched solve, in 1-D dot products."""
    eps_sign = 1 if rho >= 0 else -1
    base_b = -(q - 0.5) if eps_sign == 1 else -(q - 1.5)
    slopes = np.arange(q + 1) - q + 0.5
    binomials = np.array([[(-1) ** (j - i) * comb(j, i) if i <= j else 0
                           for i in range(q + 1)] for j in range(q + 1)], dtype=float)
    row = binomials[q]
    target = abs(rho)

    def top(t):
        x = t * slopes
        g = np.logaddexp(0.0, x)
        return float(row @ g), float((row * slopes) @ np.exp(x - g))

    t_star = 0.0
    if rho != 0.0:
        t_lo, t_hi = 0.0, 1.0
        val, slope = top(t_hi)
        while val < target:
            if t_hi >= ORACLE_T_MAX:
                raise NoBracket(f"|rho| = {target} beyond the oracle's cap")
            t_lo, t_hi = t_hi, min(2.0 * t_hi, ORACLE_T_MAX)
            val, slope = top(t_hi)
        t_star = t_hi
        for _ in range(200):
            if abs(val - target) <= SOLVE_TOL:
                break
            newton = t_star - (val - target) / slope if slope > 0 else t_hi
            t_star = newton if t_lo < newton < t_hi else 0.5 * (t_lo + t_hi)
            val, slope = top(t_star)
            if val < target:
                t_lo = t_star
            else:
                t_hi = t_star

    g = np.logaddexp(0.0, t_star * slopes)
    diffs = binomials[:q, :q]
    d0, d1 = diffs @ g[:-1], diffs @ g[1:]
    without_last, with_last = (d0, d1 - d0) if eps_sign == 1 else (d1, d0 - d1)
    pc = popcounts(q - 1)
    return t_star, t_star * base_b, eps_sign, np.concatenate([without_last[pc],
                                                             with_last[pc]])


def test_younes_solve_examples():
    # rho = 0: scale 0, only the constant survives
    w, b, eps, q = younes_solve(np.array([0.0]), 3)
    assert w[0] == 0.0 and b[0] == 0.0
    assert q[0, 0] == pytest.approx(np.log(2.0))
    assert np.abs(q[0, 1:]).max() < 1e-15

    # N = 1: the two-point inversion solves directly
    w, b, eps, q = younes_solve(np.array([0.8]), 1)
    direct = np.log1p(np.exp(w[0] + b[0])) - np.log1p(np.exp(b[0]))
    assert direct == pytest.approx(0.8, abs=1e-10)

    # N = 3: independent recomputation of the top coefficient, one call
    rhos = (2.0, 0.3, -1.5, -4.0)
    w, b, eps, q = younes_solve(np.array(rhos), 3)
    assert w.shape == b.shape == eps.shape == (4,) and q.shape == (4, 8)
    for i, rho in enumerate(rhos):
        assert eps[i] == (1 if rho >= 0 else -1)
        got = younes_top_coefficient(3, w[i], b[i], eps[i])
        assert got == pytest.approx(rho, abs=1e-10)
        assert q[i, 7] == pytest.approx(rho, abs=1e-10)
        # the polynomial identity holds pointwise
        s = np.array([bin(v & 0b011).count("1") + eps[i] * ((v >> 2) & 1)
                      for v in range(8)])
        table = np.logaddexp(0.0, w[i] * s + b[i])
        assert np.abs(mobius_forward(q[i], 3) - table).max() < 1e-10


def test_younes_solve_takes_one_level():
    with pytest.raises(ValueError):
        younes_solve(0.5, 2)
    w, b, eps, coeffs = younes_solve(np.zeros(0), 4)
    assert w.shape == b.shape == eps.shape == (0,) and coeffs.shape == (0, 16)


@pytest.mark.parametrize("q", range(1, 11))
def test_batched_solve_matches_the_scalar_oracle(q):
    rng = np.random.default_rng(400 + q)
    rhos = [0.0, *rng.normal(0.0, 3.0, 12), *rng.uniform(-40.0, 40.0, 4)]
    if 5 <= q <= 8:
        rhos += [0.05, -0.05, 1e-6, -1e-6]   # past the dip of top(t) < 0
    w, b, eps, coeffs = younes_solve(np.array(rhos), q)
    for i, rho in enumerate(rhos):
        w1, b1, eps1, coeffs1 = scalar_younes_solve(rho, q)
        assert eps[i] == eps1
        assert abs(w[i] - w1) <= 1e-12 and abs(b[i] - b1) <= 1e-12
        assert np.abs(coeffs[i] - coeffs1).max() <= 1e-12
        assert abs(coeffs[i, -1] - rho) <= SOLVE_TOL


def doubling_bracket(rho: float, q: int) -> int:
    """Oracle: the j at which a bracket doubling t_hi from 1 stops, the
    first j with top(2^j) >= |rho|, one scalar curve value at a time."""
    j = 0
    while younes_top_coefficient(q, 2.0 ** j, -(2.0 ** j) * (q - 0.5)) < abs(rho):
        j += 1
    return j


@pytest.mark.parametrize("q", range(1, 17))
def test_table_bracket_matches_the_doubling_loop(q):
    # top(t) is not monotone below its dip, and from q = 11 on top(1) > 0
    # (+0.0115 at q = 12, +0.023 at q = 14): |rho| = 1e-3 lies under that
    # bump, so its bracket is (0, 1] and the root comes before the dip
    mags = np.logspace(-9, 6, 31)
    rhos = np.concatenate([mags, -mags])
    w, b, eps, coeffs = younes_solve(rhos, q)
    for i, rho in enumerate(rhos):
        j = doubling_bracket(rho, q)
        lo = 2.0 ** (j - 1) if j else 0.0
        assert lo < w[i] <= 2.0 ** j
        # the oracle rounds its arguments k w + b, of size up to q w, so
        # past |rho| ~ 1e4 its own error exceeds SOLVE_TOL
        tol = SOLVE_TOL + 2 * np.finfo(float).eps * q * w[i]
        assert abs(younes_top_coefficient(q, w[i], b[i], eps[i]) - rho) <= tol
    if q in (12, 14):
        assert doubling_bracket(1e-3, q) == 0


def phi_table(q: int, w: float, b: float, eps: int) -> np.ndarray:
    """log(1 + exp(w S^eps(x) + b)) over {0,1}^q; eps flips the last unit."""
    v = np.arange(1 << q)
    s = sum((v >> i) & 1 for i in range(q - 1)) + eps * ((v >> (q - 1)) & 1)
    return np.logaddexp(0.0, w * s + b)


@pytest.mark.parametrize("q", range(1, 11))
def test_closed_form_matches_mobius_of_the_softplus_table(q):
    top = mobius_coefficients(phi_table(q, 1.3, -0.4, 1), q)[-1]
    assert younes_top_coefficient(q, 1.3, -0.4, 1) == pytest.approx(top, abs=1e-12)
    top = mobius_coefficients(phi_table(q, 1.3, -0.4, -1), q)[-1]
    assert younes_top_coefficient(q, 1.3, -0.4, -1) == pytest.approx(top, abs=1e-12)
    # x_N -> 1 - x_N maps the eps = -1 unit on the eps = +1 unit
    for t in (0.3, 1.0, 2.5, 7.0):
        plus = mobius_coefficients(phi_table(q, t, -t * (q - 0.5), 1), q)[-1]
        minus = mobius_coefficients(phi_table(q, t, -t * (q - 1.5), -1), q)[-1]
        assert minus == pytest.approx(-plus, abs=1e-12)
    rhos = (0.7, -0.7, 0.05, -0.05)
    w, b, eps, coeffs = younes_solve(np.array(rhos), q)
    for i in range(len(rhos)):
        want = mobius_coefficients(phi_table(q, w[i], b[i], eps[i]), q)
        assert np.abs(coeffs[i] - want).max() <= 1e-12


@pytest.mark.parametrize("q", [5, 6, 7, 8])
@pytest.mark.parametrize("rho", [0.05, -0.05, 1e-6, -1e-6])
def test_solve_crosses_the_dip_below_zero(q, rho):
    # top(t) < 0 on (0, 1.5-2.4) at these q: a bracket on |top| stops there
    (w,), (b,), (eps,), _ = younes_solve(np.array([rho]), q)
    assert abs(younes_top_coefficient(q, w, b, eps) - rho) <= 1e-10
    top = mobius_coefficients(phi_table(q, w, b, eps), q)[-1]
    assert abs(top - rho) <= 1e-10


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_compile_full_complexes_n5_to_n8(n):
    rng = np.random.default_rng(10 + n)
    full = SimplicialComplex.full(n)
    theta = {a: float(rng.standard_normal()) for a in full.faces if a}
    model = MrfModel(full, theta)
    params, corr = compile_mrf_to_rbm(model)
    assert params.m == (1 << n) - 1 - n
    assert joint_tv(model, params, corr) <= 1e-6
    cparams = compile_conditional_mrf(model, 1)
    assert cparams.m == (1 << n) - 1 - n
    want = conditional_of_joint(mrf_distribution(model), 1)
    assert tv_row_distance(want, eval_conditional(cparams)) <= 1e-6


def test_younes_no_bracket():
    # the bracket doubles until top(t_hi) >= |rho| with no fixed cap, so
    # every |rho| float64 can hold solves; a pair unit's top(t) is about t/2
    rhos = ((300.0, 2), (-300.0, 2), (499.0, 2), (400.0, 3), (501.0, 2),
            (1e6, 2), (-1e6, 2), (2.5e3, 7))
    for rho, q in rhos:
        (w,), (b,), (eps,), coeffs = younes_solve(np.array([rho]), q)
        assert coeffs[0, -1] == pytest.approx(rho, abs=1e-9)
        assert younes_top_coefficient(q, w, b, eps) == pytest.approx(rho, abs=1e-9)
    # top(t) ~ t/2 needs t ~ 2e308, which overflows to inf
    with pytest.raises(NoBracket, match=r"q = 2, \|rho\| = 1e\+308: residual"):
        younes_solve(np.array([0.5, 1e308]), 2)


def test_younes_refuses_a_face_still_off_after_200_steps(monkeypatch):
    # no face can meet a negative tolerance, so every step is spent
    monkeypatch.setattr(mrf, "SOLVE_TOL", -1.0)
    with pytest.raises(NoBracket, match=r"q = 3, \|rho\| = 0.7: residual .* "
                                        r"> SOLVE_TOL after 200 steps"):
        younes_solve(np.array([0.0, -0.7, 0.7]), 3)


def sequential_compile(model: MrfModel, keep: frozenset[int]):
    """Oracle: the face-at-a-time compile on the scalar solve.  It asserts
    the premise of the batched compile: no unit moves the residue of any
    other face of its cardinality or a larger one."""
    n = model.n
    card = popcounts(n)
    residue = np.zeros(1 << n)
    for a, th in model.theta.items():
        residue[a] += th
    faces = sorted((set_bits(a) for a in model.complex.faces
                    if a.bit_count() > 1 and a not in keep),
                   key=lambda bits: (-len(bits), bits))
    weights, biases = [], []
    for bits in faces:
        a, q = sum(1 << i for i in bits), len(bits)
        w, b, eps, local = scalar_younes_solve(float(residue[a]), q)
        unit = np.zeros(n)
        unit[bits] = w
        unit[bits[-1]] *= eps
        weights.append(unit)
        biases.append(b)
        masks = [sum(1 << bits[j] for j in range(q) if (l >> j) & 1)
                 for l in range(1 << q)]
        before = residue.copy()
        residue[masks] -= local
        moved = np.flatnonzero(residue != before)
        assert set(moved[card[moved] >= q].tolist()) <= {a}
    return np.array(weights).reshape(-1, n), np.array(biases), residue


def cyclic(n, q):
    return [sum(1 << ((i + j) % n) for j in range(q)) for i in range(n)]


@pytest.mark.parametrize("label, n, generators", [
    ("full", 7, [(1 << 7) - 1]),
    ("pairwise", 9, [(1 << i) | (1 << j) for i in range(9) for j in range(i + 1, 9)]),
    ("cyclic3", 10, cyclic(10, 3)),
    ("cyclic4", 10, cyclic(10, 4)),
])
@pytest.mark.parametrize("k", [0, 2])
def test_level_solve_matches_the_sequential_compile(label, n, generators, k):
    rng = np.random.default_rng([n, k, len(generators)])
    cx = SimplicialComplex.from_generators(n, generators)
    model = MrfModel(cx, {a: float(rng.standard_normal())
                          for a in sorted(cx.faces) if a})
    weights, biases, residue = sequential_compile(model, frozenset(range(1 << k)))
    if k:
        params = compile_conditional_mrf(model, k)
        got_weights = np.hstack([params.V, params.W])
    else:
        params, corr = compile_mrf_to_rbm(model)
        got_weights = params.W
        # given no inputs, no face of cardinality > 1 is kept
        assert np.abs(corr.probs - 1 / (1 << n)).max() <= 1e-12
    assert got_weights.shape == weights.shape
    assert np.abs(got_weights - weights).max(initial=0.0) <= 1e-12
    assert np.abs(params.c - biases).max(initial=0.0) <= 1e-12
    # the input biases cancel in every conditional and are dropped
    assert np.abs(params.b - residue[1 << np.arange(k, n)]).max() <= 1e-12


@pytest.mark.parametrize("label, n, generators", [
    ("full", 5, [(1 << 5) - 1]),
    ("full", 12, [(1 << 12) - 1]),
    ("pairwise", 12, [(1 << i) | (1 << j) for i in range(12) for j in range(i + 1, 12)]),
    ("cyclic3", 10, cyclic(10, 3)),
    ("cyclic4", 12, cyclic(12, 4)),
])
def test_shortcuts_change_no_bit(label, n, generators):
    # a joint compile returns the uniform correction without building its
    # field, and its weights are the conditional compile's given no inputs
    rng = np.random.default_rng([n, len(generators)])
    cx = SimplicialComplex.from_generators(n, generators)
    model = MrfModel(cx, {a: float(rng.standard_normal())
                          for a in sorted(cx.faces) if a})
    joint, corr = compile_mrf_to_rbm(model)
    uniform = mrf_distribution(MrfModel(singletons(n), {}))
    assert corr.probs.tobytes() == uniform.probs.tobytes()
    cond = compile_conditional_mrf(model, 0)
    assert (cond.k, cond.n, cond.m) == (0, n, joint.m)
    for name in ("W", "V", "b", "c"):
        assert getattr(cond, name).tobytes() == getattr(joint, name).tobytes()


def test_compile_full_field_n12():
    # its largest pair residue, |rho| = 610, is past top(1e3), where a
    # bracket capped at t = 1e3 stopped
    rng = np.random.default_rng(12)
    full = SimplicialComplex.full(12)
    model = MrfModel(full, {a: float(rng.standard_normal())
                            for a in sorted(full.faces) if a})
    params, corr = compile_mrf_to_rbm(model)
    assert params.m == (1 << 12) - 1 - 12
    assert joint_tv(model, params, corr) <= 1e-6


def test_compile_singletons_needs_no_hidden_units():
    theta = {0b01: 0.7, 0b10: -0.3}
    model = MrfModel(singletons(2), theta)
    params, corr = compile_mrf_to_rbm(model)
    assert params.m == 0
    assert np.abs(eval_joint_rbm(params).probs
                  - mrf_distribution(model).probs).sum() < 1e-12


def test_compile_pair_interaction():
    model = MrfModel(SimplicialComplex.full(2), {0b11: 1.5})
    params, corr = compile_mrf_to_rbm(model)
    assert params.m == 1
    assert joint_tv(model, params, corr) <= 1e-6


def test_compile_full_complex_three_units():
    rng = np.random.default_rng(1)
    full = SimplicialComplex.full(3)
    for trial in range(20):
        theta = {a: float(rng.standard_normal()) for a in full.faces if a}
        model = MrfModel(full, theta)
        params, corr = compile_mrf_to_rbm(model)
        assert params.m == 4  # faces of cardinality > 1
        assert joint_tv(model, params, corr) <= 1e-6


def test_compile_random_draws_up_to_n4():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = 2 + trial % 3
        full = SimplicialComplex.full(n)
        theta = {a: float(rng.standard_normal()) for a in full.faces if a}
        model = MrfModel(full, theta)
        params, corr = compile_mrf_to_rbm(model)
        assert params.m == (1 << n) - 1 - n
        assert joint_tv(model, params, corr) <= 1e-6


def test_conditional_budget_counts():
    full3 = SimplicialComplex.full(3)
    assert conditional_budget(full3, 1) == 4
    # the pair {1, 2} is inside the inputs for k = 2 but crosses for k = 1
    gen = SimplicialComplex.from_generators(3, [0b011])
    assert conditional_budget(gen, 2) == 0
    assert conditional_budget(gen, 1) == 1
    assert conditional_budget(gen, 64) == 0
    with pytest.raises(ValueError):
        conditional_budget(gen, -1)


def test_compile_conditional_examples():
    # interactions confined to inputs and output singletons: no hidden units
    gen = SimplicialComplex.from_generators(3, [0b001, 0b010, 0b100])
    model = MrfModel(gen, {0b001: 1.0, 0b100: -0.5})
    params = compile_conditional_mrf(model, 1)
    assert params.m == 0
    want = conditional_of_joint(mrf_distribution(model), 1)
    assert tv_row_distance(want, eval_conditional(params)) <= 1e-6

    rng = np.random.default_rng(3)
    full = SimplicialComplex.full(3)
    for trial in range(20):
        theta = {a: float(rng.standard_normal()) for a in full.faces if a}
        model = MrfModel(full, theta)
        params = compile_conditional_mrf(model, 1)
        assert params.m == 4
        want = conditional_of_joint(mrf_distribution(model), 1)
        assert tv_row_distance(want, eval_conditional(params)) <= 1e-6


def test_conditional_family_cor4_instance():
    # k=1, n=2, J the full complex on the outputs: budget 2(|J|-1) - 2 = 4
    rng = np.random.default_rng(4)
    j_out = SimplicialComplex.full(2)
    rows = [{a: float(rng.standard_normal()) for a in j_out.faces if a}
            for _ in range(2)]
    fam = conditional_family_model(1, j_out, rows)
    assert conditional_budget(fam.complex, 1) == 4
    params = compile_conditional_mrf(fam, 1)
    assert params.m == 4
    got = eval_conditional(params)
    # each row must match the per-input output field
    for x in range(2):
        px = mrf_distribution(MrfModel(j_out, rows[x]))
        assert np.abs(got.rows[x] - px.probs).sum() <= 1e-6


@pytest.mark.parametrize("k", [0, 2])
def test_compile_is_priced_on_its_largest_table(k, monkeypatch):
    # on the full complex at n = 10 the largest table is a level's subset
    # masks and coefficients, C(10, 7) faces x 2^7 = 15360 cells, above the
    # residue's 2^10 and the weights' 1013 x 10
    full = SimplicialComplex.full(10)
    model = MrfModel(full, {a: 0.1 for a in full.faces if a})
    compile_ = (compile_mrf_to_rbm if k == 0
                else lambda mod: compile_conditional_mrf(mod, k))
    calls = []
    solve = mrf.younes_solve
    monkeypatch.setattr(mrf, "younes_solve",
                        lambda *a: calls.append(a[1]) or solve(*a))
    monkeypatch.setattr(bitspace, "MAX_CELLS", 15359)
    with pytest.raises(CapExceeded, match="needs 15360 cells"):
        compile_(model)
    assert calls == []
    monkeypatch.setattr(bitspace, "MAX_CELLS", 15360)
    compile_(model)
    assert calls[0] == 10


def seeded_model(n, generators):
    """The complex the generators span on n units, theta drawn per face at
    seed n."""
    cx = SimplicialComplex.from_generators(n, generators)
    rng = np.random.default_rng(n)
    return MrfModel(cx, {a: float(rng.standard_normal())
                         for a in sorted(cx.faces) if a})


def chain_model(n):
    """The pairwise chain on n units."""
    return seeded_model(n, [3 << i for i in range(n - 1)])


def test_conditional_compile_keeps_only_the_complex_input_faces():
    # the residue lives on the chain's faces, so a compile given all but a
    # few units builds nothing of size 2^k or 2^n: it peaks within 1 MiB
    for n, k in ((19, 18), (40, 36)):
        model = chain_model(n)
        tracemalloc.start()
        try:
            params = compile_conditional_mrf(model, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert params.m == conditional_budget(model.complex, k) == n - k
        assert peak <= 1 << 20


def parameter_hash(params):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in (params.W, params.V, params.b,
                                             params.c))).hexdigest()


#: SHA-256 of (W, V, b, c), recorded at the commit before the residue moved
#: from a dense 2^n table onto the complex's faces
GOLDEN = {
    "chain 25 given 21": "95c808a5118a123bceeaf0ff2629517f"
                         "d49e3fa59e056109e91770e58dfe32f6",
    "3-cyclic 20 given 2": "0b8ed0369ec65b4d1d14c347791f5368"
                           "6e6818a1f6ef4f9389c3a85ac5e5a8fc",
    "pairwise 16 joint": "b8afb79cf8e6f98664a7a24f15c62754"
                         "5d5c173941503b3c54e64ac1597d921c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compile_matches_its_golden_hash(name):
    if name == "chain 25 given 21":
        params = compile_conditional_mrf(chain_model(25), 21)
    elif name == "3-cyclic 20 given 2":
        params = compile_conditional_mrf(seeded_model(20, cyclic(20, 3)), 2)
    else:
        pairs = [(1 << i) | (1 << j) for i in range(16) for j in range(i + 1, 16)]
        params, _ = compile_mrf_to_rbm(seeded_model(16, pairs))
    assert parameter_hash(params) == GOLDEN[name]


def test_wide_chain_matches_the_field_on_sampled_rows():
    # N = 60 given 56: each of 64 seeded input rows enumerates its 16
    # outputs, the CRBM's conditional against exp of the field's energy
    n_total, k = 60, 56
    model = chain_model(n_total)
    params = compile_conditional_mrf(model, k)
    assert params.m == conditional_budget(model.complex, k) == 4
    faces = np.array(list(model.theta), dtype=np.int64)
    theta = np.array(list(model.theta.values()))
    ys = np.arange(1 << (n_total - k))
    y_bits = bitspace.state_bits(n_total - k, ys)
    worst = 0.0
    for x in np.random.default_rng(60).integers(0, 1 << k, size=64):
        states = int(x) | (ys << k)
        energy = ((states[:, None] & faces) == faces) @ theta
        want = np.exp(energy - energy.max())
        x_bits = bitspace.state_bits(k, int(x))
        act = y_bits @ params.W.T + x_bits @ params.V.T + params.c
        logits = y_bits @ params.b + np.logaddexp(0.0, act).sum(axis=1)
        got = np.exp(logits - logits.max())
        worst = max(worst, np.abs(got / got.sum() - want / want.sum()).sum())
    assert worst <= 1e-6   # 1.5e-13 when written


def test_complex_ground_set_is_capped_at_63_units():
    # faces are int64 masks: the chain on 63 units compiles, and wider
    # ground sets are refused by name, not by a numpy dtype error
    assert compile_conditional_mrf(chain_model(63), 59).m == 4
    for n in (64, 70):
        with pytest.raises(TooLarge, match="the 63-unit limit"):
            SimplicialComplex.from_generators(n, [3 << i for i in range(n - 1)])


def test_complex_enumeration_is_priced_before_it_runs():
    # 2^40 faces, or 2^30 subsets of one generator, at FACE_CELLS each: a
    # refusal that names the count, before any subset is enumerated
    with pytest.raises(CapExceeded, match=(
            f"the full complex on 40 units needs {FACE_CELLS << 40} cells")):
        SimplicialComplex.full(40)
    with pytest.raises(CapExceeded, match=(
            f"a complex on 30 units from generators with {1 << 30} subsets "
            f"needs {FACE_CELLS << 30} cells")):
        SimplicialComplex.from_generators(30, [(1 << 30) - 1])
    # the widest that fit: 2^20 faces, and the chain of 63 pairs
    assert FACE_CELLS << 20 <= bitspace.MAX_CELLS < FACE_CELLS << 21
    assert len(SimplicialComplex.from_generators(
        63, [3 << i for i in range(62)]).faces) == 1 + 63 + 62
