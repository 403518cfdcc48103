from math import comb

import numpy as np
import pytest

from crbmkit.crbm import eval_conditional, eval_joint_rbm
from crbmkit.distributions import conditional_of_joint, hadamard, tv_row_distance
from crbmkit.errors import NoBracket
from crbmkit.mrf import (
    MrfModel,
    SimplicialComplex,
    compile_conditional_mrf,
    compile_mrf_to_rbm,
    mobius_coefficients,
    mobius_forward,
    mrf_distribution,
    younes_solve,
)


def conditional_budget(complex_, k):
    """|{A in I : A not subseteq [k], |A| > 1}|, the hidden-unit count."""
    input_mask = (1 << k) - 1
    return sum(1 for a in complex_.faces
               if a.bit_count() > 1 and a & ~input_mask)


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


def test_mrf_distribution_examples():
    full = SimplicialComplex.full(3)
    assert np.allclose(mrf_distribution(MrfModel(full, {})).probs, 1 / 8)

    # singleton interactions: a product with the given logits
    theta = {0b001: 0.5, 0b010: -1.0, 0b100: 2.0}
    p = mrf_distribution(MrfModel(SimplicialComplex.singletons(3), theta))
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


def test_younes_solve_examples():
    # rho = 0: scale 0, only the constant survives
    w, b, eps, q = younes_solve(0.0, 3)
    assert w == 0.0 and b == 0.0
    assert q[0] == pytest.approx(np.log(2.0))
    assert np.abs(q[1:]).max() < 1e-15

    # N = 1: the two-point inversion solves directly
    w, b, eps, q = younes_solve(0.8, 1)
    direct = np.log1p(np.exp(w + b)) - np.log1p(np.exp(b))
    assert direct == pytest.approx(0.8, abs=1e-10)

    # N = 3: independent recomputation of the top coefficient
    for rho in (2.0, 0.3, -1.5, -4.0):
        w, b, eps, q = younes_solve(rho, 3)
        assert eps == (1 if rho >= 0 else -1)
        got = younes_top_coefficient(3, w, b, eps)
        assert got == pytest.approx(rho, abs=1e-10)
        assert q[7] == pytest.approx(rho, abs=1e-10)
        # the polynomial identity holds pointwise
        s = np.array([bin(v & 0b011).count("1") + eps * ((v >> 2) & 1)
                      for v in range(8)])
        table = np.logaddexp(0.0, w * s + b)
        assert np.abs(mobius_forward(q, 3) - table).max() < 1e-10


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
    for rho in (0.7, -0.7, 0.05, -0.05):
        w, b, eps, coeffs = younes_solve(rho, q)
        want = mobius_coefficients(phi_table(q, w, b, eps), q)
        assert np.abs(coeffs - want).max() <= 1e-12


@pytest.mark.parametrize("q", [5, 6, 7, 8])
@pytest.mark.parametrize("rho", [0.05, -0.05, 1e-6, -1e-6])
def test_solve_crosses_the_dip_below_zero(q, rho):
    # top(t) < 0 on (0, 1.5-2.4) at these q: a bracket on |top| stops there
    w, b, eps, _ = younes_solve(rho, q)
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
    lhs = hadamard(mrf_distribution(model), corr)
    assert np.abs(lhs.probs - eval_joint_rbm(params).probs).sum() <= 1e-6
    cparams = compile_conditional_mrf(model, 1)
    assert cparams.m == (1 << n) - 1 - n
    want = conditional_of_joint(mrf_distribution(model), 1)
    assert tv_row_distance(want, eval_conditional(cparams)) <= 1e-6


def test_younes_no_bracket():
    # the bracket's last doubling is clamped to T_MAX = 1e3, so every |rho|
    # up to top(T_MAX) solves; a pair unit's top(t) is about t/2
    for rho, q in ((300.0, 2), (-300.0, 2), (499.0, 2), (400.0, 3)):
        w, b, eps, coeffs = younes_solve(rho, q)
        assert coeffs[-1] == pytest.approx(rho, abs=1e-9)
        assert younes_top_coefficient(q, w, b, eps) == pytest.approx(rho, abs=1e-9)
    for rho, q in ((501.0, 2), (1e6, 2)):
        with pytest.raises(NoBracket):
            younes_solve(rho, q)


def test_compile_singletons_needs_no_hidden_units():
    theta = {0b01: 0.7, 0b10: -0.3}
    model = MrfModel(SimplicialComplex.singletons(2), theta)
    params, corr = compile_mrf_to_rbm(model)
    assert params.m == 0
    assert np.abs(eval_joint_rbm(params).probs
                  - mrf_distribution(model).probs).sum() < 1e-12


def test_compile_pair_interaction():
    model = MrfModel(SimplicialComplex.full(2), {0b11: 1.5})
    params, corr = compile_mrf_to_rbm(model)
    assert params.m == 1
    lhs = hadamard(mrf_distribution(model), corr)
    assert np.abs(lhs.probs - eval_joint_rbm(params).probs).sum() <= 1e-6


def test_compile_full_complex_three_units():
    rng = np.random.default_rng(1)
    full = SimplicialComplex.full(3)
    for trial in range(20):
        theta = {a: float(rng.standard_normal()) for a in full.faces if a}
        model = MrfModel(full, theta)
        params, corr = compile_mrf_to_rbm(model)
        assert params.m == 4  # faces of cardinality > 1
        lhs = hadamard(mrf_distribution(model), corr)
        assert np.abs(lhs.probs - eval_joint_rbm(params).probs).sum() <= 1e-6


def test_compile_random_draws_up_to_n4():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = 2 + trial % 3
        full = SimplicialComplex.full(n)
        theta = {a: float(rng.standard_normal()) for a in full.faces if a}
        model = MrfModel(full, theta)
        params, corr = compile_mrf_to_rbm(model)
        assert params.m == (1 << n) - 1 - n
        lhs = hadamard(mrf_distribution(model), corr)
        assert np.abs(lhs.probs - eval_joint_rbm(params).probs).sum() <= 1e-6


def test_conditional_budget_counts():
    full3 = SimplicialComplex.full(3)
    assert conditional_budget(full3, 1) == 4
    # the pair {1, 2} is inside the inputs for k = 2 but crosses for k = 1
    gen = SimplicialComplex.from_generators(3, [0b011])
    assert conditional_budget(gen, 2) == 0
    assert conditional_budget(gen, 1) == 1


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
