"""Acceptance-grade verification suite shared by the CLI and the test suite.

Each criterion is a named callable returning (passed, detail); verify_all
runs them in order and reports a pass/fail matrix keyed by the claim the
criterion exercises.  Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds, packing
from .bitspace import affine_rank, popcounts, star_members
from .compiler import compile_universal, divergence_witness
from .crbm import (
    CrbmParams,
    append_hidden_unit,
    conditional_jacobian,
    eval_conditional,
    random_params,
)
from .dimension import certify_dimension
from .distributions import random_conditional, tv_row_distance
from .errors import CrbmKitError
from .ltn import (
    ThresholdNet,
    check_deter_fixed_point,
    embed_ltn_in_crbm,
    embed_sigmoid_output,
    ltn_table,
    parity_net,
    sigmoid_output_table,
)
from .mrf import (
    MrfModel,
    SimplicialComplex,
    compile_conditional_mrf,
    compile_mrf_to_rbm,
    mobius_coefficients,
    mobius_forward,
    mrf_distribution,
)
from .sharing import Units, apply_sharing_log, conditioned


@dataclass(frozen=True)
class CriterionResult:
    name: str
    claim: str
    passed: bool
    detail: str
    seconds: float


def _crit_table1(offset: int = 0) -> tuple[bool, str]:
    expected_f = {1: 1, 2: 3, 3: 20, 4: 284, 5: 8408}
    expected_r = {2: 1, 3: 4, 4: 44, 5: 1144}
    for r, f in expected_f.items():
        v = packing.seq_values(r)
        if v.F != f:
            return False, f"F({r}) = {v.F}, expected {f}"
        if r in expected_r and v.R != expected_r[r]:
            return False, f"R({r}) = {v.R}, expected {expected_r[r]}"
    k_large = packing.k_coefficient(10 ** 5)
    if abs(k_large - 0.2263) > 5e-4:
        return False, f"K(1e5) = {k_large}"
    p50 = packing.seq_values(50).P
    if abs(p50 - 0.0269) > 5e-4:
        return False, f"P(50) = {p50}"
    return True, f"F,R exact for r<=5; K(1e5)={k_large:.6f}; P(50)={p50:.6f}"


def _crit_packing(offset: int = 0) -> tuple[bool, str]:
    checked = 0
    for k in range(1, 11):
        for r in packing.feasible_depths(k):
            seq = packing.build_packing(k, r)
            rep = packing.validate_packing(seq)
            v = packing.seq_values(r)
            want = (1 << (k - v.S)) * v.F
            if not rep.ok:
                return False, f"(k={k}, r={r}): {rep.violations[0]}"
            if rep.star_count != want:
                return False, f"(k={k}, r={r}): {rep.star_count} stars != {want}"
            checked += 1
    return True, f"{checked} (k, r) packings valid with exact star counts"


#: (k, n, r, trials): r None is best_depth's pick, r <= 2 at these sizes;
#: the r = 3 and r = 4 constructions run on a few trials, their compiles
#: being the slowest
COMPILE_CASES = [(1, 1, None, 20), (2, 1, None, 20), (2, 2, None, 20),
                 (3, 1, None, 20), (3, 2, None, 20), (3, 3, None, 20),
                 (5, 2, None, 20), (7, 1, 3, 2), (8, 1, 3, 2), (10, 1, 4, 1)]


def _crit_universal(offset: int = 0) -> tuple[bool, str]:
    worst = 0.0
    for k, n, r, trials in COMPILE_CASES:
        for trial in range(trials):
            target = random_conditional(k, n,
                                        seed=1000 * k + 100 * n + trial + offset)
            params, rep = compile_universal(target, r, eps=1e-2)
            where = f"({k},{n}) r={rep.r} trial {trial}"
            if rep.achieved_tv > 1e-2:
                return False, f"{where}: tv = {rep.achieved_tv}"
            if not rep.within_budget:
                return False, (f"{where}: {rep.hidden_units_used}"
                               f" units > budget {rep.budget_bound}")
            worst = max(worst, rep.achieved_tv)
    total = sum(trials for *_, trials in COMPILE_CASES)
    return True, (f"{total} compilations within budget, r up to 4; "
                  f"worst tv = {worst:.2e}")


def _crit_divergence(offset: int = 0) -> tuple[bool, str]:
    worst = 0.0
    for (k, n, m) in [(1, 2, 1), (2, 2, 2)]:
        prop5 = bounds.divergence_upper(k, n, m)
        for trial in range(20):
            target = random_conditional(k, n, seed=7000 + 100 * k + trial + offset)
            params, div = divergence_witness(target, m)
            if div > (n - 1) + 0.05:
                return False, f"({k},{n},m={m}) trial {trial}: D = {div}"
            if div > prop5 + 0.05:
                return False, f"({k},{n},m={m}): D = {div} > bound {prop5}"
            worst = max(worst, div)
    return True, f"worst achieved divergence = {worst:.4f} bits"


#: (k, n, m, dimension); (4,4,30) and (0,6,12) crowded the singular values of
#: the p(y|x)-scaled Jacobian into its rank threshold at seed 0
DIMENSION_CASES = [(1, 3, 1, 8), (2, 2, 1, 7), (1, 2, 2, 6), (1, 1, 1, 2),
                   (4, 4, 30, 240), (0, 6, 12, 63)]


def _crit_dimension(offset: int = 0) -> tuple[bool, str]:
    for (k, n, m, want) in DIMENSION_CASES:
        reps = [certify_dimension(k, n, m, seed=s) for s in range(5)]
        rep = reps[0]
        if rep.expected_value != want or rep.numeric != want:
            return False, (f"({k},{n},{m}): expected {rep.expected_value}, "
                           f"numeric {rep.numeric}, want {want}")
        if rep.tropical > rep.numeric:
            return False, f"({k},{n},{m}): tropical {rep.tropical} > numeric"
        ranks = {r.numeric for r in reps}
        if ranks != {want}:
            return False, f"({k},{n},{m}): seed instability {ranks}"
    return True, "expected = numeric (5-seed stable), tropical <= numeric"


def _crit_mrf(offset: int = 0) -> tuple[bool, str]:
    from .crbm import eval_joint_rbm
    from .distributions import conditional_of_joint
    # 20 random fields on the full 3-complex, then one full field at each
    # n = 5..8, where the Younes solve has to cross the dip of top(t) < 0,
    # and one at n = 12, whose 4083 units are evaluated in blocks
    draws = [(3, 300 + trial) for trial in range(20)]
    draws += [(n, 320 + n) for n in (5, 6, 7, 8, 12)]
    worst_joint = worst_cond = 0.0
    for n, seed in draws:
        full = SimplicialComplex.full(n)
        rng = np.random.default_rng(seed + offset)
        model = MrfModel(full, {a: float(rng.standard_normal())
                                for a in full.faces if a})
        want_m = (1 << n) - 1 - n
        params, _ = compile_mrf_to_rbm(model)
        if params.m != want_m:
            return False, f"n = {n}, seed {seed}: {params.m} hidden units != {want_m}"
        p = mrf_distribution(model)
        tv = float(np.abs(p.probs - eval_joint_rbm(params).probs).sum())
        worst_joint = max(worst_joint, tv)
        if tv > 1e-6:
            return False, f"n = {n}, seed {seed}: joint tv = {tv}"
        cparams = compile_conditional_mrf(model, 1)
        rtv = tv_row_distance(conditional_of_joint(p, 1),
                              eval_conditional(cparams))
        worst_cond = max(worst_cond, rtv)
        if rtv > 1e-6:
            return False, f"n = {n}, seed {seed}: conditional tv = {rtv}"
    return True, (f"20 full fields at n = 3, one at each n = 5..8 and 12: "
                  f"joint tv <= {worst_joint:.1e}, conditional tv <= "
                  f"{worst_cond:.1e}, m = 2^n - 1 - n exactly")


def _crit_ltn(offset: int = 0) -> tuple[bool, str]:
    details = []
    for k in (2, 3, 4):
        net = parity_net(k)
        params, t = embed_ltn_in_crbm(net, eps=1e-3)
        tv = tv_row_distance(eval_conditional(params), ltn_table(net))
        if params.m != k or tv > 1e-3:
            return False, f"k={k}: m={params.m}, tv={tv}"
        outputs = popcounts(k) % 2
        if not check_deter_fixed_point(params, outputs):
            return False, f"k={k}: fixed-point condition fails"
        details.append(f"k={k}: t={t:g}, tv={tv:.1e}")
    # a generic net with a sigmoid output layer: its feedforward law
    rng = np.random.default_rng(7 + offset)
    net = ThresholdNet(2, 2, 2, rng.standard_normal((2, 2)),
                       rng.standard_normal(2) + 0.3,
                       rng.standard_normal((2, 2)), rng.standard_normal(2))
    tv = tv_row_distance(eval_conditional(embed_sigmoid_output(net, eps=1e-3)),
                         sigmoid_output_table(net))
    if tv > 1e-3:
        return False, f"sigmoid output: tv={tv}"
    details.append(f"sigmoid output: tv={tv:.1e}")
    return True, "; ".join(details)


def _crit_bounds(offset: int = 0) -> tuple[bool, str]:
    for k in range(1, 7):
        for n in range(1, 7):
            rep = bounds.universal_m_table(k, n)
            if rep.m_min is not None and rep.m_min > rep.rbm_route:
                return False, f"({k},{n}): min {rep.m_min} > RBM {rep.rbm_route}"
    for k in range(5):
        for n in range(1, 5):
            prev = None
            for m in range(65):
                val = bounds.divergence_upper(k, n, m)
                if prev is not None and val > prev + 1e-12:
                    return False, f"({k},{n}): not monotone at m = {m}"
                prev = val
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = int(rng.integers(2, 16))
        n = int(rng.integers(1, 5))
        if not bounds.deterministic_necessity_check(k, n):
            return False, f"necessity arithmetic fails at ({k},{n})"
    return True, "m-table <= RBM route; divergence_upper monotone; necessity ok"


def _crit_oracles(offset: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(99 + offset)
    # applying units to the conditional: the rows apply_sharing_log returns
    # are the conditional of the model grown by the units, far pairs skipped
    for _ in range(100):
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 3))
        params = random_params(k, n, int(rng.integers(0, 3)), rng)
        state, rows = conditioned(np.log(eval_conditional(params).rows), k)
        j = int(rng.integers(1, 4))
        units = Units(*(rng.standard_normal(shape) * 20.0
                        for shape in ((j, k), (j, n), (j,))))
        rows = apply_sharing_log(state, rows, units)[1]
        grown = eval_conditional(append_hidden_unit(params, units.w_out,
                                                    units.w_in, units.bias))
        if np.abs(rows - grown.rows).sum(axis=1).max() > 1e-10:
            return False, "sharing round trip"
    # jacobian vs finite differences
    for _ in range(100):
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        m = int(rng.integers(0, 3))
        params = random_params(k, n, m, rng)
        jac = conditional_jacobian(params)
        theta = params.vector()
        h = 1e-5
        cols = rng.choice(theta.size, size=min(3, theta.size), replace=False)
        for j in cols:
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (_table_of(tp, k, n, m) - _table_of(tm, k, n, m)) / (2 * h)
            if np.abs(jac[:, j] - fd).max() > 1e-6:
                return False, "jacobian finite differences"
    # Moebius forward/backward
    for _ in range(100):
        nn = int(rng.integers(1, 7))
        tab = rng.standard_normal(1 << nn)
        back = mobius_forward(mobius_coefficients(tab, nn), nn)
        if np.abs(back - tab).max() > 1e-12:
            return False, "Moebius round trip"
    # star affine independence
    for _ in range(100):
        w = int(rng.integers(1, 7))
        center = int(rng.integers(0, 1 << w))
        free_mask = sum(1 << i for i in range(w) if rng.random() < 0.5)
        members = star_members(center, free_mask)
        if affine_rank(members, w) != len(members):
            return False, "star affine independence"
    return True, "400 randomized oracle checks passed"


def _table_of(theta: np.ndarray, k: int, n: int, m: int) -> np.ndarray:
    p = CrbmParams.from_vector(k, n, m, theta)
    return eval_conditional(p).rows.reshape(-1)


CRITERIA: list[tuple[str, str, Callable[..., tuple[bool, str]]]] = [
    ("table1", "counting sequences: F, R exact; K, P limits", _crit_table1),
    ("packing", "star packings valid for k <= 10", _crit_packing),
    ("universal", "constructive universal approximation within budget",
     _crit_universal),
    ("divergence", "divergence witness meets the n-l bound", _crit_divergence),
    ("dimension", "expected dimension certified numerically and tropically",
     _crit_dimension),
    ("mrf", "random-field compilation exact to 1e-6", _crit_mrf),
    ("ltn", "parity nets embed with m = k hidden units; sigmoid outputs embed",
     _crit_ltn),
    ("bounds", "bound-table consistency properties", _crit_bounds),
    ("oracles", "randomized oracle invariant suite", _crit_oracles),
]


def verify_all(seed_offset: int = 0) -> list[CriterionResult]:
    """Run every criterion; seed_offset shifts the randomized draws."""
    results = []
    for name, claim, fn in CRITERIA:
        t0 = time.time()
        try:
            passed, detail = fn(seed_offset)
        except CrbmKitError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(name, claim, passed, detail,
                                       time.time() - t0))
    return results
