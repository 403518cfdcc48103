import dataclasses
import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from crbmkit import compiler
from crbmkit.compiler import (
    CompileReport,
    _ComponentScheme,
    _Pipeline,
    _packing_walk,
    _plan_stars,
    _worst_row_tv,
    clamp_table,
    compile_common_support,
    compile_partition,
    compile_support_points,
    compile_universal,
    divergence_witness,
)
from crbmkit.crbm import eval_conditional
from crbmkit.distributions import (
    ConditionalTable,
    kl_conditional,
    random_conditional,
    tv_row_distance,
)
from crbmkit.errors import (
    BudgetExceeded,
    InfeasibleDepth,
    NotBlockConstant,
    SupportsDiffer,
    SupportTooLarge,
)
from crbmkit.packing import build_packing
from crbmkit.sharing import (StarTilt, apply_sharing_log, build_tilted_step,
                             conditioned, cylinders, log_odds,
                             mixture_weight_profile, star_tilts)


def one_star(k, center, free_mask):
    """The ``StarTilt`` of the one star ``(center, free_mask)`` on k
    inputs."""
    tilts = star_tilts(k, [center], free_mask)
    return StarTilt(tilts.members[0], tilts.free_bits,
                    tilts.cylinder_factors[0], tilts.inputs[0])


def plan_one(k, scheme, rows, center, free_mask):
    """The compile's plan of the one star ``(center, free_mask)`` toward the
    target ``rows`` (2^k of them), named ("star", 0)."""
    betas = mixture_weight_profile(scheme.masses(rows))
    return _plan_stars(k, scheme, rows, betas, log_odds(betas), [center],
                       free_mask, [("star", 0)])[0]


def test_clamp_table():
    t = ConditionalTable.deterministic(1, 1, [0, 1])
    clamped, err = clamp_table(t, 1e-2)
    assert clamped.rows.min() > 0
    assert err <= 1e-2
    assert tv_row_distance(t, clamped) == err


def uniform_table(k, n):
    """The table whose every row is uniform on the 2^n outputs."""
    return ConditionalTable(k, n, np.full((1 << k, 1 << n), 1.0 / (1 << n)))


def test_compile_uniform_target():
    t = uniform_table(2, 1)
    params, rep = compile_universal(t, r=1, eps=1e-2)
    assert rep.achieved_tv <= 1e-2
    assert rep.within_budget


def test_compile_1_1_single_unit():
    t = random_conditional(1, 1, seed=7)
    params, rep = compile_universal(t, r=1, eps=1e-2)
    assert rep.hidden_units_used <= 1
    assert params.m == rep.hidden_units_used
    assert rep.achieved_tv <= 1e-2


def test_compile_3_1_depth2_budget():
    t = random_conditional(3, 1, seed=5)
    params, rep = compile_universal(t, r=2, eps=1e-2)
    assert rep.budget_bound == 4  # (3/8) 2^3 (2^1 - 1) + 1
    assert rep.hidden_units_used <= 4
    assert rep.achieved_tv <= 1e-2


def test_compile_soundness_against_clamped_target():
    for seed in range(5):
        t = random_conditional(2, 2, seed=seed)
        params, rep = compile_universal(t, eps=1e-2)
        clamped, _ = clamp_table(t, 1e-2)
        assert tv_row_distance(eval_conditional(params), clamped) <= 1e-2
        assert rep.hidden_units_used == rep.star_steps_used + rep.resets_used


def test_compile_units_monotone_in_eps():
    t = random_conditional(3, 1, seed=9)
    _, tight = compile_universal(t, r=2, eps=1e-2)
    _, loose = compile_universal(t, r=2, eps=3e-2)
    assert loose.hidden_units_used <= tight.hidden_units_used


def test_compile_infeasible_depth():
    with pytest.raises(InfeasibleDepth):
        compile_universal(random_conditional(2, 1, 1), r=2)


def test_compile_unreachable_eps_raises():
    with pytest.raises(BudgetExceeded):
        compile_universal(random_conditional(1, 1, 3), r=1, eps=1e-15)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("mode", ["universal", "common", "partition", "support"])
def test_compile_refuses_a_bad_eps_at_entry(mode, eps, monkeypatch):
    # no tau level runs, and no clamp or packing is built first
    calls = []
    for name in ("_compile", "clamp_table", "build_packing"):
        fn = getattr(compiler, name)
        monkeypatch.setattr(compiler, name, lambda *a, fn=fn, name=name, **kw:
                            calls.append(name) or fn(*a, **kw))
    t = ConditionalTable.deterministic(2, 1, [0, 1, 1, 0])
    compile_ = {"universal": lambda: compile_universal(t, eps=eps),
                "common": lambda: compile_common_support(
                    uniform_table(2, 1), eps=eps),
                "partition": lambda: compile_partition(
                    uniform_table(2, 1), 0, eps=eps),
                "support": lambda: compile_support_points(t, eps=eps)}[mode]
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        compile_()
    assert calls == []


def test_support_points_deterministic():
    t = ConditionalTable.deterministic(1, 1, [1, 0])
    params, rep = compile_support_points(t, eps=1e-2)
    assert rep.hidden_units_used <= 1
    assert rep.achieved_tv <= 1e-2


def test_support_points_d1():
    rows = np.array([[0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    t = ConditionalTable(1, 2, rows)
    params, rep = compile_support_points(t, eps=1e-2)
    assert rep.hidden_units_used <= 2  # 2^k + d - 1 with d = 1
    assert rep.achieved_tv <= 1e-2


def test_support_points_rejects_oversized_support():
    t = random_conditional(1, 2, seed=3)  # full support: 8 > 2 + 0
    with pytest.raises(SupportTooLarge):
        compile_support_points(t, d=0)
    # maximal d admits everything
    params, rep = compile_support_points(t, d=2 * 3, eps=1e-2)
    assert rep.achieved_tv <= 1e-2


def test_support_points_refuse_a_negative_d_at_entry(monkeypatch):
    # a negative support budget is the caller's error, named before the
    # target's support is counted, not blamed on the target
    calls = []
    monkeypatch.setattr(compiler, "_compile", lambda *a: calls.append(a))
    t = ConditionalTable.deterministic(2, 1, [0, 1, 1, 0])
    for d in (-1, -5):
        with pytest.raises(ValueError, match=rf"^d must be >= 0, got {d}$") \
                as exc:
            compile_support_points(t, d)
        assert not isinstance(exc.value, SupportTooLarge)
    assert calls == []


def test_common_support_examples():
    rng = np.random.default_rng(0)
    # k=2, n=2, |T| = 2: budget d/2 = 2
    weights = rng.dirichlet(np.ones(2), size=4)
    rows = np.zeros((4, 4))
    rows[:, 1] = weights[:, 0]
    rows[:, 2] = weights[:, 1]
    t = ConditionalTable(2, 2, rows)
    params, rep = compile_common_support(t, r=1, eps=1e-2)
    assert rep.budget_bound == 2
    assert rep.hidden_units_used <= 2
    assert rep.achieved_tv <= 1e-2

    # k=1, n=3, |T| = 3: budget 2^(k-1)(|T|-1) = 2
    weights = rng.dirichlet(np.ones(3), size=2)
    rows = np.zeros((2, 8))
    rows[:, [0, 3, 5]] = weights
    t = ConditionalTable(1, 3, rows)
    params, rep = compile_common_support(t, r=1, eps=1e-2)
    assert rep.budget_bound == 2
    assert rep.hidden_units_used <= 2
    assert rep.achieved_tv <= 1e-2


def test_common_support_start_only_target():
    # T = {0}: the start already matches; no fill steps are needed
    t = ConditionalTable.deterministic(2, 2, [0, 0, 0, 0])
    params, rep = compile_common_support(t, r=1, eps=1e-2)
    assert rep.star_steps_used == 0
    assert rep.achieved_tv <= 1e-2


def test_common_support_rejects_mixed_supports():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SupportsDiffer):
        compile_common_support(ConditionalTable(1, 1, rows))


def block_constant_target(k, n, l, seed):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(1 << l), size=1 << k)
    rows = np.zeros((1 << k, 1 << n))
    for z in range(1 << l):
        block = [y for y in range(1 << n) if (y & ((1 << l) - 1)) == z]
        rows[:, block] = (masses[:, z] / len(block))[:, None]
    return ConditionalTable(k, n, rows)


def test_compile_partition_examples():
    t = block_constant_target(1, 2, 1, seed=4)
    params, rep = compile_partition(t, l=1, r=1, eps=1e-2)
    assert rep.budget_bound == 1
    assert rep.hidden_units_used <= 1
    assert rep.achieved_tv <= 1e-2

    # l = 0: single block, uniform output, zero units
    u = uniform_table(1, 2)
    params, rep = compile_partition(u, l=0)
    assert rep.hidden_units_used == 0
    assert rep.achieved_tv <= 1e-12

    # l = n behaves like the universal path on a strictly positive target
    t = clamp_table(random_conditional(1, 2, seed=5), 1e-2)[0]
    params, rep = compile_partition(t, l=2, r=1, eps=1e-2)
    assert rep.achieved_tv <= 1e-2
    assert rep.budget_bound == 3  # 2^(k-1) (2^n - 1)


def test_component_without_target_mass_spends_no_unit():
    # a star is filled only through the components with target mass on one
    # of its rows: with block 1 empty on every row, (3,2) l = 1 needs no
    # step at all, and with block 3 empty (4,3) l = 2 fills its 6 stars
    # through blocks 1 and 2 only (12 fills and its one reset)
    y = np.arange(4)
    rows = np.tile(np.where(y & 1, 0.0, 0.5), (8, 1))
    params, rep = compile_partition(ConditionalTable(3, 2, rows), 1)
    assert params.m == rep.hidden_units_used == 0
    assert rep.achieved_tv <= rep.epsilon

    masses = np.random.default_rng(0).dirichlet(np.ones(3), size=16)
    rows = np.column_stack([masses, np.zeros(16)])[:, np.arange(8) & 3] / 2
    _, rep = compile_partition(ConditionalTable(4, 3, rows), 2)
    assert (rep.star_steps_used, rep.resets_used) == (12, 1)
    assert rep.hidden_units_used == 13 < rep.budget_bound
    assert rep.achieved_tv <= rep.epsilon


def test_single_block_partition_refuses_infeasible_depth():
    # l = 0 builds no packing, but a given depth must still fit in k: the
    # same refusal as at l >= 1.  Without a depth the zero model is returned
    u = uniform_table(3, 2)
    for l in (0, 1):
        with pytest.raises(InfeasibleDepth, match=r"k = 3 < S\(7\) = 28"):
            compile_partition(u, l, r=7)
    _, rep = compile_partition(u, 0, r=1)
    assert (rep.hidden_units_used, rep.r) == (0, 1)
    _, rep = compile_partition(uniform_table(0, 2), 0)
    assert (rep.hidden_units_used, rep.r) == (0, None)


def test_single_block_partition_runs_the_tau_schedule():
    # l = 0 walks no star: its first level's start model is the zero model,
    # reported at tau = 16 with no unit, and a target it misses by more
    # than eps exhausts the schedule like every other mode
    rows = np.full((8, 4), 0.25)
    rows[:, 0] += 4e-10
    rows[:, 1] -= 4e-10
    t = ConditionalTable(3, 2, rows)
    params, rep = compile_partition(t, 0)
    assert (rep.hidden_units_used, rep.tau_final, rep.budget_bound) == \
        (0, 16.0, 0)
    assert not (params.W.any() or params.V.any() or params.b.any()
                or params.c.any())
    assert 0 < rep.achieved_tv < 1e-8
    with pytest.raises(BudgetExceeded, match=(
            r"last level: certificate row TV [0-9.e-]+ \(tau = 1024\)$")):
        compile_partition(t, 0, eps=rep.achieved_tv / 2)


def test_compile_partition_rejects_non_block_constant():
    with pytest.raises(NotBlockConstant):
        compile_partition(random_conditional(1, 2, seed=6), l=1)


def test_divergence_witness_examples():
    # universal regime: enough units for l = n
    t = random_conditional(1, 1, seed=11)
    params, div = divergence_witness(t, m_budget=1)
    assert div <= 0.05

    for seed in range(20):
        t = random_conditional(1, 2, seed=100 + seed)
        params, div = divergence_witness(t, m_budget=1)
        assert div <= 1.0 + 0.05

    # block-constant targets are reproduced up to the compile tolerance
    t = block_constant_target(1, 2, 1, seed=12)
    params, div = divergence_witness(t, m_budget=1)
    assert div <= 0.05


def test_divergence_witness_refuses_a_negative_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(compiler, "compile_partition",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="m_budget must be >= 0"):
        divergence_witness(random_conditional(1, 2, seed=13), -1)
    assert calls == []


def test_divergence_witness_uniform_fallback():
    t = random_conditional(1, 2, seed=13)
    params, div = divergence_witness(t, m_budget=0)
    assert params.m == 0
    assert div <= 2.0  # at most n bits
    assert div == pytest.approx(
        kl_conditional(t, uniform_table(1, 2)))


def test_compile_larger_instances():
    # k = 4 engages the joint reset schedule across two outer branches
    t = random_conditional(4, 1, seed=40)
    params, rep = compile_universal(t, eps=1e-2)
    assert rep.r == 2 and rep.budget_bound == 7
    assert rep.within_budget and rep.achieved_tv <= 1e-2

    t = random_conditional(4, 2, seed=41)
    params, rep = compile_universal(t, r=2, eps=1e-2)
    assert rep.budget_bound == 19
    assert rep.within_budget and rep.achieved_tv <= 1e-2


@pytest.mark.parametrize("k,n,units", [(6, 1, 25), (8, 1, 97), (6, 2, 73)])
def test_compile_depth2_beyond_old_width_cap(k, n, units):
    # k + n + m ran past the old cap of 26; evaluation costs 2^(k+n) m cells
    _, rep = compile_universal(dirichlet_table(k, n, 0), r=2)
    assert rep.hidden_units_used == rep.budget_bound == units
    assert rep.achieved_tv <= 1e-2


def test_compile_tighter_tolerance():
    t = random_conditional(2, 2, seed=42)
    params, rep = compile_universal(t, eps=1e-4)
    assert rep.achieved_tv <= 1e-4
    assert rep.within_budget


def test_report_fields_consistent():
    t = random_conditional(2, 1, seed=30)
    params, rep = compile_universal(t, r=1, eps=1e-2)
    assert isinstance(rep, CompileReport)
    assert rep.mode == "universal"
    assert rep.r == 1
    assert rep.epsilon == 1e-2
    assert rep.hidden_units_used == params.m
    assert rep.tau_final >= 16.0
    # the CLI writes the report by its fields: they are the payload's keys
    assert {f.name for f in dataclasses.fields(rep)} == {
        "mode", "hidden_units_used", "resets_used", "star_steps_used",
        "achieved_tv", "tau_final", "budget_bound", "within_budget",
        "clamp_error", "r", "epsilon"}


def dirichlet_table(k, n, seed):
    rng = np.random.default_rng(seed)
    return ConditionalTable(k, n, rng.dirichlet(np.ones(1 << n), size=1 << k))


def sparse_dirichlet_table(k, n, d, seed):
    """One random output per row plus d extra support points, Dirichlet rows."""
    rng = np.random.default_rng(seed)
    support = np.zeros((1 << k, 1 << n), dtype=bool)
    support[np.arange(1 << k), rng.integers(0, 1 << n, size=1 << k)] = True
    free = np.flatnonzero(~support)
    support.flat[rng.choice(free, size=d, replace=False)] = True
    rows = np.zeros(support.shape)
    for x in range(1 << k):
        rows[x, support[x]] = rng.dirichlet(np.ones(support[x].sum()))
    return ConditionalTable(k, n, rows)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k,n", [(3, 2), (4, 2)])
def test_support_points_compile_sparse(k, n, seed):
    # the pipeline's state keeps a uniform input marginal, so no fill starts
    # from rows whose input mass a reset has drained
    target = sparse_dirichlet_table(k, n, 2, seed)
    _, rep = compile_support_points(target, 2)
    assert rep.within_budget
    assert rep.achieved_tv <= 1e-2


# (hidden_units_used, tau_final, achieved_tv, sha256 of the W, V, b, c
# bytes) at seed 0.  The counts and TVs were recorded with
# scipy.special.logsumexp and per-row step checks, on a pipeline state that
# was the joint; the kept trials, the cached rows and the max-shift
# log-sum-exp must reproduce the counts.  The state is now the conditional
# with uniform inputs, whose rounding moves the TVs by up to 1.3e-12
# relative, hence rel=2e-12.  The digests were recorded on that state held
# as (2^k, 2^n) rows indexed [x, y], each tilt broadcast from its input and
# output tables, with the tilt normalizer the max plus the log of the sum
# of exp(entries - max); the support and universal-3-2 bits did not move
# when that replaced scipy's arithmetic.  The digests pin every bit, so
# they hold for one numpy build on one CPU family (x86-64, numpy 2.4): its
# exp and log kernels are dispatched by SIMD extension.  When each step's
# sharpness ladder began to start at the rung its kind last passed in the
# level, the universal-4-2, partition-4-3-l2 and support-4-2-d2 steps that
# had passed below that rung were taken at it: their digests and TVs were
# re-recorded then, their units and tau did not move, and no universal-3-2
# bit did.
GOLDEN = {
    "universal-3-2": (lambda: compile_universal(dirichlet_table(3, 2, 0)),
                      10, 32.0, 0.0007966023069756398,
                      "ff0a7ebf896c16fc7d22ac252e0b9c9e72cd9c2f086b7580510eaed70bed562c"),
    "universal-4-2": (lambda: compile_universal(dirichlet_table(4, 2, 0)),
                      19, 32.0, 0.0007966040887859571,
                      "f399b56947142d2fa4c777d6e13a92d0bef8b1017afd6a1493b0d73aad6288e0"),
    "partition-4-3-l2": (lambda: compile_partition(
                             block_constant_target(4, 3, 2, seed=0), 2),
                         19, 32.0, 0.0007966040887864637,
                         "1b9fc277ed37a43bebfed1ecfd7f0426e77795cd55c295bbace96941e6fc3d74"),
    "support-4-2-d2": (lambda: compile_support_points(
                           sparse_dirichlet_table(4, 2, 2, seed=0), 2),
                       11, 32.0, 0.0013411756024457075,
                       "eb1a5752fc29a68a523830b14f2e640cd7abc08a6b32ff6ba3a4efc93e4e6652"),
    # one reset grade 14 (sharp_width 7): its output tilts at sharp / 14
    # are not a power-of-two multiple of the unit ones, so a table scaled
    # from sharpness 1 would move this digest by an ulp
    "universal-3-7": (lambda: compile_universal(dirichlet_table(3, 7, 0)),
                      382, 16.0, 0.008117515549566396,
                      "dbb51d3ec96c252353268d1f10c6b4a0e37029b6aa9371cfc4bb04ebac644ce3"),
    # n = 3 at tau 64, where resets are graded 6: a trial's row sums over
    # the 8 outputs run in another order when their array is not
    # C-contiguous, which moves this digest
    "universal-5-3": (lambda: compile_universal(dirichlet_table(5, 3, 0)),
                      85, 64.0, 6.0512844045768586e-05,
                      "ba3b9e13f9aed103af57ca9612869c6769ebf50d67e6955c1c75f07413357784"),
    # the size that sets the benchmark's compile tail: r = 3, with resets
    "universal-6-2": (lambda: compile_universal(dirichlet_table(6, 2, 0)),
                      68, 32.0, 0.0007974598323194082,
                      "0a83b98e62bbd36ec916e33d82546159d2159b061423fff9476f338f20b5490b"),
}


def params_digest(params) -> str:
    h = hashlib.sha256()
    for a in (params.W, params.V, params.b, params.c):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_compile_outputs(name):
    run, units, tau, tv, digest = GOLDEN[name]
    params, rep = run()
    assert rep.hidden_units_used == units
    assert rep.tau_final == tau
    assert rep.achieved_tv == pytest.approx(tv, rel=2e-12, abs=0.0)
    assert params_digest(params) == digest


def test_pipeline_rows_cache_follows_accepted_steps(monkeypatch):
    # the state is log p(y | x) - k log 2 as (2^k, 2^n) rows [x, y]: after
    # each accepted step every row of it, plus k log 2, log-sums to 0, the
    # cached rows are its exponent, and it is the fresh application of the
    # step, which returns the conditional its unit makes
    k, n = 4, 1
    applied = []
    apply_step = _Pipeline._apply

    def apply_and_check(self, step, logp, rows, log_norm):
        before = self.logp
        apply_step(self, step, logp, rows, log_norm)
        assert self.logp.shape == (1 << k, 1 << n)
        assert self.logp.flags.f_contiguous
        state = self.logp + k * np.log(2.0)
        assert np.abs(np.log(np.exp(state).sum(axis=1))).max() <= 1e-12
        rows = self.rows()
        assert not rows.flags.writeable
        assert np.allclose(rows, np.exp(state), rtol=1e-12, atol=0.0)
        fresh, fresh_rows, _ = apply_sharing_log(before, step)
        assert np.array_equal(self.logp, fresh)
        assert np.array_equal(rows, fresh_rows)
        applied.append(step)

    monkeypatch.setattr(_Pipeline, "_apply", apply_and_check)
    _, rep = compile_universal(dirichlet_table(k, n, 0), r=2)
    assert rep.resets_used > 0 and rep.star_steps_used > 0
    assert len(applied) >= rep.hidden_units_used


def test_compile_reduces_the_joint_once_per_trial(monkeypatch):
    # a trial reduces the full joint once, for its tilt normalizer, which a
    # fill's builder computes and hands on; the state has mass 1, so
    # neither the stepped joint nor an accepted unit's bias nor a tau
    # level's start joint is reduced again.  An accepted trial is kept, so
    # there is one application per trial.  A trial builds one tilted state
    # and one input table, both in its builder, fill or reset alike.  The
    # output tilt a trial steps toward is one row of a batch of every
    # component's tilts, built on the first use of its sharpness only, by a
    # fill or a reset; a reset's is the start component's row, the point
    # 0's.  The mixture weights' log-odds are taken once per compile, not
    # per tau level or star
    import crbmkit.compiler as compiler
    import crbmkit.sharing as sharing

    k, n = 4, 2
    shape = (1 << k, 1 << n)
    calls = Counter()
    outputs = []
    batches = []

    def spy(owner, attr, name=None, counts=lambda *a, **kw: True):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            if counts(*args, **kwargs):
                calls[name or attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    def full_joint(a, axis=None):
        return axis is None and np.shape(a) == shape

    def output_of(kind):
        # the output tilt a trial steps toward
        def record(*args, **kwargs):
            outputs.append((kind, args[-2]))
            return True
        return record

    build = compiler.output_tilts

    def batch(unit_factors, sharp):
        tilts = build(unit_factors, sharp)
        batches.append(tilts)
        return tilts

    spy(sharing, "logsumexp", "full", full_joint)
    spy(sharing, "_tilted")
    spy(sharing, "_log_values_of", "inputs",
        lambda log_factors: log_factors.shape == (k, 2))
    spy(sharing, "_log_values_of", "other tables",
        lambda log_factors: log_factors.shape != (k, 2))
    monkeypatch.setattr(compiler, "output_tilts", batch)
    spy(compiler, "build_tilted_step", "trial", output_of("fill"))
    spy(compiler, "make_reset_step", "trial", output_of("reset"))
    spy(compiler, "apply_sharing_log")
    spy(compiler, "hidden_unit_from_log")
    spy(compiler, "log_odds")
    spy(_Pipeline, "__init__", "level")
    _, rep = compile_universal(dirichlet_table(k, n, 0))
    trials, accepted = calls["trial"], calls["hidden_unit_from_log"]
    assert trials > accepted >= rep.hidden_units_used > 0
    assert rep.resets_used > 0
    assert calls["level"] == 2  # tau = 16 fails, 32 passes
    assert calls["apply_sharing_log"] == trials
    assert calls["full"] == trials
    assert calls["_tilted"] == trials
    assert calls["inputs"] == trials
    # every table not over the inputs is one output batch
    assert calls["other tables"] == len(batches)
    assert calls["log_odds"] == 1
    # a batch holds the four point components' tilts, and each trial's
    # output tilt is one of exactly one batch; each reset's is the batch's
    # first, the start component's
    assert all(len(tilts) == 1 << n
               and all(tilt.log_sy.shape == (1 << n,) for tilt in tilts)
               for tilts in batches)
    assert len(outputs) == trials
    for kind, out in outputs:
        rows = [tilts for tilts in batches
                if any(out is tilt for tilt in tilts)]
        assert len(rows) == 1
        assert (out is rows[0][0]) == (kind == "reset")
        if kind == "reset":
            # the point 0's factors: -sharp on the value 1 of each bit
            assert not out.log_factors[:, 0].any()
    # one batch per sharpness the trials' tilts have, fewer than the fills
    # and fewer than the trials (-sharp is the least log factor of a point
    # component's tilt)
    def sharps(kind):
        return {float(-out.log_factors.min()) for of, out in outputs
                if of == kind}
    fills = sum(kind == "fill" for kind, _ in outputs)
    assert 0 < len(sharps("fill")) < fills and len(sharps("reset")) > 0
    assert len(batches) == len(sharps("fill") | sharps("reset")) < trials


def test_a_compile_appends_once_per_completed_tau_level(monkeypatch):
    # a tau level collects the rows of the units it accepts; when its walk
    # ends it builds its model once, before its certificate, with one
    # append of them all to its bias-only start model, and a level rejected
    # early builds none.  At (4,2), seed 0, tau = 16 is rejected early; a
    # miss forced on the tau = 32 certificate makes tau = 64 complete too
    import crbmkit.compiler as compiler

    events = []

    def spy(attr, event):
        fn = getattr(compiler, attr)

        def traced(*args):
            events.append(event(*args))
            return fn(*args)
        monkeypatch.setattr(compiler, attr, traced)

    spy("hidden_unit_from_log", lambda *args: ("unit",))
    spy("append_hidden_unit", lambda p, w_out, w_in, bias: (
        "append", p.m, len(w_out), len(w_in), len(bias)))
    spy("_Pipeline", lambda *args: ("level",))
    evaluate = compiler.eval_conditional

    def certificate(p):
        events.append(("certificate", p.m))
        if sum(event[0] == "certificate" for event in events) == 1:
            point = np.eye(1 << p.n)[[0] * (1 << p.k)]
            return ConditionalTable(p.k, p.n, point)
        return evaluate(p)

    monkeypatch.setattr(compiler, "eval_conditional", certificate)
    _, rep = compile_universal(dirichlet_table(4, 2, 0))
    assert rep.tau_final == 64.0
    levels, units = [], None
    for event, following in zip(events, events[1:] + [None]):
        if event[0] == "level":
            levels.append(None)
            units = 0
        elif event[0] == "unit":
            units += 1
        elif event[0] == "append":
            assert event == ("append", 0, units, units, units)
            assert following == ("certificate", units)
            levels[-1] = units
    assert levels[0] is None and None not in levels[1:] and len(levels) == 3
    assert levels[-1] == rep.hidden_units_used > 0


def test_compile_builds_no_table_wider_than_inputs_or_outputs(monkeypatch):
    # every tilt is a factor over the k inputs times one over the n
    # outputs: no log table over the 2^(k+n) joint states is built.  A
    # table's width is its factors' coordinate axis, the one before the
    # (off, on) pair; the output tables are built in batches
    import crbmkit.sharing as sharing

    k, n = 4, 2
    widths = Counter()
    build = sharing._log_values_of

    def counted(log_factors):
        widths[log_factors.shape[-2]] += 1
        return build(log_factors)

    monkeypatch.setattr(sharing, "_log_values_of", counted)
    _, rep = compile_universal(dirichlet_table(k, n, 0))
    assert rep.hidden_units_used == 19
    assert widths[k] > 0 and widths[n] > 0
    assert max(widths) == max(k, n)


def test_step_loop_budget_names_the_step_kind(monkeypatch):
    # fills and resets share one retry loop; with no tries left each path
    # raises BudgetExceeded naming its own kind and accepts no unit
    import crbmkit.compiler as compiler

    accepted = []
    realize = compiler.hidden_unit_from_log
    monkeypatch.setattr(compiler, "hidden_unit_from_log",
                        lambda *args: accepted.append(args) or realize(*args))
    # the star at 0 with both inputs free, on the full 2-cube
    scheme = _ComponentScheme.points(1, [0, 1])
    fill = plan_one(2, scheme, np.array([[0.2, 0.8]] * 4), 0, 0b11)
    pipe = _Pipeline(2, 1, scheme, 32.0, 1e-3)
    pipe.fill_star(fill)  # moves the rows off the start
    assert len(accepted) == 1
    monkeypatch.setattr(compiler, "STEP_RETRIES", 0)
    with pytest.raises(BudgetExceeded, match="^reset sharpness"):
        pipe.reset_if_needed(*(a[0] for a in cylinders(2, 0, [0])))
    with pytest.raises(BudgetExceeded, match="^fill sharpness"):
        pipe.fill_star(fill)
    assert len(accepted) == 1 and pipe.model().m == 1


def test_step_ladders_ratchet_within_a_level(monkeypatch):
    # every trial's sharpness is a rung tau * 2^i, i < STEP_RETRIES; a
    # step's ladder starts at the rung the last accepted step of its kind
    # passed in this tau level (tau for the first) and doubles from there.
    # At (8,1), r = 3, seed 0, that is 92 trials for the 88 units at
    # tau = 16, where a ladder restarting at tau on every step made 214
    import crbmkit.compiler as compiler

    events = []

    def spy(owner, attr, event):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            events.append(event(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, traced)

    spy(compiler, "build_tilted_step", lambda *args: ("fill", args[-1]))
    spy(compiler, "make_reset_step", lambda *args: ("reset", args[-1]))
    spy(compiler, "hidden_unit_from_log", lambda *args: ("accept", None))
    spy(_Pipeline, "__init__", lambda self, k, n, scheme, tau, tol: (
        "level", tau))
    _, rep = compile_universal(dirichlet_table(8, 1, 0), r=3)
    assert (rep.hidden_units_used, rep.tau_final) == (88, 16.0)
    trials = ratcheted = 0
    for event, sharp in events:
        if event == "level":
            tau, passed, trial = sharp, {}, None
        elif event == "accept":
            passed[trial[0]] = trial[1]
            trial = None
        else:
            trials += 1
            assert sharp in {tau * 2.0 ** i
                             for i in range(compiler.STEP_RETRIES)}
            if trial is None:  # a step's first trial
                assert sharp == passed.get(event, tau)
                ratcheted += sharp > tau
            else:
                assert (event, sharp) == (trial[0], 2.0 * trial[1])
            trial = (event, sharp)
    assert trials == 92
    assert ratcheted > 0


def test_exhausted_ladder_names_its_rungs_and_the_rejecting_check(
        monkeypatch):
    # an exhausted ladder names its kind, its first and last rung and the
    # check that rejected the last one, with the value and the limit.  At
    # (8,1), r = 3 with one rung per step, a fill at rung 16 moves the rows
    # outside its star by more than tol_step
    import crbmkit.compiler as compiler

    monkeypatch.setattr(compiler, "STEP_RETRIES", 1)
    monkeypatch.setattr(compiler, "TAU_MAX", 16.0)
    drift = (r"^fill sharpness schedule exhausted: rungs 16 to 16, at 16 "
             r"outside drift ([0-9.e-]+) > tol_step ([0-9.e-]+) "
             r"\(tau = 16\)$")
    with pytest.raises(BudgetExceeded) as exc:
        compile_universal(dirichlet_table(8, 1, 0), r=3)
    match = re.match(drift, str(exc.value.__cause__))
    assert match is not None
    assert float(match[1]) > float(match[2]) == pytest.approx(5.68e-5)
    assert str(exc.value).endswith(str(exc.value.__cause__))
    # a fill that mixes its star to 0.2 / 0.8 misses the point mass at
    # y = 1 at every rung, so its region's TV rejects the last one
    pipe = _Pipeline(2, 1, _ComponentScheme.points(1, [0, 1]), 32.0, 1e-3)
    members = [0, 1, 2]
    monkeypatch.setattr(compiler, "STEP_RETRIES", 3)
    with pytest.raises(BudgetExceeded, match=(
            r"^fill sharpness schedule exhausted: rungs 32 to 128, at 128 "
            r"region TV [0-9.e-]+ > bound 0 \(tau = 32\)$")):
        pipe._step("fill", lambda sharp: build_tilted_step(
            pipe.logp, one_star(2, 0, 0b11), np.full(3, 0.8),
            log_odds(np.full(3, 0.8)), pipe.scheme.tilt(1, sharp), sharp),
            members,
            pipe.scheme.dists[1], 0.0, np.zeros(4, dtype=bool))
    assert pipe.units == [] and pipe.model().m == 0


def common_support_table(k, n, size, seed):
    """Dirichlet rows on one random support of ``size`` outputs."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(1 << n, size=size, replace=False))
    rows = np.zeros((1 << k, 1 << n))
    rows[:, support] = rng.dirichlet(np.ones(size), size=1 << k)
    return ConditionalTable(k, n, rows)


EARLY_REJECTION_CASES = {
    "universal-2-2": lambda s: compile_universal(dirichlet_table(2, 2, s)),
    "universal-4-2": lambda s: compile_universal(dirichlet_table(4, 2, s)),
    "universal-3-3": lambda s: compile_universal(dirichlet_table(3, 3, s)),
    "universal-7-1-r3": lambda s: compile_universal(dirichlet_table(7, 1, s),
                                                    r=3),
    "common-4-2": lambda s: compile_common_support(
        common_support_table(4, 2, 3, s)),
    "partition-4-3-l2": lambda s: compile_partition(
        block_constant_target(4, 3, 2, s), 2),
    "support-4-2-d2": lambda s: compile_support_points(
        sparse_dirichlet_table(4, 2, 2, s), 2),
    "witness-3-3-m10": lambda s: divergence_witness(dirichlet_table(3, 3, s),
                                                    10),
}


def test_early_rejection_keeps_every_output(monkeypatch):
    # with the rejection a no-op, every tau level runs to its certificate,
    # as it did before the rejection existed; the checked compiles must
    # return the same parameters bit for bit and the same report (or
    # divergence), and stop some doomed level before its end
    import crbmkit.compiler as compiler

    applied = Counter()
    apply_step = compiler.apply_sharing_log

    def counted(*args, **kwargs):
        applied["calls"] += 1
        return apply_step(*args, **kwargs)

    monkeypatch.setattr(compiler, "apply_sharing_log", counted)

    def run_seeds(run, reject):
        monkeypatch.setattr(_Pipeline, "reject_if_doomed", reject)
        applied.clear()
        outputs = [run(seed) for seed in range(5)]
        return ([(params_digest(params), second) for params, second in outputs],
                applied["calls"])

    check = _Pipeline.reject_if_doomed
    fewer = []
    for name, run in EARLY_REJECTION_CASES.items():
        checked, checked_calls = run_seeds(run, check)
        unchecked, unchecked_calls = run_seeds(run, lambda *args: None)
        assert checked == unchecked, name
        assert checked_calls <= unchecked_calls, name
        fewer.append(checked_calls < unchecked_calls)
    assert any(fewer)


def test_finished_rows_move_by_at_most_the_later_steps(monkeypatch):
    # the premise of the early rejection: once a star (or a support row) is
    # finished, no later step has its rows in its region, so by the end of
    # the level they have moved by at most tol_step per later accepted
    # step.  A reset that touched a filled star would move them back to
    # the start component.
    records = []
    check = _Pipeline.reject_if_doomed

    def accepted(pipe):
        return pipe.used["fill"] + pipe.used["reset"]

    def assert_premise(pipe):
        for owner, rows, snap, done in records:
            if owner is pipe:
                drift = _worst_row_tv(pipe.rows()[rows], snap)
                assert drift <= (accepted(pipe) - done) * pipe.tol_step + 1e-12

    def record(self, rows, target_rows, eps, total_steps, what):
        # checked at each finished star, so a level that fails later on
        # is checked up to there
        assert_premise(self)
        records.append((self, rows, self.rows()[rows].copy(), accepted(self)))
        check(self, rows, target_rows, eps, total_steps, what)

    monkeypatch.setattr(_Pipeline, "reject_if_doomed", record)
    _, universal = compile_universal(dirichlet_table(7, 1, 0), r=3)
    _, depth2 = compile_universal(dirichlet_table(4, 2, 0), r=2)
    _, support = compile_support_points(sparse_dirichlet_table(4, 2, 2, 0), 2)
    assert universal.resets_used > 0 and depth2.resets_used > 0
    assert support.star_steps_used > 0
    # every star of the passing levels and every support row was recorded
    assert len(records) > (len(build_packing(7, 3).centers)
                           + len(build_packing(4, 2).centers) + 1)
    for pipe in {id(owner): owner for owner, *_ in records}.values():
        assert_premise(pipe)


def test_doomed_level_names_its_star_and_the_schedule_its_last_level(
        monkeypatch):
    # tau = 16 misses eps at (4,2) seed 0 from its first star on: the level
    # stops there and names the star, its TV and the limit; with tau = 16
    # the last level, the schedule's error chains that one, and without the
    # rejection it names the level's certificate TV instead
    import crbmkit.compiler as compiler

    pattern = (r"star 0: worst-row TV [0-9.e-]+ to the target > "
               r"limit [0-9.e-]+ \(tau = 16\)")
    k, n, eps = 4, 2, 1e-2
    monkeypatch.setattr(compiler, "TAU_MAX", 16.0)
    exhausted = r"^tau schedule exhausted without reaching eps = 0.01; "
    with pytest.raises(BudgetExceeded,
                       match=f"{exhausted}last level: {pattern}$") as exc:
        compile_universal(dirichlet_table(k, n, 0), eps=eps)
    assert isinstance(exc.value.__cause__, BudgetExceeded)
    monkeypatch.setattr(_Pipeline, "reject_if_doomed", lambda *args: None)
    with pytest.raises(BudgetExceeded, match=(
            f"{exhausted}last level: certificate row TV [0-9.e-]+ "
            r"\(tau = 16\)$")) as exc:
        compile_universal(dirichlet_table(k, n, 0), eps=eps)
    assert exc.value.__cause__ is None


def test_doomed_support_level_names_its_row(monkeypatch):
    # support points run as point stars (x, free_mask=0); at tau = 16 the
    # start dust on n = 3 outputs dooms the level at its first finished
    # row.  Rows whose only support point is y0 come first, so such a row
    # is rejected before any step; otherwise the first filled row is.
    import crbmkit.compiler as compiler

    applied = Counter()
    apply_step = compiler.apply_sharing_log

    def counted(*args, **kwargs):
        applied["calls"] += 1
        return apply_step(*args, **kwargs)

    monkeypatch.setattr(compiler, "apply_sharing_log", counted)
    monkeypatch.setattr(compiler, "TAU_MAX", 16.0)
    last = (r"^tau schedule exhausted without reaching eps = 0.01; last "
            r"level: row {}: worst-row TV [0-9.e-]+ to the target > limit "
            r"[0-9.e-]+ \(tau = 16\)$")
    # y0 = 1, the output shared by the most rows; row 1 has no other point
    rows = np.zeros((4, 8))
    rows[0, [1, 6]] = rows[3, [1, 2]] = 0.5
    rows[1, 1] = rows[2, 4] = 1.0
    with pytest.raises(BudgetExceeded, match=last.format(1)):
        compile_support_points(ConditionalTable(2, 3, rows.copy()))
    assert applied["calls"] == 0
    rows[1, [1, 5]] = 0.5
    with pytest.raises(BudgetExceeded, match=last.format(0)):
        compile_support_points(ConditionalTable(2, 3, rows.copy()))
    assert applied["calls"] > 0


# Each compile plans its own walk, and nothing is kept across compiles.  A
# case compiled first in a sequence must give the same bits after the other
# cases, which walk the same shapes, and after a compile of another target
# of its own shape.
PLAN_CASES = {
    "universal-8-1-r3": lambda s: compile_universal(dirichlet_table(8, 1, s),
                                                    r=3),
    "universal-6-2": lambda s: compile_universal(dirichlet_table(6, 2, s)),
    "universal-3-3": lambda s: compile_universal(dirichlet_table(3, 3, s)),
    "common-4-2": lambda s: compile_common_support(
        common_support_table(4, 2, 3, s)),
    "partition-4-3-l2": lambda s: compile_partition(
        block_constant_target(4, 3, 2, s), 2),
    "support-4-2-d2": lambda s: compile_support_points(
        sparse_dirichlet_table(4, 2, 2, s), 2),
    "witness-3-3-m10": lambda s: divergence_witness(dirichlet_table(3, 3, s),
                                                    10),
}


@pytest.mark.parametrize("name", sorted(PLAN_CASES))
def test_repeated_compiles_of_a_shape_give_the_fresh_bits(name):
    def output(run, seed):
        params, second = run(seed)
        return params_digest(params), repr(second)

    run = PLAN_CASES[name]
    fresh = output(run, 0)
    for other, other_run in PLAN_CASES.items():
        if other != name:
            output(other_run, 0)
    output(run, 1)
    assert output(run, 0) == fresh



def test_start_state_is_the_conditioned_broadcast_bit_for_bit():
    # a level's start state must be the state the full (2^k, 2^n)
    # broadcast of the start logits conditions to, layout and bits, the
    # rows' TV included, for one row (k = 0) and for many
    from crbmkit.bitspace import state_bits

    for n in range(1, 7):
        for scheme in (_ComponentScheme.points(n, range(1 << n)),
                       _ComponentScheme.points(n, [(1 << n) - 1, 0]),
                       _ComponentScheme.partition(n, 1)):
            for k in (0, 1, 2, 5, 9):
                for tau in (16.0, 128.0, 1024.0):
                    pipe = _Pipeline(k, n, scheme, tau, 1e-3)
                    logits = (state_bits(n) * pipe.start.b).sum(axis=1)
                    logp, rows = conditioned(np.asfortranarray(
                        np.broadcast_to(logits, (1 << k, 1 << n))), k)
                    for got, want in ((pipe.logp, logp), (pipe.rows(), rows)):
                        assert got.flags.f_contiguous
                        assert got.tobytes("F") == want.tobytes("F")
                    assert not pipe.rows().flags.writeable
                    assert pipe.start_tv == _worst_row_tv(rows,
                                                          scheme.dists[0])


def _sharp_cylinder_factors(width, fixed_mask, fixed_values, sharp):
    """Oracle: (width, 2) log factors of the cylinder ``(fixed_mask,
    fixed_values)``, -sharp on the off value of each fixed bit, the other
    bits flat, written bit by bit."""
    from crbmkit.bitspace import set_bits

    lf = np.zeros((width, 2))
    for i in set_bits(fixed_mask):
        lf[i, 1 - ((fixed_values >> i) & 1)] = -sharp
    return lf


def test_cylinders_are_the_bit_by_bit_cylinders():
    # the one cylinder builder, for stars, resets and output components:
    # on widths 0-10, fixed mask 0, the full mask and random ones, each
    # cylinder's members are bitspace's enumeration and its unit factors
    # the bit-by-bit ones, bit for bit, both read-only; a value with a bit
    # of the free mask set, or off the cube, is refused
    from crbmkit.bitspace import cylinder_members

    rng = np.random.default_rng(3)
    for width in range(11):
        full = (1 << width) - 1
        for mask in {0, full, *rng.integers(0, full + 1, 8).tolist()}:
            values = sorted({0, mask} | {
                v & mask for v in rng.integers(0, full + 1, 16).tolist()})
            factors, members = cylinders(width, mask, values)
            assert factors.shape == (len(values), width, 2)
            assert members.shape == (len(values),
                                     1 << (width - mask.bit_count()))
            assert members.dtype == np.intp
            assert not factors.flags.writeable
            assert not members.flags.writeable
            for v, lf, inside in zip(values, factors, members):
                assert inside.tolist() == cylinder_members(mask, v, width)
                assert lf.tobytes() == _sharp_cylinder_factors(
                    width, mask, v, 1.0).tobytes()
        if width:
            with pytest.raises(ValueError, match=(
                    f"^a value has a bit of the free mask 0b1 set or lies "
                    f"off \\[0, 2\\^{width}\\)$")):
                cylinders(width, full & ~1, [0, 1])
        for off in (-1, 1 << width):
            with pytest.raises(ValueError, match="or lies off"):
                cylinders(width, full, [0, off])


def test_packing_resets_sit_at_level_starts():
    # the walk runs a level's resets before its stars, one cylinders call
    # per level, which keeps the packing's schedule only if every reset
    # sits at a level's first star and one position's resets share one
    # fixed mask: on every feasible (k, r) with k <= 16 (r = 5 from
    # k = 15) and on (17, 5).  The walk carries all E(r) resets
    from crbmkit.packing import e_value, feasible_depths

    for k, r in [(k, r) for k in range(1, 17)
                 for r in feasible_depths(k)] + [(17, 5)]:
        seq = build_packing(k, r)
        starts = {0, *(np.flatnonzero(np.diff(seq.free_masks)) + 1).tolist()}
        for pos, at in seq.resets_at().items():
            assert pos in starts
            assert len({mask for mask, _ in at}) == 1
        resets = [reset for level in _packing_walk(k, r) for reset in level[0]]
        assert len(resets) == len(seq.reset_positions) == e_value(r)


def _rungs():
    """The sharpness rungs of every tau level of the compile schedule."""
    taus = [compiler.TAU_START * 2.0 ** j
            for j in range(int(np.log2(compiler.TAU_MAX
                                       / compiler.TAU_START)) + 1)]
    return sorted({tau * 2.0 ** i for tau in taus
                   for i in range(compiler.STEP_RETRIES)})


def test_batched_output_tilts_are_each_components_own_bit_for_bit():
    # a scheme builds all its components' output tilts at a sharpness in
    # one batch.  Each must be, factors and table, the tilt of its own
    # cylinder factors at that sharpness: at every rung a fill asks for,
    # and at every rung over the scheme's reset grade 2w, which is no
    # power-of-two multiple of the unit sharpness where w is 3, 5, 6 or 7.
    # The partitions of l = 1..n bits and the points give every grade
    # 2, 4, ..., 16.  A reset steps toward the start component's tilt of
    # the batch at its sharpness, so its tilt is checked here too
    from crbmkit.sharing import _log_values_of

    rungs = _rungs()
    for n in range(1, 9):
        for scheme in ([_ComponentScheme.points(n, range(1 << n)),
                        _ComponentScheme.points(n, [(1 << n) - 1, 0])]
                       + [_ComponentScheme.partition(n, l)
                          for l in range(n + 1)]):
            grade = 2.0 * max(scheme.sharp_width, 1)
            for sharp in rungs + [sharp / grade for sharp in rungs]:
                for t in range(scheme.count):
                    lf = _sharp_cylinder_factors(n, scheme.mask,
                                                 scheme.values[t], sharp)
                    out = scheme.tilt(t, sharp)
                    assert out.log_factors.tobytes() == lf.tobytes()
                    assert (out.log_sy.tobytes()
                            == _log_values_of(lf).tobytes())
                    assert not out.log_factors.flags.writeable
                    assert not out.log_sy.flags.writeable


def test_planned_reset_steps_are_the_bit_by_bit_cylinder_steps(monkeypatch):
    # a reset's cylinder factors and inputs are planned with the walk and
    # its step is built like a fill's: unit input factors scaled to the
    # trial's sharpness and the scheme's batched start tilt, with its
    # tilted state and normalizer.  A tau level runs the packing's resets
    # in order, so its i-th reset is the packing's i-th cylinder ``(mask,
    # values)``: its planned inputs and unit factors must be that
    # cylinder's, and each trial's step must be, bit for bit, the step
    # built from the cylinder's factors written bit by bit, its tables
    # summed by SharingStep, and the tilted state and normalizer that
    # apply_sharing_log computes for it, at every trial of the (8,1) r = 3
    # compile and the common (8,2) |T| = 3 compile
    from crbmkit.sharing import SharingStep, _log_values_of

    trials, checked, packings, current = [], [], [], {}
    build, reset = compiler.make_reset_step, _Pipeline.reset_if_needed
    pack = compiler.build_packing

    def packed(k, r):
        packings.append(pack(k, r))
        return packings[-1]

    def traced(*args):
        made = build(*args)
        trials.append((args, made, current["cylinder"]))
        return made

    def planned(pipe, factors, inside):
        seq, i = packings[-1], sum(p is pipe for p in checked)
        mask, values = current["cylinder"] = (int(seq.reset_masks[i]),
                                              int(seq.reset_values[i]))
        assert inside.tolist() == np.flatnonzero(
            (np.arange(1 << pipe.k) & mask) == values).tolist()
        assert factors.tobytes() == _sharp_cylinder_factors(
            pipe.k, mask, values, 1.0).tobytes()
        checked.append(pipe)
        return reset(pipe, factors, inside)

    monkeypatch.setattr(compiler, "build_packing", packed)
    monkeypatch.setattr(compiler, "make_reset_step", traced)
    monkeypatch.setattr(_Pipeline, "reset_if_needed", planned)
    for run, n in (
            (lambda: compile_universal(dirichlet_table(8, 1, 0), r=3), 1),
            (lambda: compile_common_support(common_support_table(8, 2, 3, 0)),
             2)):
        trials.clear()
        checked.clear()
        _, rep = run()
        assert rep.resets_used > 0 and len(checked) >= rep.resets_used
        assert len(trials) >= rep.resets_used
        scheme = checked[0].scheme
        grade = 2.0 * max(scheme.sharp_width, 1)
        rungs = {tau * 2.0 ** i for tau in (16.0, 32.0, 64.0)
                 for i in range(compiler.STEP_RETRIES)}
        for (logp, factors, out, sharp), made, (mask, values) in trials:
            assert sharp in rungs
            step, tilted, log_norm = made
            out_lf = _sharp_cylinder_factors(n, scheme.mask,
                                             scheme.values[0], sharp / grade)
            lf = np.concatenate((_sharp_cylinder_factors(8, mask, values,
                                                         sharp), out_lf))
            lam = float(1.0 / (1.0 + np.exp(min(sharp / 2.0, 700.0))))
            want = SharingStep(8, lam, lf, log_sy=_log_values_of(out_lf))
            assert (step.k, step.lam) == (want.k, want.lam)
            for a, b in ((step.log_factors, want.log_factors),
                         (step.log_sx, want.log_sx),
                         (step.log_sy, want.log_sy),
                         (out.log_factors, out_lf),
                         (tilted, logp + want.log_sx[:, None] + want.log_sy)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            stepped, _, norm = apply_sharing_log(logp, want)
            assert log_norm == norm
            assert apply_sharing_log(logp, step, tilted, log_norm)[0] \
                .tobytes() == stepped.tobytes()


@pytest.mark.parametrize("k,n,r", [(7, 2, 3), (8, 1, 3), (6, 2, 3),
                                   (10, 3, None)])
def test_simulated_rows_meet_the_certificate_far_below_the_margin(
        monkeypatch, k, n, r):
    # REJECT_MARGIN covers the one gap no step check bounds: the rows the
    # pipeline simulates against the certificate's evaluation of the
    # parameters.  On the certified level, the compile's last, the two must
    # agree 100 times more closely than the margin
    pipes, certificates = [], []
    init, evaluate = _Pipeline.__init__, compiler.eval_conditional

    def recorded(pipe, *args):
        init(pipe, *args)
        pipes.append(pipe)

    def certificate(params):
        certificates.append(evaluate(params))
        return certificates[-1]

    monkeypatch.setattr(_Pipeline, "__init__", recorded)
    monkeypatch.setattr(compiler, "eval_conditional", certificate)
    _, rep = compile_universal(random_conditional(k, n, 0), r)
    assert rep.tau_final == pipes[-1].tau and certificates
    gap = _worst_row_tv(pipes[-1].rows(), certificates[-1].rows)
    assert gap <= compiler.REJECT_MARGIN / 100


def test_compiler_keeps_no_plan_cache():
    assert not [fn for fn in vars(compiler).values()
                if callable(getattr(fn, "cache_clear", None))]


def test_each_star_is_planned_once_per_compile(monkeypatch):
    # every tau level walks the plan its compile made once: each star's
    # geometry is built once though the compile tries two levels or more
    calls = Counter()
    build = compiler.star_tilts

    def counted(k, centers, free_mask):
        calls.update((k, c, free_mask) for c in np.asarray(centers).tolist())
        return build(k, centers, free_mask)

    monkeypatch.setattr(compiler, "star_tilts", counted)
    # the (4,2) r = 2 packing has 6 stars, the k = 4 point walk 16
    for run, stars in (
            (lambda: compile_universal(dirichlet_table(4, 2, 0), r=2), 6),
            (lambda: compile_support_points(
                sparse_dirichlet_table(4, 3, 2, 0), 2), 1 << 4)):
        calls.clear()
        _, rep = run()
        assert rep.tau_final >= 32.0
        assert len(calls) == stars and set(calls.values()) == {1}


def _reference_plan(k, scheme, rows, betas, log_t, center, free_mask):
    """One star's geometry and fill plan, star by star from the bit
    enumerations: (members, free bits, cylinder factors, cylinder inputs,
    steps, target rows), the steps as ``_plan_stars`` records them."""
    from crbmkit.bitspace import (cylinder_members, set_bits, star_cylinder,
                                  star_members)

    members = star_members(center, free_mask)
    cylinder = star_cylinder(center, free_mask, k)
    steps, target = [], scheme.dists[0]
    for t in range(1, scheme.count):
        beta = betas[members, t - 1, None]
        if beta.any():
            target = (1.0 - beta) * target + beta * scheme.dists[t]
            steps.append((t, beta[:, 0], log_t[members, t - 1], target))
    return (members, set_bits(free_mask),
            _sharp_cylinder_factors(k, *cylinder, 1.0),
            cylinder_members(*cylinder, k), steps, rows[members])


def _beta_profiles(k, components, rng):
    """Mixed (about a third of the weights 0, some 1), sparse (at most one
    weight per row) and all-zero weight profiles of 2^k rows."""
    shape = (1 << k, components - 1)
    mixed = np.where(rng.random(shape) < 0.35, 0.0, rng.random(shape))
    mixed[rng.random(shape) < 0.05] = 1.0
    sparse = np.zeros(shape)
    if components > 1:
        hit = rng.random(1 << k) < 0.5
        sparse[hit, rng.integers(0, components - 1, hit.sum())] = (
            rng.random(hit.sum()))
    return mixed, sparse, np.zeros(shape)


def test_batched_plans_are_each_stars_own():
    # every level of stars sharing a free mask is planned in one batch; each
    # star's name, geometry, cylinder inputs, steps and target rows must be
    # the ones a star-by-star plan gives, bit for bit: on every packing
    # with k <= 10 and every point walk with k <= 8, toward mixed, sparse
    # and all-zero weight profiles.  A level's resets are the packing's at
    # its first star, and it has no other: each cylinder with its unit
    # factors and the inputs it holds, ascending
    from crbmkit.packing import feasible_depths, star_count

    rng = np.random.default_rng(0)
    walks = [(k, star_count(k, r), _packing_walk(k, r),
              build_packing(k, r).resets_at())
             for k in range(1, 11) for r in feasible_depths(k)]
    for k in range(9):
        rows = rng.permutation(1 << k)
        walks.append((k, 1 << k, [([], rows, 0, [("row", x) for x in rows])],
                      {}))
    for k, stars, walk, at in walks:
        assert sum(len(level[1]) for level in walk) == stars
        for resets, _, _, names in walk:
            assert not any(at.get(name[1]) for name in names[1:])
            cylinders_at = at.get(names[0][1], [])
            assert len(resets) == len(cylinders_at)
            for (factors, inside), (mask, values) in zip(resets,
                                                         cylinders_at):
                assert inside.dtype == np.intp
                assert inside.tolist() == [
                    x for x in range(1 << k) if x & mask == values]
                assert factors.tobytes() == _sharp_cylinder_factors(
                    k, mask, values, 1.0).tobytes()
        n = int(rng.integers(1, 4))
        scheme = _ComponentScheme.points(n, rng.permutation(1 << n)[
            :int(rng.integers(2, (1 << n) + 1))])
        rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
        for betas in _beta_profiles(k, scheme.count, rng):
            log_t = log_odds(betas)
            for _, centers, free_mask, names in walk:
                plans = _plan_stars(k, scheme, rows, betas, log_t, centers,
                                    free_mask, names)
                assert len(plans) == len(centers)
                for plan, center, name in zip(plans, centers.tolist(), names):
                    members, free_bits, factors, inside, steps, target = (
                        _reference_plan(k, scheme, rows, betas, log_t,
                                        center, free_mask))
                    assert plan.name == name
                    assert plan.tilt.members.tolist() == members
                    assert plan.tilt.members[0] == center
                    assert plan.tilt.free_bits.tolist() == free_bits
                    assert (plan.tilt.cylinder_factors.tobytes()
                            == factors.tobytes())
                    assert plan.tilt.inputs.tolist() == inside
                    assert plan.target.tobytes() == target.tobytes()
                    assert [step[0] for step in plan.steps] == [
                        step[0] for step in steps]
                    for got, want in zip(plan.steps, steps):
                        for a, b in zip(got[1:], want[1:]):
                            assert a.shape == b.shape
                            assert a.tobytes() == b.tobytes()
                    for a in plan.tilt:
                        assert not a.flags.writeable


def test_one_component_packed_compile_walks_no_star(monkeypatch):
    # with |T| = 1 every row already sits at the start component, so
    # nothing is filled and no packing is built; the start model is the
    # whole compile, priced at 0 units, and r is reported as given
    built = []
    monkeypatch.setattr(compiler, "build_packing",
                        lambda *args: built.append(args))
    for r in (None, 3):
        params, rep = compile_common_support(
            common_support_table(8, 2, 1, 0), r=r)
        assert params.m == 0
        assert rep == CompileReport(
            mode="common", hidden_units_used=0, resets_used=0,
            star_steps_used=0, achieved_tv=0.0013411756024459295,
            tau_final=32.0, budget_bound=0, within_budget=True,
            clamp_error=0.0, r=r, epsilon=0.01)
    assert built == []


def test_one_component_targets_report_alike(monkeypatch):
    # common |T| = 1 and the single-block partition take one path: no walk,
    # a budget of 0 and the caller's r, for r = None and a given depth
    read = []
    for name in ("build_packing", "_plan_stars"):
        monkeypatch.setattr(compiler, name,
                            lambda *args, name=name: read.append(name))

    def budget_part(rep):
        return (rep.hidden_units_used, rep.resets_used, rep.star_steps_used,
                rep.budget_bound, rep.within_budget, rep.r, rep.epsilon)

    for r in (None, 3):
        _, common = compile_common_support(
            common_support_table(8, 2, 1, 0), r=r)
        _, partition = compile_partition(
            block_constant_target(8, 2, 0, 0), 0, r=r)
        assert budget_part(common) == budget_part(partition) == (
            0, 0, 0, 0, True, r, 0.01)
    assert read == []


def test_depth_zero_is_refused_before_any_walk(monkeypatch):
    # a caller's r = 0 is refused with ValueError before any packing is
    # built or any star planned
    read = []
    for name in ("build_packing", "_plan_stars"):
        monkeypatch.setattr(compiler, name,
                            lambda *args, name=name: read.append(name))
    for run in (lambda: compile_universal(dirichlet_table(3, 1, 0), r=0),
                lambda: compile_common_support(
                    common_support_table(3, 2, 3, 0), r=0),
                lambda: compile_partition(
                    block_constant_target(3, 2, 0, 0), 0, r=0),
                lambda: compile_partition(
                    block_constant_target(3, 2, 1, 0), 1, r=0)):
        with pytest.raises(ValueError, match="^r must be >= 1$"):
            run()
    assert read == []
