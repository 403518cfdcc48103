import dataclasses
import functools
import hashlib
import re
from collections import Counter, defaultdict

import numpy as np
import pytest

from crbmkit import compiler, packing
from crbmkit.compiler import (
    CompileReport,
    _ComponentScheme,
    _Fill,
    _Level,
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
                             conditioned, cylinders, log_mass_ratios,
                             log_odds, mixture_weight_profile, own_unit_rows,
                             star_tilts)


def one_star(k, center, free_mask):
    """The ``StarTilt`` of the one star ``(center, free_mask)`` on k
    inputs."""
    tilts = star_tilts(k, [center], free_mask)
    return StarTilt(tilts.members[0], tilts.free_bits,
                    tilts.cylinder_factors[0], tilts.inputs[0])


def star_level(k, centers, free_mask):
    """The walk level of the stars ``(c, free_mask)`` on k inputs, c in
    ``centers``, named ("star", 0), ("star", 1), ... in order, with no
    reset."""
    return _Level(None, star_tilts(k, centers, free_mask), "star",
                  range(len(centers)))


def plan_one(k, scheme, rows, center, free_mask):
    """The compile's plan of the one star ``(center, free_mask)`` toward the
    target ``rows`` (2^k of them), named ("star", 0): one fill trial, one
    unit per component the star steps toward."""
    betas = mixture_weight_profile(scheme.masses(rows))
    return _plan_stars(star_level(k, [center], free_mask), rows, betas,
                       log_mass_ratios(log_odds(betas)))


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
# bit did.  When a packing level came to fill toward each component in one
# trial, each star's unit solved from its own rows without lambda, every
# digest and TV was re-recorded: the units are solved against the level's
# state, not the previous star's, and the pairs far below the softplus
# knee are skipped; no units or tau moved.  When each packing level came
# to run every component's fills as one trial, each unit solved from the
# level's state toward log(q_t / q_0), and each level boundary's resets as
# one trial, every digest and TV was re-recorded: the units of a level's
# later components and of a boundary's later resets are solved from the
# state before the level, not after the earlier ones.  No units, resets or
# tau moved.
GOLDEN = {
    "universal-3-2": (lambda: compile_universal(dirichlet_table(3, 2, 0)),
                      10, 32.0, 0.0007966103346532458,
                      "4cc49eb546f4f9d5a932cf5cf90c2bb80ce9e0ef4e95f4e916cbc406cb174960"),
    "universal-4-2": (lambda: compile_universal(dirichlet_table(4, 2, 0)),
                      19, 32.0, 0.0007966121164636256,
                      "a116a94160eb7d067ce8381fbd152487f4b846b276e9f50c54b3e6fdb0e14a9f"),
    "partition-4-3-l2": (lambda: compile_partition(
                             block_constant_target(4, 3, 2, seed=0), 2),
                         19, 32.0, 0.0007966121164636256,
                         "855ab24ad3b84ee1e4ddfe786ce8d59446c9bd1c617137109d2675d596aa51b3"),
    "support-4-2-d2": (lambda: compile_support_points(
                           sparse_dirichlet_table(4, 2, 2, seed=0), 2),
                       11, 32.0, 0.0013411761954154398,
                       "a55d337bb4204eb2c2d1d018fb81dc2aba7e597360a3469c2cca6ae1764a1d93"),
    # one reset grade 14 (sharp_width 7): its output tilts at sharp / 14
    # are not a power-of-two multiple of the unit ones, so a table scaled
    # from sharpness 1 would move this digest by an ulp
    "universal-3-7": (lambda: compile_universal(dirichlet_table(3, 7, 0)),
                      382, 16.0, 0.008117520568171926,
                      "a54c5fde513b059b5eca1b2c8653fd5da300cafb40ffbea1debd9c2c7a7cfa61"),
    # n = 3 at tau 64, where resets are graded 6: a trial's row sums over
    # the 8 outputs run in another order when their array is not
    # C-contiguous, which moves this digest
    "universal-5-3": (lambda: compile_universal(dirichlet_table(5, 3, 0)),
                      85, 64.0, 6.050668928027445e-05,
                      "7eb171312fbed527197fc8c49cd0821b3ce212e557801bf2acaaca7388f0dc8f"),
    # the size that sets the benchmark's compile tail: r = 3, with resets
    "universal-6-2": (lambda: compile_universal(dirichlet_table(6, 2, 0)),
                      68, 32.0, 0.0007974677332411167,
                      "c3994d13cca10305c0fe7923cccdb9a1d05abfe8693bbfb41630a36d1df46c72"),
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


#: (hidden units, resets, tau, params_digest) of universal compiles with one
#: component past the start, recorded when every level ran one fill trial
#: per component and one trial per reset: each of their levels fills one
#: component and each boundary resets at most one cylinder, so running a
#: level's fills and a boundary's resets as one trial each must keep every
#: bit
ONE_COMPONENT_DIGESTS = {
    4: (7, 1, 16.0,
        "f614db3c316ffa4a7ef50cc7d601aec992fa279a4e2ac9c92d9f6a73ffdeaeda"),
    5: (13, 1, 16.0,
        "705f2210fae711a861a98fb3eb0110dba1978ed0b8f0310a03a107253fbb50c9"),
    6: (25, 1, 16.0,
        "ad0838535192e18e013fe04e39225e835b6370c1db2f2df55bf2540fd1387b56"),
}


@pytest.mark.parametrize("k", sorted(ONE_COMPONENT_DIGESTS))
def test_one_component_fills_keep_their_bits(k):
    params, rep = compile_universal(dirichlet_table(k, 1, 0))
    assert (rep.hidden_units_used, rep.resets_used, rep.tau_final,
            params_digest(params)) == ONE_COMPONENT_DIGESTS[k]


def _trials_per_level(monkeypatch, run):
    """The trials of each packing level ``run`` walks, in order, as lists of
    (kind, sharpness) builds, and the ``apply_sharing_log`` calls of each."""
    levels, applied = [[]], [0]

    def spy(owner, attr, event):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            event(*args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, traced)

    def close(*args):
        levels.append([])
        applied.append(0)

    spy(compiler, "build_tilted_step",
        lambda *args: levels[-1].append(("fill", args[-1])))
    spy(compiler, "make_reset_step",
        lambda *args: levels[-1].append(("reset", args[-1])))
    spy(compiler, "apply_sharing_log",
        lambda *args: applied.__setitem__(-1, applied[-1] + 1))
    # a level ends at its doomed-star check, or when a tau level starts
    spy(_Pipeline, "reject_if_doomed", close)
    spy(_Pipeline, "__init__", lambda *args: levels[-1] and close())
    run()
    return levels, applied


@pytest.mark.parametrize("k,n,r", [(6, 2, 3), (3, 3, None)])
def test_a_packing_level_runs_one_reset_and_one_fill_trial(monkeypatch, k, n,
                                                           r):
    # each packing level of a tau level costs at most two trials: one for
    # its boundary's drifted resets and one for all its fills.  So every
    # build of a level is one rung of one of those two ladders, resets
    # first, each ladder doubling its sharpness from its first rung, and
    # each rung tried is applied at most once: a rung of several stars
    # whose own rows already miss their bound is rejected unapplied
    levels, applied = _trials_per_level(
        monkeypatch, lambda: compile_universal(dirichlet_table(k, n, 0), r))
    walked = 0
    for builds, calls in zip(levels, applied):
        assert calls <= len(builds)
        kinds = [kind for kind, _ in builds]
        assert kinds == sorted(kinds, reverse=True)  # resets, then fills
        for kind in ("reset", "fill"):
            sharps = [sharp for of, sharp in builds if of == kind]
            assert sharps == [sharps[0] * 2.0 ** i
                              for i in range(len(sharps))]
        walked += bool(builds)
    assert walked >= len(_packing_walk(build_packing(k, r or 1)))


def test_a_level_trial_makes_each_rows_mixture_of_its_tilts():
    # a level's units, all solved from the state before it, give each
    # member row p of a stepping star q_0 p + sum_t q_t tilt_t(p), the
    # mixture the one-component-at-a-time fills build: at (3,2), seed 0,
    # at rungs 64 to 256, within U tol_step of that mixture computed
    # directly from p, the tilts at the trial's sharpness, and the target
    # masses q
    seen = []
    fill = _Pipeline.fill

    def checked(pipe, plan):
        if not seen:
            for sharp in (64.0, 128.0, 256.0):
                units = build_tilted_step(
                    pipe.logp, plan.tilt, plan.log_q,
                    pipe.scheme.tilt(plan.t, sharp), sharp)
                rows = apply_sharing_log(pipe.logp, pipe.rows(), units)[1]
                p = pipe.rows()[plan.members.ravel()]
                q = plan.target  # the point components' masses
                s = np.exp(pipe.scheme.tilt(np.arange(1, 4), sharp).log_sy)
                tilted = p[:, None, :] * s
                tilted /= tilted.sum(axis=-1, keepdims=True)
                want = q[:, :1] * p + (q[:, 1:, None] * tilted).sum(axis=1)
                seen.append(_worst_row_tv(rows[plan.members.ravel()], want))
                assert seen[-1] <= len(plan.t) * pipe.tol_step
                # the units' cross terms, e^-sharp and below, leave
                # nothing a float shows
                assert seen[-1] <= 1e-12
        fill(pipe, plan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Pipeline, "fill", checked)
        _, rep = compile_universal(dirichlet_table(3, 2, 0))
    assert rep.hidden_units_used == 10 and len(seen) == 3


#: the benchmark's compile mix (perfbench/mixes.py), drawn here the same
#: way: universal sizes (k, n), then common (4,2) |T| = 3, partition (4,3)
#: l = 2, support (3,2) and (4,2) with d = 2, and divergence witnesses
#: (k, n, m), each from its own numpy generator [seed, 0, slot]
MIX_UNIVERSAL = [(2, 2), (3, 2), (4, 1), (4, 2), (5, 1), (3, 3), (5, 2),
                 (6, 1), (6, 2), (8, 1)]
MIX_WITNESS = [(2, 3, 6), (3, 3, 10), (4, 3, 19)]


def compile_mix(seed):
    """(kind, target rows, call) of each op of the compile mix's round 0
    at ``seed``."""
    slots = iter(range(1 << 16))

    def draw():
        return np.random.default_rng([seed, 0, next(slots)])

    ops = [("universal", draw().dirichlet(np.ones(1 << n), size=1 << k),
            lambda t: compile_universal(t, eps=1e-2))
           for k, n in MIX_UNIVERSAL]
    rng = draw()
    support = np.sort(rng.choice(4, size=3, replace=False))
    rows = np.zeros((16, 4))
    rows[:, support] = rng.dirichlet(np.ones(3), size=16)
    ops.append(("common", rows, lambda t: compile_common_support(t, eps=1e-2)))
    rows = draw().dirichlet(np.ones(4), size=16)[:, np.arange(8) & 3] / 2
    ops.append(("partition", rows, lambda t: compile_partition(t, 2, eps=1e-2)))
    for k, n in [(3, 2), (4, 2)]:
        # one random output per row plus 2 extra support points
        rng = draw()
        rows = np.zeros((1 << k, 1 << n))
        for x in range(1 << k):
            rows[x, rng.integers(0, 1 << n)] = 1.0
        for e in rng.choice((1 << k) * (1 << n), size=2, replace=False):
            rows[e >> n, e & ((1 << n) - 1)] += 1.0
        rows *= rng.uniform(0.5, 1.5, size=rows.shape)
        ops.append(("support", rows / rows.sum(axis=1, keepdims=True),
                    lambda t: compile_support_points(t, 2, 1e-2)))
    ops += [("witness", draw().dirichlet(np.ones(1 << n), size=1 << k),
             lambda t, m=m: divergence_witness(t, m))
            for k, n, m in MIX_WITNESS]
    return ops


#: (hidden units, resets, tau) of each compile of the mix's round 0, and
#: the hidden units of each witness, at seeds 1-3, recorded when every
#: level ran one trial per star and component
MIX_UNITS = {
    1: [(6, 0, 32.0), (10, 1, 32.0), (7, 1, 16.0), (19, 1, 32.0),
        (13, 1, 16.0), (22, 1, 32.0), (37, 1, 32.0), (25, 1, 16.0),
        (68, 8, 32.0), (88, 8, 16.0), (13, 1, 32.0), (19, 1, 32.0),
        (6, 0, 32.0), (5, 0, 32.0), 6, 10, 19],
    2: [(6, 0, 32.0), (10, 1, 32.0), (7, 1, 16.0), (19, 1, 32.0),
        (13, 1, 16.0), (22, 1, 32.0), (37, 1, 32.0), (25, 1, 16.0),
        (68, 8, 32.0), (88, 8, 16.0), (13, 1, 32.0), (19, 1, 32.0),
        (6, 0, 32.0), (10, 0, 32.0), 6, 10, 19],
    3: [(6, 0, 32.0), (10, 1, 32.0), (7, 1, 16.0), (19, 1, 32.0),
        (13, 1, 16.0), (22, 1, 32.0), (37, 1, 32.0), (25, 1, 16.0),
        (68, 8, 32.0), (88, 8, 16.0), (13, 1, 32.0), (19, 1, 32.0),
        (5, 0, 32.0), (10, 0, 32.0), 6, 10, 19],
}


@pytest.mark.parametrize("seed", sorted(MIX_UNITS))
def test_compile_mix_keeps_its_units_resets_and_tau(seed):
    # filling a packing level toward each component in one trial keeps
    # every compile of the benchmark's mix: its units, resets and tau, and
    # each witness's units; each compile still meets its tolerance
    got = []
    for kind, rows, call in compile_mix(seed):
        k, n = len(rows).bit_length() - 1, rows.shape[1].bit_length() - 1
        params, second = call(ConditionalTable(k, n, rows))
        if kind == "witness":
            got.append(params.m)
        else:
            assert second.achieved_tv <= second.epsilon
            got.append((second.hidden_units_used, second.resets_used,
                        second.tau_final))
    assert got == MIX_UNITS[seed]


def test_pipeline_rows_cache_follows_accepted_steps(monkeypatch):
    # the state is log p(y | x) - k log 2 as (2^k, 2^n) rows [x, y]: after
    # each accepted trial, a level's fills or a boundary's resets, every
    # row of it, plus k log 2, log-sums to 0, the cached rows are its
    # exponent, and it is the fresh application of the trial's units,
    # which returns the conditional they make; on (4,2) r = 2, where a
    # trial holds a unit per star and component
    k, n = 4, 2
    applied = []
    step = _Pipeline._step

    def step_and_check(self, *args):
        before, before_rows, accepted = self.logp, self._rows, len(self.units)
        step(self, *args)
        assert len(self.units) == accepted + 1
        assert self.logp.shape == (1 << k, 1 << n)
        assert self.logp.flags.f_contiguous
        state = self.logp + k * np.log(2.0)
        assert np.abs(np.log(np.exp(state).sum(axis=1))).max() <= 1e-12
        rows = self.rows()
        assert not rows.flags.writeable
        assert np.allclose(rows, np.exp(state), rtol=1e-12, atol=0.0)
        fresh, fresh_rows, _ = apply_sharing_log(before, before_rows,
                                                 self.units[-1])
        assert np.array_equal(self.logp, fresh)
        assert np.array_equal(rows, fresh_rows)
        applied.append(self.units[-1])

    monkeypatch.setattr(_Pipeline, "_step", step_and_check)
    _, rep = compile_universal(dirichlet_table(k, n, 0), r=2)
    assert rep.resets_used > 0 and rep.star_steps_used > 0
    assert sum(len(units.bias) for units in applied) >= rep.hidden_units_used
    assert max(len(units.bias) for units in applied) > 1 << n


def test_compile_reduces_the_joint_once_per_trial(monkeypatch):
    # a fill trial makes no whole-state logsumexp, since each star's units
    # are solved from its own rows; a reset trial makes one, a reduction
    # per reset of the whole state, for the tilt normalizers its units'
    # biases take (hidden_unit_from_log, once per reset trial).  The state
    # has mass 1, so neither the stepped state nor a tau level's start
    # state is reduced again.  An accepted trial is kept, so there is at
    # most one application per trial.  A reset trial builds one stack of input
    # tables, in its builder, and a fill trial none.  The output tilts a
    # trial steps toward are rows of one batch of every component's tilts,
    # built on the first use of its sharpness only, by a fill or a reset; a
    # reset's is the start component's row, the point 0's, and a fill's one
    # row per unit.  The mixture weights' log-odds are taken once per
    # compile, not per tau level or star.  The output tilts are the
    # shape's: a later compile of the shape builds none it kept
    import crbmkit.compiler as compiler
    import crbmkit.sharing as sharing

    k, n = 4, 2
    shape = (1 << k, 1 << n)
    calls = Counter()
    outputs = []
    batches = {}

    def spy(owner, attr, name=None, counts=lambda *a, **kw: True):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            if counts(*args, **kwargs):
                calls[name or attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    def full_joint(a, axis=None):
        # the whole state, or a stack of it reduced per step
        return (np.shape(a) == shape and axis is None
                or np.shape(a)[1:] == shape and axis == (-2, -1))

    def output_of(kind):
        # the output tilts a trial steps toward, and its sharpness
        def record(*args, **kwargs):
            outputs.append((kind, args[-2], args[-1]))
            return True
        return record

    build = compiler.output_tilts

    def batch(unit_factors, sharp):
        assert sharp not in batches
        batches[sharp] = build(unit_factors, sharp)
        return batches[sharp]

    spy(sharing, "logsumexp", "full", full_joint)
    spy(sharing, "_log_values_of", "inputs",
        lambda log_factors: log_factors.shape[-2:] == (k, 2))
    spy(sharing, "_log_values_of", "other tables",
        lambda log_factors: log_factors.shape[-2:] != (k, 2))
    monkeypatch.setattr(compiler, "output_tilts", batch)
    spy(compiler, "build_tilted_step", "trial", output_of("fill"))
    spy(compiler, "make_reset_step", "trial", output_of("reset"))
    spy(compiler, "apply_sharing_log")
    spy(compiler, "hidden_unit_from_log")
    spy(compiler, "log_odds")
    spy(_Pipeline, "__init__", "level")
    _, rep = compile_universal(dirichlet_table(k, n, 0))
    trials = calls["trial"]
    resets = sum(kind == "reset" for kind, *_ in outputs)
    assert trials > resets > 0 and rep.resets_used > 0
    assert rep.hidden_units_used > 0
    assert calls["level"] == 2  # tau = 16 fails, 32 passes
    # a rung of several stars whose own rows miss their bound is rejected
    # unapplied
    assert 0 < calls["apply_sharing_log"] <= trials
    assert calls["full"] == calls["hidden_unit_from_log"] == resets
    assert calls["inputs"] == resets
    # every table not over the inputs is one output batch
    assert calls["other tables"] == len(batches)
    assert calls["log_odds"] == 1
    # a batch stacks the four point components' tilts, and each trial's
    # output tilts are rows of the batch of its sharpness; each reset's is
    # the batch's first, the start component's, which its step takes as it
    # is
    assert all(tilts.log_factors.shape == (1 << n, n, 2)
               and tilts.log_sy.shape == (1 << n, 1 << n)
               for tilts in batches.values())
    assert len(outputs) == trials
    grade = 2.0 * n
    check_outputs(outputs, batches, grade)
    # one batch per sharpness the trials' tilts have, fewer than the
    # trials
    sharps = {sharp / grade if kind == "reset" else sharp
              for kind, _, sharp in outputs}
    assert sorted(batches) == sorted(sharps) and len(batches) < trials
    # a later compile of the shape, another target's, keeps every count
    # per trial and tau level; its tilts are rows of the batches the shape
    # kept, built once per sharpness for the shape (``batch`` refuses a
    # second), and its tables are its reset trials' input tables only
    calls.clear()
    outputs.clear()
    _, rep = compile_universal(dirichlet_table(k, n, 1))
    trials = calls["trial"]
    resets = sum(kind == "reset" for kind, *_ in outputs)
    assert trials > resets > 0 and rep.resets_used > 0
    assert calls["level"] == 2
    assert 0 < calls["apply_sharing_log"] <= trials
    assert calls["full"] == calls["hidden_unit_from_log"] == resets
    assert calls["inputs"] == resets and calls["other tables"] == 0
    assert calls["log_odds"] == 1
    check_outputs(outputs, batches, grade)


def check_outputs(outputs, batches, grade):
    """Each trial's output tilts, read-only, are rows of the batch of its
    sharpness: a reset's the batch's first, the start component's, as it
    is, and a fill's one row per unit."""
    for kind, out, sharp in outputs:
        assert not out.log_factors.flags.writeable
        assert not out.log_sy.flags.writeable
        if kind == "reset":
            rows = batches[sharp / grade]
            assert out.log_factors.base is rows.log_factors
            assert out.log_factors.tobytes() == rows.log_factors[0].tobytes()
            # the point 0's factors: -sharp on the value 1 of each bit
            assert not out.log_factors[:, 0].any()
        else:
            rows = batches[sharp]
            for lf, sy in zip(out.log_factors, out.log_sy):
                t = [j for j in range(1, len(rows.log_factors))
                     if rows.log_factors[j].tobytes() == lf.tobytes()]
                assert len(t) == 1
                assert sy.tobytes() == rows.log_sy[t[0]].tobytes()


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

    spy("append_hidden_unit", lambda p, w_out, w_in, bias: (
        "append", p.m, len(w_out), len(w_in), len(bias)))
    pipes = []
    make = compiler._Pipeline

    def level(*args):
        events.append(("level",))
        pipes.append(make(*args))
        return pipes[-1]

    monkeypatch.setattr(compiler, "_Pipeline", level)
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
    levels = []
    for event, following in zip(events, events[1:] + [None]):
        if event[0] == "level":
            levels.append(None)
            pipe = pipes[len(levels) - 1]
            units = sum(len(accepted.bias) for accepted in pipe.units)
            assert units == pipe.used["fill"] + pipe.used["reset"]
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
    # (off, on) pair; the output tables are built in batches, on a shape's
    # first compile, and kept with it: a later compile of the shape builds
    # only its reset trials' input tables
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
    widths.clear()
    _, rep = compile_universal(dirichlet_table(k, n, 1))
    assert rep.resets_used > 0 and set(widths) == {k}


def test_step_loop_budget_names_the_step_kind(monkeypatch):
    # fills and resets share one retry loop; with no tries left each path
    # raises BudgetExceeded naming its own kind and accepts no unit
    import crbmkit.compiler as compiler

    # the star at 0 with both inputs free, on the full 2-cube
    scheme = _ComponentScheme(1, 1, [0, 1])
    fill = plan_one(2, scheme, np.array([[0.2, 0.8]] * 4), 0, 0b11).fill
    pipe = _Pipeline(2, 1, scheme, 32.0, 1e-3)
    pipe.fill(fill)  # moves the rows off the start
    assert len(pipe.units) == 1
    monkeypatch.setattr(compiler, "STEP_RETRIES", 0)
    with pytest.raises(BudgetExceeded, match="^reset sharpness"):
        pipe.reset(cylinders(2, 0, [0]))
    with pytest.raises(BudgetExceeded, match="^fill sharpness"):
        pipe.fill(fill)
    assert len(pipe.units) == 1 and pipe.model().m == 1


def test_a_reset_trial_holds_each_row_to_one_resets_bound(monkeypatch):
    # each reset row lies in one cylinder, so a reset trial of c cylinders
    # holds every row to the start TV plus one tol_step, as a trial of its
    # cylinder's reset alone did; its leak and drift checks allow c
    # tol_step.  At (6,2), r = 3, seed 0, the boundaries reset 4 cylinders
    # at once
    bounds = []
    step = _Pipeline._step

    def spied(pipe, kind, build, members, owner, target, bound, *args):
        if kind == "reset":
            bounds.append((len(owner), bound - pipe.start_tv,
                           pipe.tol_step))
        return step(pipe, kind, build, members, owner, target, bound, *args)

    monkeypatch.setattr(_Pipeline, "_step", spied)
    compile_universal(dirichlet_table(6, 2, 0), r=3)
    assert max(count for count, _, _ in bounds) == 4
    for _, slack, tol_step in bounds:
        assert slack == pytest.approx(tol_step, rel=1e-9)


def test_step_ladders_ratchet_within_a_level(monkeypatch):
    # every trial's sharpness is a rung tau * 2^i, i < STEP_RETRIES; a
    # batch's ladder starts at the rung the last accepted trial of its kind
    # passed in this tau level (tau for the first) and doubles from there.
    # At (8,1), r = 3, seed 0, that is 9 trials for the 88 units at
    # tau = 16: each of the 3 packing levels runs one fill trial and each
    # of its 2 reset boundaries one reset trial.  One trial per level and
    # component and one per reset made 15, one trial per star and
    # component 92, and a ladder restarting at tau on every step 214
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
    spy(_Pipeline, "__init__", lambda self, k, n, scheme, tau, tol: (
        "level", tau))
    step = _Pipeline._step

    def accepted(*args):
        step(*args)
        events.append(("accept", None))

    monkeypatch.setattr(_Pipeline, "_step", accepted)
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
    assert trials == 9
    assert ratcheted > 0


def test_exhausted_ladder_names_its_rungs_and_the_rejecting_check(
        monkeypatch):
    # an exhausted ladder names its kind, its batch's first star and size
    # in units, its first and last rung and the check that rejected the
    # last one, with the value and the limit.  At (8,1), r = 3 with one
    # rung per trial, the first level's fill trial, one unit for each of
    # its 32 stars, misses its region bound at rung 16: the start TV plus
    # 32 step tolerances of 5.68e-5
    import crbmkit.compiler as compiler

    monkeypatch.setattr(compiler, "STEP_RETRIES", 1)
    monkeypatch.setattr(compiler, "TAU_MAX", 16.0)
    region = (r"^fill sharpness schedule exhausted at star 0 \(batch of 32\): "
              r"rungs 16 to 16, at 16 region TV ([0-9.e-]+) > bound "
              r"([0-9.e-]+) \(tau = 16\)$")
    with pytest.raises(BudgetExceeded) as exc:
        compile_universal(dirichlet_table(8, 1, 0), r=3)
    match = re.match(region, str(exc.value.__cause__))
    assert match is not None
    start_tv = _Pipeline(8, 1, _ComponentScheme(1, 1, [0, 1]), 16.0,
                         0.0).start_tv
    assert float(match[1]) > float(match[2]) == pytest.approx(
        start_tv + 32 * 5.68e-5, rel=2e-3)
    assert str(exc.value).endswith(str(exc.value.__cause__))
    # a fill that mixes its star to 0.2 / 0.8 misses the point mass at
    # y = 1 at every rung, so its region's TV rejects the last one; with
    # no region bound, the star (0, 0b01) at sharpness 1 moves the rows 2
    # and 3 outside its cylinder by more than tol_step
    scheme = _ComponentScheme(1, 1, [0, 1])
    pipe = _Pipeline(2, 1, scheme, 32.0, 1e-3)
    stars = star_tilts(2, [0], 0b11)
    monkeypatch.setattr(compiler, "STEP_RETRIES", 3)
    with pytest.raises(BudgetExceeded, match=(
            r"^fill sharpness schedule exhausted at star 7 \(batch of 1\): "
            r"rungs 32 to 128, at 128 region TV [0-9.e-]+ > bound 0 "
            r"\(tau = 32\)$")):
        pipe._step("fill", lambda sharp: build_tilted_step(
            pipe.logp, stars, log_odds(np.full((1, 3), 0.8)),
            scheme.tilt(1, sharp), sharp), stars.members, np.arange(1),
            scheme.dists[1], 0.0, stars.inputs.ravel(), ("star", 7))
    assert pipe.units == [] and pipe.model().m == 0
    pipe = _Pipeline(2, 1, scheme, 1.0, 1e-3)
    stars = star_tilts(2, [0], 0b01)
    monkeypatch.setattr(compiler, "STEP_RETRIES", 1)
    with pytest.raises(BudgetExceeded, match=(
            r"^fill sharpness schedule exhausted at star 0 \(batch of 1\): "
            r"rungs 1 to 1, at 1 outside drift [0-9.e-]+ > limit 0.001 "
            r"\(tau = 1\)$")):
        pipe._step("fill", lambda sharp: build_tilted_step(
            pipe.logp, stars, log_odds(np.full((1, 2), 0.8)),
            scheme.tilt(1, sharp), sharp), stars.members, np.arange(1),
            scheme.dists[1], 2.0, stars.inputs.ravel(), ("star", 0))
    assert pipe.units == []


def test_cross_star_leak_rejects_a_batch():
    # the stars (0, 0b01) and (2, 0b01) on 2 inputs have disjoint
    # cylinders, {0, 1} and {2, 3}, so their level fills them in one
    # trial.  At rung 8 each star's unit alone passes, but each one moves
    # the other's rows by more than the batch's two tol_step: the batch is
    # rejected by the cross-star leak check, named with its value and
    # limit; a sharper rung passes all three checks
    import crbmkit.compiler as compiler

    scheme = _ComponentScheme(1, 1, [0, 1])
    rows = np.full((4, 2), 0.5)
    betas = mixture_weight_profile(scheme.masses(rows))
    stars = _plan_stars(star_level(2, np.array([0, 2]), 0b01), rows, betas,
                        log_mass_ratios(log_odds(betas)))
    fill = stars.fill
    tilt = fill.tilt
    assert tilt.members.tolist() == [[0, 1], [2, 3]]
    assert fill.owner.tolist() == [0, 1]
    for s in range(2):
        alone = _Pipeline(2, 1, scheme, 8.0, 1e-3)
        one = slice(s, s + 1)
        alone.fill(_Fill(fill.t[one], tilt.take(one), fill.log_q[one],
                         fill.members[one], np.zeros(1, dtype=np.intp),
                         fill.target[2 * s:2 * s + 2], tilt.inputs[s],
                         stars.level.name(s)))
        assert alone._rung["fill"] == 0
    pipe = _Pipeline(2, 1, scheme, 8.0, 1e-3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler, "STEP_RETRIES", 1)
        with pytest.raises(BudgetExceeded, match=(
                r"^fill sharpness schedule exhausted at star 0 \(batch of "
                r"2\): rungs 8 to 8, at 8 cross-star leak ([0-9.e-]+) > "
                r"limit 0.002 \(tau = 8\)$")):
            pipe.fill(fill)
    assert pipe.units == []
    pipe.fill(fill)
    assert pipe._rung["fill"] > 0 and pipe.used["fill"] == 2
    assert _worst_row_tv(pipe.rows(), rows) <= pipe.allowance


def test_a_rung_whose_own_rows_miss_is_rejected_unapplied(monkeypatch):
    # a trial of several stars first grows each star's member rows by its
    # own units alone; a rung that leaves them farther than the region
    # bound plus U tol_step from the target is rejected without applying it
    # to the whole state, named by that check.  Two stars mixed to 0.5 /
    # 0.5, held to the point mass at y = 1 with no region bound, miss at
    # every rung; applied, each such rung fails the region check too
    scheme = _ComponentScheme(1, 1, [0, 1])
    rows = np.full((4, 2), 0.5)
    betas = mixture_weight_profile(scheme.masses(rows))
    fill = _plan_stars(star_level(2, np.array([0, 2]), 0b01), rows, betas,
                       log_mass_ratios(log_odds(betas))).fill
    pipe = _Pipeline(2, 1, scheme, 8.0, 1e-3)
    target = np.tile(scheme.dists[1], (4, 1))

    def build(sharp):
        return build_tilted_step(pipe.logp, fill.tilt, fill.log_q,
                                 scheme.tilt(fill.t, sharp), sharp)

    applied = []
    monkeypatch.setattr(compiler, "apply_sharing_log",
                        lambda *args: applied.append(args))
    monkeypatch.setattr(compiler, "STEP_RETRIES", 3)
    with pytest.raises(BudgetExceeded, match=(
            r"^fill sharpness schedule exhausted at star 0 \(batch of 2\): "
            r"rungs 8 to 32, at 32 own-group TV [0-9.e-]+ > bound \+ limit "
            r"0.002 \(tau = 8\)$")):
        pipe._step("fill", build, fill.members, fill.owner, target, 0.0,
                   fill.inside, ("star", 0))
    assert applied == [] and pipe.units == []
    for sharp in (8.0, 16.0, 32.0):
        units = build(sharp)
        grown = apply_sharing_log(pipe.logp, pipe.rows(), units)[1]
        assert _worst_row_tv(grown[fill.members.ravel()], target) > 0.0


def test_cross_star_leak_reads_each_stars_units_together():
    # two stars of one level on 3 inputs, (0, 0b001) and (4, 0b001), each
    # filled toward three point components of n = 2 outputs in one trial:
    # six units, three per star.  A star's own rows are those its three
    # units make together, which is what the leak check compares against:
    # at a rung where the trial passes, the leak it reads is within its
    # six tol_step, and a star's units toward components 1..3 alone
    # would leave its rows near the start component, far from their target
    scheme = _ComponentScheme(2, 3, range(4))
    rng = np.random.default_rng(12)
    rows = rng.dirichlet(np.ones(4), size=8)
    betas = mixture_weight_profile(scheme.masses(rows))
    stars = _plan_stars(star_level(3, np.array([0, 4]), 0b001), rows, betas,
                        log_mass_ratios(log_odds(betas)))
    fill = stars.fill
    assert fill.t.tolist() == [1, 2, 3, 1, 2, 3]
    assert fill.owner.tolist() == [0, 0, 0, 1, 1, 1]
    pipe = _Pipeline(3, 2, scheme, 32.0, 1e-3)
    before = pipe.logp
    pipe.fill(fill)
    assert len(pipe.units) == 1 and pipe.used["fill"] == 6
    units = pipe.units[0]
    own = own_unit_rows(before, units, fill.members, fill.owner)
    region = fill.members.ravel()
    assert _worst_row_tv(pipe.rows()[region], own) <= 6 * pipe.tol_step
    assert _worst_row_tv(own, fill.target) <= pipe.allowance
    single = own_unit_rows(before, units, np.repeat(fill.members, 3, axis=0),
                           np.arange(6))
    assert _worst_row_tv(single, np.repeat(
        fill.target.reshape(2, -1, 4), 3, axis=0).reshape(-1, 4)) > 0.1


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
    # the premise of the early rejection: once a level's stars (or the
    # support rows) are finished, no later step has their rows in its
    # region, so by the end of the walk they have moved by at most tol_step
    # per later accepted unit.  A reset that touched a filled star would
    # move them back to the start component.
    records = []
    levels = defaultdict(list)
    check = _Pipeline.reject_if_doomed

    def accepted(pipe):
        return pipe.used["fill"] + pipe.used["reset"]

    def assert_premise(pipe):
        for owner, rows, snap, done in records:
            if owner is pipe:
                drift = _worst_row_tv(pipe.rows()[rows], snap)
                assert drift <= (accepted(pipe) - done) * pipe.tol_step + 1e-12

    def record(self, stars, eps, total_steps):
        # checked at each finished level, so a tau level that fails later
        # on is checked up to there
        assert_premise(self)
        rows = stars.members.ravel()
        records.append((self, rows, self.rows()[rows].copy(), accepted(self)))
        levels[id(self)].append(len(stars.members))
        check(self, stars, eps, total_steps)

    monkeypatch.setattr(_Pipeline, "reject_if_doomed", record)
    certified = []
    _, universal = compile_universal(dirichlet_table(7, 1, 0), r=3)
    certified.append(levels[id(records[-1][0])])
    _, depth2 = compile_universal(dirichlet_table(4, 2, 0), r=2)
    certified.append(levels[id(records[-1][0])])
    _, support = compile_support_points(sparse_dirichlet_table(4, 2, 2, 0), 2)
    certified.append(levels[id(records[-1][0])])
    assert universal.resets_used > 0 and depth2.resets_used > 0
    assert support.star_steps_used > 0
    # every level of the certified tau levels was recorded, with every
    # star and every support row
    assert [len(walk) for walk in certified] == [
        len(_packing_walk(build_packing(7, 3))),
        len(_packing_walk(build_packing(4, 2))), 1]
    assert [sum(walk) for walk in certified] == [
        len(build_packing(7, 3).centers), len(build_packing(4, 2).centers),
        16]
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
    # support points run as point stars (x, free_mask=0), all in one
    # level, checked when its fills end; at tau = 16 the start dust on
    # n = 3 outputs dooms every row, and the error names the first in walk
    # order.  Rows whose only support point is y0 come first, so such a row
    # is named when there is one; otherwise the first filled row is.
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
    assert applied["calls"] > 0
    applied.clear()
    rows[1, [1, 5]] = 0.5
    with pytest.raises(BudgetExceeded, match=last.format(0)):
        compile_support_points(ConditionalTable(2, 3, rows.copy()))
    assert applied["calls"] > 0


def reversed_outputs(table):
    """``table`` with its outputs reversed, y -> 2^n - 1 - y: a sparse
    target whose most shared output y0 is another one, where it is
    unique."""
    return ConditionalTable(table.k, table.n, table.rows[:, ::-1].copy())


def first_outputs_table(k, n, size, seed):
    """Dirichlet rows on the outputs 0 .. size - 1: the common support of
    the components a partition of 2^l = size blocks has, on other
    cylinders."""
    rows = np.zeros((1 << k, 1 << n))
    rows[:, :size] = np.random.default_rng(seed).dirichlet(
        np.ones(size), size=1 << k)
    return ConditionalTable(k, n, rows)


# A compile keeps the target-free half of its shape (``compiler._shape``)
# for later compiles.  A case compiled first in a sequence must give the
# same bits after the other cases, which walk the same shapes or shapes a
# key missing a part would mix up with its own, and after a compile of
# another target of its own shape: two support compiles at (4,2) whose
# start outputs y0 differ (the scheme's value order), common |T| = 3 and
# |T| = 4 compiles and a partition l = 2 compile at n = 3, the last two on
# the same component values but not the same cylinders, and divergence
# witnesses of two block widths at (3,3).
PLAN_CASES = {
    "universal-8-1-r3": lambda s: compile_universal(dirichlet_table(8, 1, s),
                                                    r=3),
    "universal-6-2": lambda s: compile_universal(dirichlet_table(6, 2, s)),
    "universal-3-3": lambda s: compile_universal(dirichlet_table(3, 3, s)),
    "common-4-2": lambda s: compile_common_support(
        common_support_table(4, 2, 3, s)),
    "common-4-3": lambda s: compile_common_support(
        common_support_table(4, 3, 3, s)),
    "common-4-3-first-four": lambda s: compile_common_support(
        first_outputs_table(4, 3, 4, s)),
    "partition-4-3-l2": lambda s: compile_partition(
        block_constant_target(4, 3, 2, s), 2),
    "support-4-2-d2": lambda s: compile_support_points(
        sparse_dirichlet_table(4, 2, 2, s), 2),
    "support-4-2-d2-reversed": lambda s: compile_support_points(
        reversed_outputs(sparse_dirichlet_table(4, 2, 2, s)), 2),
    "witness-3-3-m10": lambda s: divergence_witness(dirichlet_table(3, 3, s),
                                                    10),
    "witness-3-3-m4": lambda s: divergence_witness(dirichlet_table(3, 3, s),
                                                   4),
}


def _shape_output(run, seed):
    params, second = run(seed)
    return params_digest(params), repr(second)


@functools.cache
def _fresh_output(name, seed):
    """The bits of PLAN_CASES[name] at ``seed`` compiled with nothing
    kept."""
    compiler._SHAPES.clear()
    packing._SEQUENCES.clear()
    return _shape_output(PLAN_CASES[name], seed)


@pytest.mark.parametrize("name", sorted(PLAN_CASES))
def test_repeated_compiles_of_a_shape_give_the_fresh_bits(name, monkeypatch):
    from crbmkit import bitspace
    from crbmkit.bounds import feasible_block_width
    from crbmkit.errors import CapExceeded

    # the support cases start at outputs 2 and 1, the witnesses compile
    # the partitions of l = 2 and l = 1
    assert [int(np.argmax((t.rows > 0).sum(axis=0))) for t in (
        sparse_dirichlet_table(4, 2, 2, 0),
        reversed_outputs(sparse_dirichlet_table(4, 2, 2, 0)))] == [2, 1]
    assert [feasible_block_width(3, 3, m) for m in (10, 4)] == [2, 1]
    fresh = {(case, seed): _fresh_output(case, seed)
             for case in PLAN_CASES for seed in (0, 1)}
    compiler._SHAPES.clear()
    packing._SEQUENCES.clear()
    run = PLAN_CASES[name]
    assert _shape_output(run, 0) == fresh[name, 0]
    assert len(compiler._SHAPES._tables) == 1
    # a kept shape is priced on every compile: a lowered limit refuses it
    with monkeypatch.context() as patch:
        patch.setattr(bitspace, "MAX_CELLS", 4)
        with pytest.raises(CapExceeded):
            run(0)
    # every other case, and another target of this case's shape, then this
    # case again: each gives its bits compiled with nothing kept
    for other, other_run in PLAN_CASES.items():
        if other != name:
            assert _shape_output(other_run, 0) == fresh[other, 0]
    assert _shape_output(run, 1) == fresh[name, 1]
    assert _shape_output(run, 0) == fresh[name, 0]


def test_start_state_is_the_conditioned_broadcast_bit_for_bit():
    # a level's start state must be the state the full (2^k, 2^n)
    # broadcast of the start logits conditions to, layout and bits, the
    # rows' TV included, for one row (k = 0) and for many
    from crbmkit.bitspace import state_bits

    for n in range(1, 7):
        full = (1 << n) - 1
        for scheme in (_ComponentScheme(n, full, range(1 << n)),
                       _ComponentScheme(n, full, [full, 0]),
                       _ComponentScheme(n, 1, range(2))):
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
    # and one reset trial per level, which keeps the packing's schedule
    # only if every reset sits at a level's first star and one position's
    # resets share one fixed mask: on every feasible (k, r) with k <= 16
    # (r = 5 from k = 15) and on (17, 5).  The walk carries all E(r)
    # resets, stacked per level
    from crbmkit.packing import e_value, feasible_depths

    for k, r in [(k, r) for k in range(1, 17)
                 for r in feasible_depths(k)] + [(17, 5)]:
        seq = build_packing(k, r)
        starts = {0, *(np.flatnonzero(np.diff(seq.free_masks)) + 1).tolist()}
        for pos, at in seq.resets_at().items():
            assert pos in starts
            assert len({mask for mask, _ in at}) == 1
        resets = [len(level[0][1]) for level in _packing_walk(seq)
                  if level[0] is not None]
        assert sum(resets) == len(seq.reset_positions) == e_value(r)


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
        full = (1 << n) - 1
        for scheme in ([_ComponentScheme(n, full, range(1 << n)),
                        _ComponentScheme(n, full, [full, 0])]
                       + [_ComponentScheme(n, (1 << l) - 1, range(1 << l))
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
    # a level boundary's resets are planned with the walk, stacked, and
    # run as one trial: every cylinder with a row drifted from the start
    # component, decided on the state before the trial, gets one unit, its
    # step built like a fill's: unit input factors scaled to the trial's
    # sharpness and the scheme's batched start tilt, with its tilt
    # normalizer on that state.  A tau level runs the packing's resets in
    # order, so its boundaries' cylinders are the packing's ``(mask,
    # values)`` in order: their planned inputs and unit factors must be
    # those cylinders', and each trial's steps must be, bit for bit, the
    # steps built one cylinder at a time from its factors written bit by
    # bit, their tables summed by SharingStep, each with the normalizer of
    # its tilted state, at every trial of the (8,1) r = 3 compile and the
    # common (8,2) |T| = 3 compile
    from crbmkit.sharing import SharingStep, _log_values_of, logsumexp

    trials, boundaries, packings = [], [], []
    build, reset = compiler.make_reset_step, _Pipeline.reset
    pack = compiler.build_packing

    def packed(k, r):
        packings.append(pack(k, r))
        return packings[-1]

    def traced(*args):
        made = build(*args)
        trials[-1].append((args, made))
        return made

    def planned(pipe, resets):
        seq = packings[-1]
        i = sum(len(inside) for owner, inside, *_ in boundaries
                if owner is pipe)
        factors, inside = resets
        cylinders_at = [(int(seq.reset_masks[j]), int(seq.reset_values[j]))
                        for j in range(i, i + len(inside))]
        for (mask, values), f, members in zip(cylinders_at, factors, inside):
            assert members.tolist() == np.flatnonzero(
                (np.arange(1 << pipe.k) & mask) == values).tolist()
            assert f.tobytes() == _sharp_cylinder_factors(
                pipe.k, mask, values, 1.0).tobytes()
        start = pipe.scheme.dists[0]
        drifted = [c for c, members in zip(cylinders_at, inside)
                   if _worst_row_tv(pipe.rows()[members], start)
                   > pipe.start_tv + 2.0 * pipe.tol_step]
        boundaries.append((pipe, inside, drifted))
        trials.append([])
        reset(pipe, resets)

    monkeypatch.setattr(compiler, "build_packing", packed)
    monkeypatch.setattr(compiler, "make_reset_step", traced)
    monkeypatch.setattr(_Pipeline, "reset", planned)
    for run, n in (
            (lambda: compile_universal(dirichlet_table(8, 1, 0), r=3), 1),
            (lambda: compile_common_support(common_support_table(8, 2, 3, 0)),
             2)):
        trials.clear()
        boundaries.clear()
        _, rep = run()
        assert rep.resets_used > 0
        assert sum(map(len, trials)) >= sum(bool(b[2]) for b in boundaries)
        scheme = boundaries[0][0].scheme
        grade = 2.0 * max(scheme.sharp_width, 1)
        rungs = {tau * 2.0 ** i for tau in (16.0, 32.0, 64.0)
                 for i in range(compiler.STEP_RETRIES)}
        for (pipe, _, drifted), boundary in zip(boundaries, trials):
            # one trial per boundary with a drifted cylinder: its ladder
            assert bool(boundary) == bool(drifted)
            sharps = [args[-1] for args, _ in boundary]
            assert sharps == sorted(set(sharps))
            for (logp, factors, out, sharp), (step, log_norm) in boundary:
                assert sharp in rungs
                assert factors.shape == (len(drifted), 8, 2)
                out_lf = _sharp_cylinder_factors(
                    n, scheme.mask, scheme.values[0], sharp / grade)
                assert out.log_factors.tobytes() == out_lf.tobytes()
                lam = float(1.0 / (1.0 + np.exp(min(sharp / 2.0, 700.0))))
                assert (step.k, step.lam) == (8, lam)
                assert step.log_sy.tobytes() == _log_values_of(
                    out_lf).tobytes()
                assert log_norm.shape == (len(drifted),)
                for c, (mask, values) in enumerate(drifted):
                    want = SharingStep(8, lam, np.concatenate((
                        _sharp_cylinder_factors(8, mask, values, sharp),
                        out_lf)), log_sy=_log_values_of(out_lf))
                    for a, b in ((step.log_factors[c], want.log_factors),
                                 (step.log_sx[c], want.log_sx)):
                        assert a.shape == b.shape
                        assert a.tobytes() == b.tobytes()
                    assert log_norm[c] == logsumexp(
                        logp + want.log_sx[:, None] + want.log_sy)


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


def _kept_arrays(table):
    """Every array a kept table holds: a packing sequence's, or a compile
    shape's scheme (its components, output tilts and start states) and
    walk."""
    if isinstance(table, packing.PackingSequence):
        return [getattr(table, field.name)
                for field in dataclasses.fields(table)
                if isinstance(getattr(table, field.name), np.ndarray)]
    scheme, walk = table
    arrays = [scheme.unit, scheme.members, scheme.dists]
    for tilts in scheme._tilts.values():
        arrays += tilts
    for start in scheme._starts.values():
        arrays += start[:3]
    for level in walk:
        arrays += [*level.tilts, *(level.resets or ())]
    return arrays


def _grow_kept_shapes():
    """Give every kept shape all it can hold: a start state at every tau
    level and a batch of output tilts at every sharpness a fill or a reset
    asks for."""
    taus = [compiler.TAU_START * 2.0 ** j for j in range(
        int(np.log2(compiler.TAU_MAX / compiler.TAU_START)) + 1)]
    for (k, *_), ((scheme, _), _) in compiler._SHAPES._tables.items():
        grade = 2.0 * max(scheme.sharp_width, 1)
        for sharp in _rungs():
            scheme.tilt(0, sharp)
            scheme.tilt(0, sharp / grade)
        for tau in taus:
            scheme.start(k, tau)


#: 36 compile shapes, more than KEEP_ENTRIES = 32: universal (k, n),
#: partitions of l = 1 and 2 outputs at n = 3, the common supports of two
#: of four outputs and support compiles at each start output y0
SWEEP = ([lambda k=k, n=n: compile_universal(dirichlet_table(k, n, 0))
          for k in range(1, 6) for n in (1, 2)]
         + [lambda k=k, l=l: compile_partition(
             block_constant_target(k, 3, l, 0), l)
            for k in range(1, 5) for l in (1, 2)]
         + [lambda k=k, t=t: compile_common_support(ConditionalTable(
             k, 2, np.where(np.isin(np.arange(4), t), 0.5, 0.0)[None, :]
             .repeat(1 << k, axis=0)))
            for k in (2, 3) for t in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                      (2, 3))]
         + [lambda y=y: compile_support_points(ConditionalTable(
             3, 2, np.eye(4)[[y] * 8]), 0) for y in range(4)])


@pytest.mark.parametrize("cells", [None, 1 << 14])
def test_compile_keeps_two_bounded_read_only_memos(cells, monkeypatch):
    # the compile keeps exactly two memos, bitspace.Kept both: the packing
    # sequences and the compile shapes, and no other cache.  Every array
    # they hold is read-only.  A sweep of more shapes than KEEP_ENTRIES,
    # each kept shape then grown to all it can hold, leaves each memo
    # within KEEP_ENTRIES tables and KEEP_CELLS cells, and tracemalloc
    # finds no more kept than the memos' prices, within the stated worst
    # case of KEEP_CELLS cells each; at the default limit and at one the
    # sweep's shapes overrun, 2^14 cells
    import gc
    import sys
    import tracemalloc

    from crbmkit import bitspace

    memos = sorted(f"{module}.{name}" for module, mod in sys.modules.items()
                   if module.startswith("crbmkit")
                   for name, value in vars(mod).items()
                   if isinstance(value, bitspace.Kept))
    assert memos == ["crbmkit.compiler._SHAPES", "crbmkit.packing._SEQUENCES"]
    for mod in (compiler, packing):
        assert not [fn for fn in vars(mod).values()
                    if callable(getattr(fn, "cache_clear", None))]
    if cells is not None:
        monkeypatch.setattr(bitspace, "KEEP_CELLS", cells)
    for run in SWEEP:  # the modules' other tables, built once
        run()
    compiler._SHAPES.clear()
    packing._SEQUENCES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for run in SWEEP:
            run()
        _grow_kept_shapes()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(SWEEP) > bitspace.KEEP_ENTRIES
    for memo in (compiler._SHAPES, packing._SEQUENCES):
        assert 0 < len(memo._tables) <= bitspace.KEEP_ENTRIES
        assert memo.cells <= bitspace.KEEP_CELLS
        for table, _ in memo._tables.values():
            for a in _kept_arrays(table):
                assert not a.flags.writeable
    # the count binds at the default limit, the cells at the lower one
    assert (len(compiler._SHAPES._tables) == bitspace.KEEP_ENTRIES) == (cells is None)
    assert kept <= 8 * (compiler._SHAPES.cells + packing._SEQUENCES.cells)
    assert kept <= 2 * 8 * bitspace.KEEP_CELLS


@pytest.mark.parametrize("run", [
    lambda: compile_universal(dirichlet_table(8, 1, 0), r=3),
    lambda: compile_partition(block_constant_target(7, 3, 1, 0), 1),
    lambda: compile_support_points(sparse_dirichlet_table(6, 2, 2, 0), 2)],
    ids=["universal-8-1-r3", "partition-7-3-l1", "support-6-2-d2"])
def test_a_kept_shape_holds_no_more_than_its_price(run):
    # a shape's price bounds all it can hold: compiled and then grown to a
    # start state at every tau level and a tilt batch at every sharpness,
    # what tracemalloc finds kept is within the prices of the shape and of
    # its packing, and at least half of them: the start states, priced at
    # every tau level, are most of it
    import gc
    import tracemalloc

    run()  # the modules' other tables, built once
    compiler._SHAPES.clear()
    packing._SEQUENCES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        _grow_kept_shapes()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    price = 8 * (compiler._SHAPES.cells + packing._SEQUENCES.cells)
    assert len(compiler._SHAPES._tables) == 1
    assert price / 2 <= kept <= price


def test_a_shape_over_the_budget_is_compiled_and_not_kept(monkeypatch):
    # a shape priced above KEEP_CELLS is built for its compile by the same
    # code and not kept: its bits are those of a kept one
    from crbmkit import bitspace

    target = dirichlet_table(6, 2, 0)
    kept = compile_universal(target)
    assert len(compiler._SHAPES._tables) == 1
    price = compiler._SHAPES.cells
    compiler._SHAPES.clear()
    monkeypatch.setattr(bitspace, "KEEP_CELLS", price - 1)
    for _ in range(2):
        params, rep = compile_universal(target)
        assert len(compiler._SHAPES._tables) == 0
        assert params_digest(params) == params_digest(kept[0])
        assert rep == kept[1]


def test_each_star_is_planned_once_per_compile(monkeypatch):
    # every tau level walks the plan its compile made once: each level is
    # planned once though the compile tries two tau levels or more, and
    # each star's geometry is built once.  A packing's geometry is the
    # shape's: a later compile of the shape builds none; a point walk's
    # order is its target's, so each compile builds its own
    calls = Counter()
    plans = []
    build, plan = compiler.star_tilts, compiler._plan_stars

    def counted(k, centers, free_mask):
        calls.update((k, c, free_mask) for c in np.asarray(centers).tolist())
        return build(k, centers, free_mask)

    def planned(level, *args):
        plans.append(len(level.tilts.members))
        return plan(level, *args)

    monkeypatch.setattr(compiler, "star_tilts", counted)
    monkeypatch.setattr(compiler, "_plan_stars", planned)
    # the (4,2) r = 2 packing has 6 stars in 2 levels, the k = 4 point walk
    # 16 in one
    for run, stars, levels, again in (
            (lambda s: compile_universal(dirichlet_table(4, 2, s), r=2), 6,
             2, 0),
            (lambda s: compile_support_points(
                sparse_dirichlet_table(4, 3, 2, s), 2), 1 << 4, 1, 1 << 4)):
        for seed, built in ((0, stars), (1, again)):
            calls.clear()
            plans.clear()
            _, rep = run(seed)
            assert rep.tau_final >= 32.0
            assert len(calls) == built and set(calls.values()) <= {1}
            assert len(plans) == levels and sum(plans) == stars
    # a level is planned when a tau level first reaches it: with one rung
    # per trial and tau = 16 alone, (8,1) r = 3 exhausts the ladder of its
    # first level's fill trial, so only that level's 32 stars of 80 are
    # planned, while the shape's geometry holds all 80, each built once
    monkeypatch.setattr(compiler, "STEP_RETRIES", 1)
    monkeypatch.setattr(compiler, "TAU_MAX", 16.0)
    calls.clear()
    plans.clear()
    with pytest.raises(BudgetExceeded, match=r"at star 0 \(batch of 32\)"):
        compile_universal(dirichlet_table(8, 1, 0), r=3)
    assert plans == [32]
    assert len(calls) == 80 and set(calls.values()) == {1}


def _reference_plan(k, scheme, rows, betas, log_q, center, free_mask):
    """One star's geometry and fill plan, star by star from the bit
    enumerations: (members, free bits, cylinder factors, cylinder inputs,
    units, target rows), a unit ``(t, log_q)`` for each component t the
    star steps toward, in order."""
    from crbmkit.bitspace import (cylinder_members, set_bits, star_cylinder,
                                  star_members)

    members = star_members(center, free_mask)
    cylinder = star_cylinder(center, free_mask, k)
    units = [(t, log_q[members, t - 1]) for t in range(1, scheme.count)
             if betas[members, t - 1].any()]
    return (members, set_bits(free_mask),
            _sharp_cylinder_factors(k, *cylinder, 1.0),
            cylinder_members(*cylinder, k), units, rows[members])


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
    # every level of stars sharing a free mask is planned at once, one fill
    # trial for the level: a unit for each star and component it steps
    # toward, star by star in walk order, each star's in component order,
    # named by the first stepping star; each unit's geometry, cylinder
    # inputs and log(q_t / q_0), and each stepping star's members and
    # target rows, must be the ones a star-by-star plan gives, bit for bit:
    # on every packing with k <= 10 and every point walk with k <= 8,
    # toward mixed, sparse and all-zero weight profiles.  A level's resets
    # are the packing's at its first star, and it has no other: each
    # cylinder with its unit factors and the inputs it holds, ascending.
    # A packing's levels are what a compile shape keeps, so every array of
    # theirs is read-only, and they name their stars by their places
    from crbmkit.packing import feasible_depths, star_count

    rng = np.random.default_rng(0)
    walks = []
    for k in range(1, 11):
        for r in feasible_depths(k):
            seq = build_packing(k, r)
            walk = _packing_walk(seq)
            ends = np.cumsum([0] + [len(level.tilts.members)
                                    for level in walk]).tolist()
            walks.append((k, star_count(k, r), walk, seq.resets_at(), [
                (seq.centers[lo:hi], int(seq.free_masks[lo]),
                 [("star", i) for i in range(lo, hi)])
                for lo, hi in zip(ends, ends[1:])]))
    for k in range(9):
        rows = rng.permutation(1 << k)
        walks.append((k, 1 << k,
                      [_Level(None, star_tilts(k, rows, 0), "row", rows)], {},
                      [(rows, 0, [("row", x) for x in rows.tolist()])]))
    for k, stars, walk, at, geometry in walks:
        assert sum(len(level.tilts.members) for level in walk) == stars
        for level, (centers, free_mask, names) in zip(walk, geometry):
            assert level.tilts.members[:, 0].tolist() == centers.tolist()
            assert [level.name(i) for i in range(len(centers))] == names
            assert all(type(level.name(i)[1]) is int
                       for i in range(len(centers)))
            for a in (*level.tilts, *(level.resets or ())):
                assert not a.flags.writeable
            assert not any(at.get(name[1]) for name in names[1:])
            cylinders_at = at.get(names[0][1], [])
            assert (level.resets is None) == (not cylinders_at)
            if level.resets is None:
                continue
            factors, inputs = level.resets
            assert len(factors) == len(inputs) == len(cylinders_at)
            assert inputs.dtype == np.intp
            for lf, inside, (mask, values) in zip(factors, inputs,
                                                  cylinders_at):
                assert inside.tolist() == [
                    x for x in range(1 << k) if x & mask == values]
                assert lf.tobytes() == _sharp_cylinder_factors(
                    k, mask, values, 1.0).tobytes()
        n = int(rng.integers(1, 4))
        scheme = _ComponentScheme(n, (1 << n) - 1, rng.permutation(1 << n)[
            :int(rng.integers(2, (1 << n) + 1))])
        rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
        for betas in _beta_profiles(k, scheme.count, rng):
            log_q = log_mass_ratios(log_odds(betas))
            for level, (centers, free_mask, _) in zip(walk, geometry):
                plan = _plan_stars(level, rows, betas, log_q)
                assert plan.level is level
                want = [_reference_plan(k, scheme, rows, betas, log_q,
                                        center, free_mask)
                        for center in centers.tolist()]
                for i, center in enumerate(centers.tolist()):
                    assert plan.members[i].tolist() == want[i][0]
                    assert plan.members[i][0] == center
                    assert plan.target[i].tobytes() == want[i][5].tobytes()
                stepping = [i for i, star in enumerate(want) if star[4]]
                fill = plan.fill
                assert (fill is None) == (not stepping)
                if fill is None:
                    continue
                assert fill.name == level.name(stepping[0])
                units = [(i, t, q) for i in stepping for t, q in want[i][4]]
                tilt = fill.tilt
                for a in tilt:
                    assert not a.flags.writeable
                assert len(fill.t) == len(tilt.members) == len(units)
                assert fill.t.tolist() == [t for _, t, _ in units]
                assert fill.owner.tolist() == [stepping.index(i)
                                               for i, _, _ in units]
                for u, (i, _, q) in enumerate(units):
                    members, free_bits, factors, inside = want[i][:4]
                    assert tilt.members[u].tolist() == members
                    assert tilt.free_bits.tolist() == free_bits
                    assert (tilt.cylinder_factors[u].tobytes()
                            == factors.tobytes())
                    assert tilt.inputs[u].tolist() == inside
                    assert fill.log_q[u].shape == q.shape
                    assert fill.log_q[u].tobytes() == q.tobytes()
                assert fill.members.tolist() == [want[i][0] for i in stepping]
                assert fill.target.tobytes() == np.concatenate(
                    [want[i][5] for i in stepping]).tobytes()
                assert fill.inside.tolist() == [
                    x for i in stepping for x in want[i][3]]


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
