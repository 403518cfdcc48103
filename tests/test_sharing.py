import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from crbmkit.compiler import _ComponentScheme, _Pipeline, _plan_stars
from crbmkit.crbm import (
    CrbmParams,
    append_hidden_unit,
    eval_conditional,
    eval_joint_rbm,
    random_params,
)
from crbmkit.distributions import Dist
from crbmkit.errors import DegenerateStep, ShapeMismatch
from crbmkit.sharing import (
    OutputTilt,
    SharingStep,
    StarTilt,
    _log_values_of,
    apply_sharing_log,
    build_tilted_step,
    cylinders,
    hidden_unit_from_log,
    log_odds,
    logsumexp,
    make_reset_step,
    mixture_weight_profile,
    star_tilts,
)


def tilt_values(step: SharingStep, n: int) -> np.ndarray:
    """Independent oracle: s(x, y) as (2^k, 2^n), each value the product of
    the per-coordinate factors of the state (x, y), inputs first."""
    k = step.k
    s = np.empty((1 << k, 1 << n))
    for x in range(1 << k):
        for y in range(1 << n):
            v = x | (y << k)
            s[x, y] = np.prod([np.exp(step.log_factors[i, (v >> i) & 1])
                               for i in range(k + n)])
    return s


def linear_apply(p: np.ndarray, step: SharingStep) -> np.ndarray:
    """Independent oracle: the defining formula in plain linear arithmetic
    on a (2^k, 2^n) state ``p`` of mass 1, conditioned on the inputs again:
    every row scaled to mass 2^-k."""
    tilt = p * tilt_values(step, p.shape[1].bit_length() - 1)
    tilt /= tilt.sum()
    stepped = step.lam * p + (1 - step.lam) * tilt
    return stepped / stepped.sum(axis=1, keepdims=True) / len(p)


def random_state(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """log p(y | x) - k log 2 for random rows: a (2^k, 2^n) state of mass 1."""
    rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
    return np.log(rows) - k * np.log(2.0)


def conditional_rows(logp: np.ndarray) -> np.ndarray:
    """The conditional rows p(. | x) of a (2^k, 2^n) log state."""
    rows = np.exp(logp)
    return rows / rows.sum(axis=1, keepdims=True)


def output_tilt(log_factors) -> OutputTilt:
    """The output tilt of (n, 2) log factors: a read-only copy of them and
    their table, from the one table builder."""
    lf = np.array(log_factors, dtype=float)
    lf.setflags(write=False)
    return OutputTilt(lf, _log_values_of(lf))


def point_mass_tilt(y: int, n: int, tau: float):
    """Output tilt concentrated on y with sharpness tau."""
    lf = np.zeros((n, 2))
    for j in range(n):
        lf[j, 1 - ((y >> j) & 1)] = -tau
    return output_tilt(lf)


def fill_pipeline(k: int, n: int, tau: float, tol_step: float = 1e-3
                  ) -> _Pipeline:
    """The compiler's step pipeline on point components, every row starting
    proportional to exp(-tau / (2n) |y|), i.e. near delta_0."""
    return _Pipeline(k, n, _ComponentScheme.points(n, range(1 << n)), tau,
                     tol_step)


def one_star(k: int, center: int, free_mask: int) -> StarTilt:
    """The ``StarTilt`` of the one star ``(center, free_mask)`` on k
    inputs."""
    tilts = star_tilts(k, [center], free_mask)
    return StarTilt(tilts.members[0], tilts.free_bits,
                    tilts.cylinder_factors[0], tilts.inputs[0])


def plan_star(pipe: _Pipeline, center: int, free_mask: int,
              betas: np.ndarray):
    """The star ``(center, free_mask)``'s fill with its members' mixture
    weights ``betas`` (one row per member, in order), planned by the
    planner a compile plans its fills with."""
    k = pipe.k
    profile = np.zeros((1 << k, betas.shape[1]))
    profile[one_star(k, center, free_mask).members] = betas
    return _plan_stars(k, pipe.scheme, np.zeros((1 << k, 1 << pipe.n)),
                       profile, log_odds(profile), [center], free_mask,
                       [("star", 0)])[0]


def fill_star(pipe: _Pipeline, center: int, free_mask: int,
              betas: np.ndarray) -> None:
    """Fill the star ``(center, free_mask)`` with its members' mixture
    weights ``betas``."""
    pipe.fill_star(plan_star(pipe, center, free_mask, betas))


def start_state(k: int, n: int, tau: float) -> np.ndarray:
    """State with uniform inputs and rows proportional to exp(-tau |y|)."""
    logits = np.array([-tau * bin(y).count("1") for y in range(1 << n)])
    rows = np.tile(logits - scipy.special.logsumexp(logits), (1 << k, 1))
    return rows - k * np.log(2.0)


def test_apply_sharing_identity_cases():
    # lambda = 1 (the identity) and lambda = 0 (the tilted state) are no
    # hidden unit's step, so no step holds them; a flat tilt leaves the
    # state in place at any realizable lambda
    rng = np.random.default_rng(0)
    logp = random_state(1, 1, rng)
    for lam in (1.0, 0.0):
        with pytest.raises(DegenerateStep, match=rf"lambda {lam!r} is "
                                                 r"outside \(0, 1\)"):
            SharingStep(1, lam, rng.standard_normal((2, 2)))
    uniform_tilt = SharingStep(1, 0.3, np.zeros((2, 2)))
    assert np.abs(apply_sharing_log(logp, uniform_tilt)[0] - logp).max() < 1e-12


def test_apply_sharing_matches_linear_oracle():
    # uniform start on 1 input and 1 output, lambda 1/2, odds (1, 3) per
    # coordinate
    p = np.full((2, 2), 0.25)
    lf = np.zeros((2, 2))
    lf[:, 1] = np.log(3.0)
    step = SharingStep(1, 0.5, lf)
    logq, rows, _ = apply_sharing_log(np.log(p), step)
    want = linear_apply(p, step)
    assert np.abs(np.exp(logq) - want).max() < 1e-14
    assert np.abs(rows - 2 * want).max() < 1e-14
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(0, 3))
        logq = random_state(k, 3 - k, rng)
        st = SharingStep(k, float(rng.uniform(0, 1)), rng.standard_normal((3, 2)))
        got, rows, _ = apply_sharing_log(logq, st)
        want = linear_apply(np.exp(logq), st)
        assert np.abs(np.exp(got) - want).max() < 1e-12
        assert np.abs(rows - want * (1 << k)).max() < 1e-12


def test_apply_sharing_preserves_positivity_and_normalization():
    rng = np.random.default_rng(5)
    logp = random_state(1, 2, rng)
    for _ in range(20):
        st = SharingStep(1, float(rng.uniform(0, 1)), rng.standard_normal((3, 2)))
        logp = apply_sharing_log(logp, st)[0]
        assert logp.shape == (2, 4)
        assert np.all(np.isfinite(logp))
        assert abs(np.exp(logp).sum() - 1.0) < 1e-12


def test_step_to_hidden_unit_round_trip():
    # the stepped state's rows are the conditional of the CRBM grown by the
    # step's hidden unit, starting from the state of a random CRBM
    rng = np.random.default_rng(2)
    for k in (0, 1, 2):
        for _ in range(30):
            n = int(rng.integers(1, 3))
            params = random_params(k, n, int(rng.integers(0, 3)), rng)
            state = np.log(eval_conditional(params).rows) - k * np.log(2.0)
            lam = float(rng.uniform(0.05, 1.0 - 1e-12))
            step = SharingStep(k, lam, rng.standard_normal((k + n, 2)))
            _, rows, log_norm = apply_sharing_log(state, step)
            w, bias = hidden_unit_from_log(step, log_norm)
            grown = append_hidden_unit(params, w[None, k:], w[None, :k],
                                       [bias])
            diff = rows - eval_conditional(grown).rows
            assert np.abs(diff).sum(axis=1).max() <= 1e-12


def test_step_to_hidden_unit_on_actual_rbm():
    # appending the realized unit to a bias-only RBM (k = 0) reproduces the
    # stepped joint distribution
    rng = np.random.default_rng(3)
    params = CrbmParams.bias_only(0, 3, rng.standard_normal(3))
    state = np.log(eval_joint_rbm(params).probs)[None, :]
    step = SharingStep(0, 0.4, rng.standard_normal((3, 2)))
    stepped, _, log_norm = apply_sharing_log(state, step)
    w, bias = hidden_unit_from_log(step, log_norm)
    grown = append_hidden_unit(params, w[None], np.zeros((1, 0)), [bias])
    assert np.abs(eval_joint_rbm(grown).probs - np.exp(stepped[0])).sum() < 1e-12


def test_step_to_hidden_unit_uniform_tilt_is_zero_unit():
    # a flat tilt at lambda 1/2 multiplies by the constant 2: w = 0, bias = 0
    rng = np.random.default_rng(14)
    logp = random_state(1, 2, rng)
    step = SharingStep(1, 0.5, np.zeros((3, 2)))
    weights, bias = hidden_unit_from_log(step, apply_sharing_log(logp, step)[2])
    assert np.abs(weights).max() == 0.0
    assert bias == pytest.approx(0.0, abs=1e-12)


def test_step_to_hidden_unit_degenerate_lambdas():
    # lambda = 0 needs an infinite bias and lambda = 1 a bias of -inf: no
    # such step is built, nor one off [0, 1] or not a number
    rng = np.random.default_rng(4)
    for lam in (0.0, 1.0, -0.5, 1.5, np.nan):
        with pytest.raises(DegenerateStep, match=rf"lambda {lam!r} is "
                                                 r"outside \(0, 1\)"):
            SharingStep(1, lam, rng.standard_normal((2, 2)))
    with pytest.raises(DegenerateStep):
        hidden_unit_from_log(SharingStep(1, 0.5, np.zeros((2, 2))), -np.inf)


def test_mixture_weight_profile_formula():
    # n = 1, single row: one step with beta = q(1|x)
    q = np.array([[0.3, 0.7]])
    assert mixture_weight_profile(q)[0, 0] == pytest.approx(0.7)
    # general telescoping: final masses reproduce the target
    rng = np.random.default_rng(6)
    masses = rng.dirichlet(np.ones(8), size=3)
    betas = mixture_weight_profile(masses)
    for row in range(3):
        dist = np.zeros(8)
        dist[0] = 1.0
        for t in range(1, 8):
            comp = np.zeros(8)
            comp[t] = 1.0
            b = betas[row, t - 1]
            dist = (1 - b) * dist + b * comp
        assert np.abs(dist - masses[row]).max() < 1e-12


def test_star_fill_reaches_targets():
    # full 2-dimensional star on k=2 inputs, n=1 outputs, tau=30
    pipe = fill_pipeline(2, 1, tau=30.0)
    rng = np.random.default_rng(7)
    targets = np.array([rng.dirichlet(np.ones(2)) for _ in (0, 1, 2)])
    fill_star(pipe, 0, 0b11, mixture_weight_profile(targets))
    assert pipe.used["fill"] == 1
    for x in (0, 1, 2):
        assert np.abs(pipe.rows()[x] - targets[x]).sum() <= 1e-3


def test_star_fill_n2_and_noop_targets():
    # the star at 0 with its one input free
    # targets equal to the start state: all steps are no-ops
    pipe = fill_pipeline(1, 2, tau=32.0)
    deltas = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)  # the point mass at y = 0
    fill_star(pipe, 0, 0b1, mixture_weight_profile(deltas))
    for x in (0, 1):
        assert abs(pipe.rows()[x, 0] - 1.0) < 1e-3
    # random strictly positive targets
    rng = np.random.default_rng(8)
    targets = np.array([rng.dirichlet(np.ones(4)) for _ in (0, 1)])
    pipe = fill_pipeline(1, 2, tau=32.0)
    fill_star(pipe, 0, 0b1, mixture_weight_profile(targets))
    assert pipe.used["fill"] == 3
    for x in (0, 1):
        assert np.abs(pipe.rows()[x] - targets[x]).sum() <= 1e-3


def test_star_fill_error_shrinks_with_sharpness():
    rng = np.random.default_rng(9)
    targets = np.array([rng.dirichlet(np.ones(2)) for _ in (0, 1, 2)])
    errors = []
    for tau in (10.0, 20.0, 40.0, 80.0):
        # tol_step 2 (the largest row TV) accepts the first try at sharpness tau
        pipe = fill_pipeline(2, 1, tau, tol_step=2.0)
        fill_star(pipe, 0, 0b11, mixture_weight_profile(targets))
        errors.append(np.abs(pipe.rows()[[0, 1, 2]] - targets).sum(axis=1).max())
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_make_reset_step_examples():
    rng = np.random.default_rng(10)
    # full input cube: all rows driven to the target point mass; the step
    # comes with its tilted state and normalizer, which the application takes
    logp = random_state(2, 1, rng)
    full = cylinders(2, 0, [0])[0][0]
    step, tilted, log_norm = make_reset_step(
        logp, full, point_mass_tilt(0, 1, 30.0), 30.0)
    assert step.k == 2
    rows = apply_sharing_log(logp, step, tilted, log_norm)[1]
    assert np.abs(rows[:, 0] - 1.0).max() <= 1e-3

    # tau -> 0 keeps everything in place
    made = make_reset_step(logp, full, point_mass_tilt(0, 1, 1e-9), 1e-9)
    after = apply_sharing_log(logp, *made)[0]
    assert np.abs(np.exp(after) - np.exp(logp)).max() < 1e-6

    # half-cube reset moves only the constrained rows
    logp = random_state(2, 1, rng)
    before = conditional_rows(logp)
    # the cylinder fixing input bit 0 to 0
    made = make_reset_step(logp, cylinders(2, 0b01, [0])[0][0],
                           point_mass_tilt(0, 1, 30.0), 30.0)
    after = apply_sharing_log(logp, *made)[1]
    for x in range(4):
        if x & 0b01 == 0:
            assert np.abs(after[x] - [1.0, 0.0]).sum() <= 1e-3
        else:
            assert np.abs(after[x] - before[x]).sum() <= 1e-3

    # factors planned for another input width are refused
    with pytest.raises(ShapeMismatch, match=r"\(2, 2\) for a state of 2\^2 "
                                            r"rows, got \(3, 2\)"):
        make_reset_step(logp, cylinders(3, 0, [0])[0][0],
                        point_mass_tilt(0, 1, 30.0), 30.0)


def test_tilt_profile_proportionality():
    # the product tilt restricted to a star can match any positive profile:
    # with flat output factors, s_X(x) on the star is proportional to the
    # odds beta_x / (1 - beta_x) asked for
    rng = np.random.default_rng(11)
    members = [0b0100, 0b0101, 0b0110, 0b1100]
    profile = rng.uniform(0.1, 5.0, size=len(members))
    betas = np.array([q / (1.0 + q) for q in profile])
    logp = random_state(4, 1, rng)
    step, tilted, log_norm = build_tilted_step(
        logp, one_star(4, 0b0100, 0b1011), betas, log_odds(betas),
        output_tilt(np.zeros((1, 2))), 40.0)
    assert step.log_sx.shape == (16,) and step.log_sy.shape == (2,)
    assert not step.log_sy.any()
    # the returned tilted state and normalizer are the ones the step's
    # application computes when none is passed, and passing them changes
    # nothing
    assert np.array_equal(tilted, logp + step.log_sx[:, None] + step.log_sy)
    assert log_norm == apply_sharing_log(logp, step)[2]
    assert agrees_with_scipy(log_norm, tilted)
    for fresh, passed in zip(apply_sharing_log(logp, step),
                             apply_sharing_log(logp, step, tilted, log_norm)):
        assert np.array_equal(fresh, passed)
    got = np.exp(step.log_sx[members] - step.log_sx[members[0]])
    want = profile / profile[0]
    assert np.abs(got - want).max() < 1e-9
    # off the cylinder (bit 2 = 0) the tilt is down by the sharpness
    assert step.log_sx[0b0000] - step.log_sx[0b0100] == pytest.approx(-40.0)


def test_star_fill_rejects_rows_off_the_star():
    pipe = fill_pipeline(1, 1, 16.0)
    betas = mixture_weight_profile(np.array([Dist.uniform(1).probs] * 2))
    fill = plan_star(pipe, 0, 0b1, betas)
    # one row of weights for the two members of the star (0, 0b1)
    t, betas, log_t, target = fill.steps[0]
    with pytest.raises(ShapeMismatch):
        pipe.fill_star(fill._replace(
            steps=[(t, betas[:1], log_t[:1], target[:1])]))


def test_build_tilted_step_rejects_betas_off_the_star():
    # the star at 0 on the full 2-cube has members {0, 1, 2}
    logp = start_state(2, 1, 8.0)
    out = output_tilt(np.array([[-16.0, 0.0]]))
    for betas in (np.full(2, 0.5), np.full(4, 0.5)):
        with pytest.raises(ShapeMismatch):
            build_tilted_step(logp, one_star(2, 0, 0b11), betas,
                              log_odds(betas), out, 16.0)


def test_star_tilts_refuse_a_center_with_a_free_bit_set():
    # a star's members are its center plus 2^b per free bit b, center
    # first, only when the center is 0 on its free bits
    with pytest.raises(ValueError, match="free mask 0b11 set"):
        star_tilts(3, [0b100, 0b001], 0b11)
    assert star_tilts(3, [0b100, 0b000], 0b11).members.tolist() == [
        [4, 5, 6], [0, 1, 2]]


def test_log_odds_is_the_clamped_log_odds_of_each_weight():
    # one array call gives each weight's log(beta / (1 - beta)), clamped to
    # +-LOG_T_CAP, bit for bit as a per-weight float computation does;
    # weights at or past 0 and 1 saturate
    from crbmkit.sharing import LOG_T_CAP

    def one(beta):
        if beta <= 0.0:
            return -LOG_T_CAP
        if beta >= 1.0:
            return LOG_T_CAP
        return min(max(float(np.log(beta) - np.log1p(-beta)), -LOG_T_CAP),
                   LOG_T_CAP)

    rng = np.random.default_rng(5)
    betas = np.concatenate([rng.uniform(size=5000),
                            rng.uniform(size=500) ** 40,
                            1.0 - rng.uniform(size=500) ** 30,
                            [0.0, 1.0, -0.5, 1.5, 5e-324, 1.0 - 2 ** -53]])
    got = log_odds(betas.reshape(-1, 2))
    assert got.shape == (len(betas) // 2, 2)
    assert got.ravel().tolist() == [one(b) for b in betas.tolist()]


def test_mixture_profile_rejects_negative_mass():
    from crbmkit.errors import InfeasibleProfile
    with pytest.raises(InfeasibleProfile):
        mixture_weight_profile(np.array([[-0.1, 1.1]]))


#: finite entries with repeats, so that maxima tie, and magnitudes near
#: the float limit
LSE_ENTRIES = st.sampled_from([0.0, 1.5, -2.0, 700.0, 1.7e308,
                               -1.7e308]) | st.floats(
    -800.0, 800.0, allow_nan=False, allow_infinity=False)


def agrees_with_scipy(ours, a, axis=None) -> bool:
    """``ours`` is within n + 4 units in the last place of max(|ref|, 1) of
    scipy's log-sum-exp ``ref`` of the n entries reduced, entrywise.

    Each of the n - 1 additions of the shifted sum, whose terms lie in
    (0, 1] and one of which is 1, may round by half a unit in the last
    place of the partial sum, so the sum is off by at most (n - 1) / 2
    units relative, and its log by that many ULPs of 1 absolute; scipy
    sums only the terms below the max, so its error is no larger.  The 4
    cover each side's exp, log and final add."""
    ref = scipy.special.logsumexp(a, axis=axis)
    terms = a.size if axis is None else a.shape[axis]
    return bool(np.all(np.abs(ours - ref) <= (terms + 4) * np.spacing(
        np.maximum(np.abs(ref), 1.0))))


@given(arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=24),
              elements=LSE_ENTRIES))
def test_logsumexp_matches_scipy_within_rounding(a):
    # the max-shift reduction against scipy's, which counts the entries at
    # the max and sums only the others; an entry -1.7e308 below a max of
    # 1.7e308 overflows to -inf once shifted, and its exp is 0 either way
    with np.errstate(over="ignore"):
        full = logsumexp(a)
        assert np.ndim(full) == 0
        assert agrees_with_scipy(full, a)
        if a.ndim == 2:
            rows = logsumexp(a, axis=1)
            assert rows.shape == (a.shape[0],)
            assert agrees_with_scipy(rows, a, axis=1)


@pytest.mark.parametrize("bad", [-np.inf, np.nan])
def test_nonfinite_normalizer_raises_degenerate_step(bad):
    # finite log factors on a state without a finite max leave the tilt
    # normalizer non-finite, which the step refuses
    logp = np.full((2, 4), -np.inf)
    logp[1, 2] = bad
    step = SharingStep(1, 0.5, np.zeros((3, 2)))
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateStep):
        apply_sharing_log(logp, step)


def test_log_values_is_the_per_state_sum_and_read_only():
    # a step on k = 2 inputs and 2 outputs holds log s_X over the 4 inputs
    # and log s_Y over the 4 outputs, each value summed over its
    # coordinates in order
    rng = np.random.default_rng(15)
    step = SharingStep(2, 0.3, rng.standard_normal((4, 2)))
    for table, coords in ((step.log_sx, (0, 1)), (step.log_sy, (2, 3))):
        assert table.shape == (4,)
        assert not table.flags.writeable
        for v in range(4):
            want = 0.0
            for j, i in enumerate(coords):
                want += step.log_factors[i, (v >> j) & 1]
            assert table[v] == want
    with pytest.raises(ShapeMismatch):
        SharingStep(3, 0.3, np.zeros((2, 2)))
