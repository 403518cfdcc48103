"""Compile target conditional tables into explicit CRBM parameters.

The pipeline follows the constructive route: start from a bias-only model
whose rows sit near the scheme's start component, then walk a sequence of
stars, realizing every sharing step (star fills and cylinder resets) as
one appended hidden unit.  Every compile mode hands one entry,
``_compile``, a component scheme and a walk of stars, and a star is filled
through each component 1..M-1 that has target mass on one of its rows
(``_Pipeline.fill_star``).  Universal, common-support and partition targets
walk a star packing; a one-component target (common support |T| = 1, the
single-block partition) walks no star, and its start model, priced at no
hidden unit, is the whole compile.  A packing of
depth r spends E(r) resets, what ``packing.build_packing`` emits and
``packing.universal_budget`` prices; from r = 3 on that is more than the
paper's R(r), because each fill moves its star's whole input cylinder (see
``packing``).  Sparse targets walk the point stars (x, free_mask=0) on
point components and reset nothing: each support point of row x outside
the start component is one fill.  Everything runs on an
exact log-domain state in parallel with the parameter build; the final
certificate is evaluated from the parameters themselves, never from the
simulated state.

The state is the conditional: a (2^k, 2^n) array of log p(y | x) - k log 2
indexed [x, y], the joint with the model's conditional and a uniform input
marginal.  A trial's step returns the conditional its unit makes
(``sharing.apply_sharing_log``), conditioned on its inputs again.  Without
that, a reset (lambda near e^(-tau/2)) would drain its cylinder's input
mass, and a later fill there would start from rows whose tilt normalizer
is all dust from outside its cylinder.  Every numeric of a step lives in
``sharing``; the compiler keeps the schedule: the plan, the rung ladder,
the checks and the tau loop.

One loop runs every step, fill or reset (``_Pipeline._step``): build the
step at a sharpness rung tau * 2^i, i < STEP_RETRIES, try it on the state,
and accept it when the worst row TV on its target rows is within the
step's bound and the rows outside its region move by at most the step's
tolerance share; otherwise double the sharpness, up to the top rung.  A
step's ladder starts at the rung its kind's last accepted step passed in
this tau level, tau for the first: the tolerance share is fixed within a
level, and the rows outside a step's region move by about e^(-sharp d) at
input distance d, so the rung a kind needs hardly varies from step to
step, and the lower rungs a ratcheted step skips would mostly be rejected.
Every accepted step still passes the same two checks.  If passing is
monotone in sharpness, only a step that would have passed below its start
rung changes: it is taken sharper.  Nothing checks that monotonicity: a
step that passes only below its start rung now exhausts its ladder and
rejects the level, so tau doubles.  A sweep of 200 compiles (seeds 0-7;
universal, support, common and partition modes) met no such step: units
and tau_final were those of a ladder restarting at tau on every step.
Each scheduled step gets an equal share eps / (2 * steps) of the target
tolerance.  The outer sharpness knob tau doubles from 16 until the final
evaluation meets eps (or 1024 is hit, which raises BudgetExceeded).  A
level is rejected early, at the first finished star whose rows miss their
target by more than eps + (steps still to come) * tol_step + REJECT_MARGIN:
the packing keeps every later step's region off a finished star, so each
later step moves its rows by at most tol_step, and the certificate can
recover no more than that.  The start distribution uses output biases of
magnitude tau / (2 * component width) so that the sharp steps' off-region
dust stays exponentially below the start-state dust.

Each trial builds one input table log s_X (2^k), one tilted state log p +
log s, which its builder hands on to the step's application, and one new
(2^k, 2^n) state with its rows; an accepted trial's state and rows become
the pipeline's as they are, and its tilt normalizer goes into the unit's
bias.  The state has mass 1, so a trial makes one full reduction (the
normalizer), and neither an accepted unit nor a tau level makes another.

Nothing is kept across compiles: each compile plans its walk once, and all
its tau levels share that plan.  A walk is a list of levels, each a group
of stars that share a free mask, with the resets run before them.  A packed
compile's walk is its packing (``packing.build_packing``), whose resets, a
level's lineages, all sit at a level's first star (``_packing_walk``); a
support compile's is the point stars (x, 0), in one level with no reset.
Every cylinder a step concentrates on (a star's inputs, a reset, an output
component) comes from one builder, ``sharing.cylinders``: one broadcast per
level's resets, per level's stars and per scheme.  Each level's stars are
planned in one batch (``_plan_stars``): their geometry
(``sharing.star_tilts``), their members' mixture weights and log-odds, from
one ``log_odds`` call over the target's whole profile, and each step's
target rows.  The component scheme (``_ComponentScheme``) builds its output
tilts (factors and log s_Y, 2^n) for all its components at once, on the
first step that asks for a sharpness.  So a tau level only builds, tries
and accepts steps, fills and resets alike: planned unit input factors
scaled to the trial's sharpness and a tilt from the scheme make the step,
handed over with its tilted state and normalizer.  Each tau level builds
its own start state, the conditioned broadcast of the start logits
(``_Pipeline``), in tens of microseconds at the benchmark's sizes, and
collects the weights and bias of each unit it accepts.  A level that walks
to its end builds its model once, before its certificate: one
``crbm.append_hidden_unit`` of all its units to its bias-only start model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bitspace import check_cells, state_bits
from .crbm import (CrbmParams, append_hidden_unit, eval_cells,
                   eval_conditional)
from .distributions import (ConditionalTable, _check_eps, kl_conditional,
                            tv_row_distance)
from .errors import (
    BudgetExceeded,
    NotBlockConstant,
    SupportsDiffer,
    SupportTooLarge,
)
from .packing import best_depth, build_packing, universal_budget
from .sharing import OutputTilt, SharingStep, StarTilt, apply_sharing_log, \
    build_tilted_step, conditioned, cylinders, hidden_unit_from_log, \
    log_odds, make_reset_step, mixture_weight_profile, output_tilts, \
    star_tilts

TAU_START = 16.0
TAU_MAX = 1024.0
STEP_RETRIES = 12
#: slack for the one gap the early rejection cannot bound by step checks:
#: the simulated state against the certificate, which evaluates the
#: parameters.  On the certified level of a seed-0 universal compile the two
#: agree to a worst-row TV of 4.6e-14 at (7,2) r = 3, 3.8e-14 at (8,1)
#: r = 3, 7.1e-13 at (10,3) and 5.7e-13 at (12,2); 1e-9 is 1400 times the
#: largest, and a test holds the first three and (6,2) r = 3 to 1e-11.
REJECT_MARGIN = 1e-9
#: per-row TV tolerance of the divergence witness's partition compile
WITNESS_EPS = 1e-4


@dataclass(frozen=True)
class CompileReport:
    mode: str
    hidden_units_used: int
    resets_used: int
    star_steps_used: int
    achieved_tv: float
    tau_final: float
    budget_bound: int
    within_budget: bool
    clamp_error: float
    r: int | None
    epsilon: float


def clamp_table(table: ConditionalTable, eps: float) -> tuple[ConditionalTable, float]:
    """Floor entries at eps / 2^(n+2) and renormalize rows.

    Returns the clamped table and the worst-row TV clamping error.
    """
    floor = eps / (1 << (table.n + 2))
    rows = np.maximum(table.rows, floor)
    rows = rows / rows.sum(axis=1, keepdims=True)
    clamped = ConditionalTable(table.k, table.n, rows)
    return clamped, tv_row_distance(table, clamped)


class _ComponentScheme:
    """Output components mixed by the fill steps.

    A component is a sharp cylinder over the output bits; component 0 is the
    start component.  Universal targets use all 2^n point components, common
    supports the states of T, partition targets the 2^l blocks, sparse
    targets all 2^n points with the most shared support point y0 first.
    """

    def __init__(self, n: int, mask: int, values: tuple[int, ...]):
        self.n = n
        self.mask = mask
        self.values = values
        # one row per component, the cylinder (mask, value): its unit (n, 2)
        # output log factors, its member outputs and its uniform distribution
        self.unit, self.members = cylinders(n, mask, values)
        dists = np.zeros((len(values), 1 << n))
        np.put_along_axis(dists, self.members, 1.0 / self.members.shape[1], 1)
        dists.setflags(write=False)
        self.dists = dists
        self._tilts: dict[float, tuple[OutputTilt, ...]] = {}

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sharp_width(self) -> int:
        return self.mask.bit_count()

    def masses(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, self.members].sum(axis=2)

    def project(self, rows: np.ndarray) -> np.ndarray:
        """The divergence projections of ``rows`` onto the rows constant on
        each component, for components that partition the outputs: each
        component's mass spread evenly over it.  On the partition of the
        first l bits a row's divergence from its projection is at most
        n - l bits."""
        masses = self.masses(rows)
        return sum(masses[:, t, None] * dist for t, dist in enumerate(self.dists))

    def tilt(self, t: int, sharp: float) -> OutputTilt:
        """Component t's output tilt at sharpness ``sharp``: -sharp on the
        off value of each of its fixed bits.  The first use of a sharpness,
        by a fill or a reset, builds every component's tilt at it in one
        batch, kept for the scheme's life, so the tau levels, stars and
        trials of its compile share one (``sharing.output_tilts``)."""
        tilts = self._tilts.get(sharp)
        if tilts is None:
            tilts = self._tilts[sharp] = output_tilts(self.unit, sharp)
        return tilts[t]

    @staticmethod
    def points(n: int, values) -> "_ComponentScheme":
        """Point components at the output states ``values``, in that order;
        the first is the start component."""
        return _ComponentScheme(n, (1 << n) - 1, tuple(values))

    @staticmethod
    def partition(n: int, l: int) -> "_ComponentScheme":
        return _ComponentScheme(n, (1 << l) - 1, tuple(range(1 << l)))


class _StarFill(NamedTuple):
    """One star of a compile's walk as the compile plans it once for all
    its tau levels: its name in errors, ``(label, index)``, formatted only
    when the star dooms a level; its ``sharing.StarTilt``, whose cylinder's
    inputs are the rows no drift check of its steps reads; its steps in
    order; and its members' target rows.  A step is ``(t, betas, log_t,
    target)``: the component t it mixes toward, the members' mixture
    weights toward it and their ``log_odds``, and the members' target rows
    after it, the previous step's mixed toward component t."""

    name: tuple[str, int]
    tilt: StarTilt
    steps: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]
    target: np.ndarray


def _plan_stars(k: int, scheme: _ComponentScheme, rows: np.ndarray,
                betas: np.ndarray, log_t: np.ndarray, centers: np.ndarray,
                free_mask: int, names: Sequence[tuple[str, int]]
                ) -> list[_StarFill]:
    """The ``_StarFill`` of each star ``(c, free_mask)`` on k inputs, c in
    ``centers``, in that order, named by ``names``: every star of one free
    mask in one plan.

    ``rows`` is the target table, ``betas`` its ``mixture_weight_profile``,
    whose weight for a component is positive exactly where that component
    has target mass, and ``log_t`` their ``log_odds``, all indexed by input.
    A star steps toward each component 1..M-1 with a positive weight on one
    of its members, in order, and its first step's targets mix the start
    component's distribution.  Each component's targets are mixed at once
    for the stars that step toward it, by the float operations of a
    star-by-star plan: mixing every star toward every component would cost
    2^k rows times 2^n components on a support compile's one level."""
    tilts = star_tilts(k, centers, free_mask)
    members = tilts.members
    # component-major: [t - 1] holds every member's weight (log-odds)
    # toward component t
    betas = betas[members].transpose(2, 0, 1)
    log_t = log_t[members].transpose(2, 0, 1)
    active = betas.any(axis=2)
    steps = [[] for _ in range(len(members))]
    mixed = np.empty(members.shape + scheme.dists.shape[1:])
    mixed[...] = scheme.dists[0]
    for t in (active.any(axis=1).nonzero()[0] + 1).tolist():
        on = active[t - 1].nonzero()[0]
        beta = betas[t - 1][on]
        mixed[on] = target = ((1.0 - beta)[..., None] * mixed[on]
                              + beta[..., None] * scheme.dists[t])
        for s, *step in zip(on.tolist(), beta, log_t[t - 1][on], target):
            steps[s].append((t, *step))
    return [_StarFill(name, StarTilt(m, tilts.free_bits, factors, inputs),
                      star_steps, star_rows)
            for name, m, factors, inputs, star_steps, star_rows
            in zip(names, members, tilts.cylinder_factors, tilts.inputs,
                   steps, rows[members])]


def _packing_walk(k: int, r: int) -> list[tuple]:
    """The depth-r packing of k inputs as its levels ``(resets, centers,
    free_mask, names)`` in fill order, a star named ``("star", i)`` by its
    place.  A level's resets, run before its stars, are its lineages,
    cylinders of one fixed mask, each ``(unit factors, inputs)`` from one
    ``cylinders`` call: the packing resets only at a level's first star."""
    seq = build_packing(k, r)
    edges = [0, *(np.flatnonzero(np.diff(seq.free_masks)) + 1).tolist(),
             len(seq.centers)]
    cuts = np.searchsorted(seq.reset_positions, edges).tolist()
    return [(list(zip(*cylinders(k, int(seq.reset_masks[a]),
                                 seq.reset_values[a:b]))) if b > a else [],
             seq.centers[lo:hi], int(seq.free_masks[lo]),
             [("star", i) for i in range(lo, hi)])
            for lo, hi, a, b in zip(edges, edges[1:], cuts, cuts[1:])]


def _worst_row_tv(rows: np.ndarray, ref: np.ndarray) -> float:
    """Largest row TV (x2) between ``rows`` and ``ref``; 0 for no rows."""
    return float(np.abs(rows - ref).sum(axis=1).max(initial=0.0))


class _Pipeline:
    """Sequential sharing-step executor over an exact log-domain
    conditional, held as a (2^k, 2^n) array indexed [x, y]."""

    def __init__(self, k: int, n: int, scheme: _ComponentScheme, tau: float,
                 tol_step: float):
        self.k, self.n = k, n
        self.scheme = scheme
        self.tau = tau
        self.tol_step = tol_step
        # output biases +-tau_b toward the start component's fixed bits,
        # tau_b = tau / (2 * sharp_width): the odds of its cylinder factors
        # at sharpness tau_b
        lf = scheme.unit[0] * (tau / (2.0 * max(scheme.sharp_width, 1)))
        bias = lf[:, 1] - lf[:, 0]
        self.start = CrbmParams.bias_only(k, n, bias)
        # (weights, bias) of each accepted step's hidden unit, in order
        self.units: list[tuple[np.ndarray, float]] = []
        # the start logits broadcast to every input row, column-major, x
        # fastest, and conditioned on the inputs: each row reduction of the
        # state runs over contiguous columns, and every step keeps the layout
        logits = (state_bits(n) * bias[None, :]).sum(axis=1)
        self.logp, self._rows = conditioned(np.asfortranarray(
            np.broadcast_to(logits, (1 << k, 1 << n))), k)
        self.start_tv = _worst_row_tv(self._rows, scheme.dists[0])
        self.allowance = self.start_tv
        self.used = {"fill": 0, "reset": 0}
        # kind -> index i of the rung tau * 2^i its last accepted step passed
        self._rung: dict[str, int] = {}

    def rows(self) -> np.ndarray:
        """Read-only conditional rows of the current state."""
        return self._rows

    def _apply(self, step: SharingStep, logp: np.ndarray, rows: np.ndarray,
               log_norm: float) -> None:
        """Adopt an accepted trial: collect the step's hidden unit, whose
        bias takes the trial's tilt normalizer ``log_norm`` (the state has
        mass 1), and make the trial's state ``logp`` and its ``rows`` the
        current ones."""
        self.units.append(hidden_unit_from_log(step, log_norm))
        self.logp, self._rows = logp, rows

    def model(self) -> CrbmParams:
        """The start model with the collected hidden units after it, in the
        order they were accepted: one append."""
        k = self.k
        w = np.array([w for w, _ in self.units]).reshape(-1, k + self.n)
        return append_hidden_unit(self.start, w[:, k:], w[:, :k],
                                  [bias for _, bias in self.units])

    def reject_if_doomed(self, rows: list[int] | np.ndarray,
                         target_rows: np.ndarray, eps: float,
                         total_steps: int, what: tuple[str, int]) -> None:
        """Raise BudgetExceeded, naming the star ``what`` (``(label,
        index)``), if the finished ``rows`` already miss ``target_rows`` by
        more than the level's certificate can recover.

        No later step has a finished row in its region, so each of the at
        most ``total_steps`` - (accepted steps) still to come moves it by at
        most tol_step, its own check on the rows outside its region.
        """
        remaining = total_steps - self.used["fill"] - self.used["reset"]
        limit = eps + remaining * self.tol_step + REJECT_MARGIN
        tv = _worst_row_tv(self._rows[rows], target_rows)
        if tv > limit:
            raise BudgetExceeded(
                f"{what[0]} {what[1]}: worst-row TV {tv:.6g} to the target > "
                f"limit {limit:.6g} (tau = {self.tau:g})")

    def _step(self, kind: str,
              build: Callable[[float], tuple[SharingStep, np.ndarray, float]],
              region: np.ndarray, target: np.ndarray, bound: float,
              inside: np.ndarray) -> None:
        """Build, try and accept one sharing step.

        ``build(sharp)`` makes the step at sharpness ``sharp`` with its
        tilted state and tilt normalizer, as both step builders return
        them.  A trial is accepted when its rows at ``region`` are within
        row TV ``bound`` of ``target`` and its rows outside ``inside`` (the
        inputs of the step's cylinder, an index array) moved by at most
        tol_step; otherwise the sharpness doubles.  The rungs are
        tau * 2^i for i < STEP_RETRIES, and the ladder starts at the rung
        the last accepted step of the same kind passed in this level (tau
        for the first): within a level tol_step is fixed and a step's
        outside drift falls like e^(-sharp d) in the input distance d, so a
        step seldom passes below the rung its kind last needed, and the
        ratchet only skips rungs, never adds one.  That a skipped rung would
        also have failed assumes passing is monotone in sharpness, which
        the measured sweep in the module docstring supports but nothing
        checks; a step that passes only below its start rung exhausts its
        ladder here and rejects the level.  A trial's state and rows are
        the conditional its unit makes (``sharing.apply_sharing_log``), and
        an accepted trial's become the pipeline's as they are.
        """
        first = self._rung.get(kind, 0)
        rejected = None
        for i in range(first, STEP_RETRIES):
            sharp = self.tau * 2.0 ** i
            step, tilted, log_norm = build(sharp)
            logp, rows, log_norm = apply_sharing_log(self.logp, step,
                                                     tilted, log_norm)
            tv = _worst_row_tv(rows[region], target)
            if not tv <= bound:
                rejected = f"region TV {tv:.3g} > bound {bound:.3g}"
                continue
            moved = np.abs(rows - self._rows).sum(axis=1)
            moved[inside] = 0.0  # moves are >= 0: the max outside, or 0
            drift = float(moved.max(initial=0.0))
            if not drift <= self.tol_step:
                rejected = (f"outside drift {drift:.3g} > tol_step "
                            f"{self.tol_step:.3g}")
                continue
            self._apply(step, logp, rows, log_norm)
            self._rung[kind] = i
            self.used[kind] += 1
            self.allowance += self.tol_step
            return
        tried = (f"rungs {self.tau * 2.0 ** first:g} to {sharp:g}, at "
                 f"{sharp:g} {rejected}" if rejected else "no rung left")
        raise BudgetExceeded(f"{kind} sharpness schedule exhausted: {tried} "
                             f"(tau = {self.tau:g})")

    def reset_if_needed(self, cylinder_factors: np.ndarray,
                        inside: np.ndarray) -> None:
        """Drive a cylinder of inputs, its (k, 2) unit log factors and its
        members ``inside`` as ``_packing_walk`` plans them, back to the
        start component iff one of its rows has drifted from it by more
        than the phase tolerance."""
        start = self.scheme.dists[0]
        if (_worst_row_tv(self._rows[inside], start)
                <= self.start_tv + 2.0 * self.tol_step):
            return
        # outputs: concentrate on the start component at start-grade sharpness
        grade = 2.0 * max(self.scheme.sharp_width, 1)
        self._step("reset", lambda sharp: make_reset_step(
            self.logp, cylinder_factors, self.scheme.tilt(0, sharp / grade),
            sharp),
            inside, start, self.start_tv + self.tol_step, inside)

    def fill_star(self, fill: _StarFill) -> None:
        """Run the planned steps of ``fill`` (``_plan_stars``), each through
        the step loop, on the rows of its star, its members ascending: all
        that depends on the target alone was planned once for the compile,
        so a level only builds and tries steps.

        The rows sit at the start component when their star is filled:
        ``validate_packing`` refuses a fill from rows that are not clean, and
        a support compile fills each row once."""
        star = fill.tilt
        for t, betas, log_t, target in fill.steps:
            self._step("fill", lambda sharp: build_tilted_step(
                self.logp, star, betas, log_t, self.scheme.tilt(t, sharp),
                sharp), star.members, target, self.allowance + self.tol_step,
                star.inputs)


def _compile(target: ConditionalTable, scheme: _ComponentScheme,
             walk: list[tuple], total_steps: int, eps: float, mode: str,
             budget: int, r: int | None, clamp_error: float = 0.0
             ) -> tuple[CrbmParams, CompileReport, ConditionalTable]:
    """Walk ``walk``, levels ``(resets, centers, free_mask, names)``, at
    tau = TAU_START, 2 TAU_START, ..., TAU_MAX and return the first tau
    level whose evaluated conditional is within eps of ``target``, with
    that conditional, the certificate's.

    At each level of the walk a tau level resets the drifted cylinders,
    fills the stars and rejects itself at the first doomed star.  Each of
    the ``total_steps`` scheduled steps gets tolerance eps / (2 total_steps).
    When no level meets eps, the error names why the last one failed: the
    error it raised, which it chains, or its certificate's TV."""
    # row by row, so each star reads its members' rows of one profile and
    # of its log-odds (elementwise, so the floats of each star's own); every
    # star's fill is planned once, for all levels
    betas = mixture_weight_profile(scheme.masses(target.rows))
    log_t = log_odds(betas)
    levels = [(resets, _plan_stars(target.k, scheme, target.rows, betas,
                                   log_t, *group))
              for resets, *group in walk]
    tol_step = eps / (2.0 * max(total_steps, 1))
    last_error: Exception | None = None
    tau = TAU_START
    while tau <= TAU_MAX:
        pipe = _Pipeline(target.k, target.n, scheme, tau, tol_step)
        try:
            for resets, stars in levels:
                for reset in resets:
                    pipe.reset_if_needed(*reset)
                for star in stars:
                    pipe.fill_star(star)
                    pipe.reject_if_doomed(star.tilt.members, star.target,
                                          eps, total_steps, star.name)
        except BudgetExceeded as exc:
            last_error, reason = exc, str(exc)
        else:
            params = pipe.model()
            conditional = eval_conditional(params)
            achieved = tv_row_distance(conditional, target)
            if achieved <= eps:
                return params, CompileReport(
                    mode=mode, hidden_units_used=params.m,
                    resets_used=pipe.used["reset"],
                    star_steps_used=pipe.used["fill"], achieved_tv=achieved,
                    tau_final=tau, budget_bound=budget,
                    within_budget=params.m <= budget,
                    clamp_error=clamp_error, r=r, epsilon=eps), conditional
            last_error = None
            reason = f"certificate row TV {achieved:.6g} (tau = {tau:g})"
        tau *= 2.0
    raise BudgetExceeded(
        f"tau schedule exhausted without reaching eps = {eps}; last level: "
        f"{reason}") from last_error


def _compile_packed(target: ConditionalTable, scheme: _ComponentScheme,
                    r: int | None, eps: float, mode: str,
                    clamp_error: float = 0.0
                    ) -> tuple[CrbmParams, CompileReport, ConditionalTable]:
    """Walk the packing of the best or given depth r, every star scheduled
    through every component and every reset it lists.  One component
    leaves nothing to fill: the start model is the whole compile, no star
    is walked, the budget is 0 and r is reported as given."""
    k = target.k
    if scheme.count == 1:
        if r is not None:
            universal_budget(k, r, 1)  # refuses a depth k cannot hold
        budget = 0
    else:
        if r is None:
            r = best_depth(k, scheme.count)
        budget = universal_budget(k, r, scheme.count)
    # priced on the final certificate, before the packing is built
    check_cells(eval_cells(k, target.n, budget),
                f"{mode} compile at (k, n) = ({k}, {target.n}) "
                f"with {budget} hidden units")
    # the budget counts every scheduled step: one per star and component
    # past the start, one per reset
    walk = _packing_walk(k, r) if scheme.count > 1 else []
    return _compile(target, scheme, walk, budget, eps, mode, budget, r,
                    clamp_error)


def compile_universal(target: ConditionalTable, r: int | None = None,
                      eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Approximate an arbitrary conditional table within per-row TV eps.

    General targets are clamped to strict positivity first (floor
    eps / 2^(n+2), renormalized); achieved_tv is measured against the
    clamped target and the clamping error reported separately.
    """
    _check_eps(eps)
    clamped, clamp_err = clamp_table(target, eps)
    scheme = _ComponentScheme.points(target.n, range(1 << target.n))
    return _compile_packed(clamped, scheme, r, eps, "universal",
                           clamp_err)[:2]


def compile_common_support(target: ConditionalTable, r: int | None = None,
                           eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Targets whose rows all share one support T; |T| - 1 steps per star."""
    _check_eps(eps)
    on = target.rows > 0
    if not (on == on[0]).all():
        raise SupportsDiffer("rows do not share a common support")
    scheme = _ComponentScheme.points(target.n, np.flatnonzero(on[0]).tolist())
    return _compile_packed(target, scheme, r, eps, "common")[:2]


def compile_partition(target: ConditionalTable, l: int, r: int | None = None,
                      eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Targets block-constant on the cylinder partition of the first l bits."""
    _check_eps(eps)
    if not 0 <= l <= target.n:
        raise ValueError(f"l must be in [0, {target.n}]")
    return _partition(target, _ComponentScheme.partition(target.n, l), r,
                      eps)[:2]


def _partition(target: ConditionalTable, scheme: _ComponentScheme,
               r: int | None, eps: float
               ) -> tuple[CrbmParams, CompileReport, ConditionalTable]:
    """``compile_partition`` on the blocks of the partition ``scheme``, with
    the certificate's conditional."""
    for z, members in enumerate(scheme.members):
        block = target.rows[:, members]
        if np.abs(block - block.mean(axis=1, keepdims=True)).max() > 1e-9:
            raise NotBlockConstant(f"rows are not constant on block {z}")
    return _compile_packed(target, scheme, r, eps, "partition")


def compile_support_points(target: ConditionalTable, d: int | None = None,
                           eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Sparse targets built as a sequence of point-mass sharing steps.

    The joint u_X * target has at most 2^k + d support points; after starting
    all rows at the output state y0 shared by the most rows, each remaining
    support point costs one concentrated step, so at most 2^k + d - 1 hidden
    units.
    """
    _check_eps(eps)
    if d is not None and d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    k = target.k
    total_support = target.support_size()
    if d is None:
        d = max(total_support - (1 << k), 0)
    if total_support > (1 << k) + d:
        raise SupportTooLarge(
            f"support {total_support} exceeds 2^k + d = {(1 << k) + d}")
    budget = (1 << k) + d - 1
    check_cells(eval_cells(k, target.n, budget),
                f"support compile at (k, n) = ({k}, {target.n}) "
                f"with {budget} hidden units")

    support = target.rows > 0
    counts = support.sum(axis=0)
    y0 = int(np.argmax(counts))  # ties resolve to the smallest index
    scheme = _ComponentScheme.points(
        target.n, [y0] + [y for y in range(1 << target.n) if y != y0])
    # each support point y != y0 of row x is one fill of the point star
    # (x, free_mask=0), named ("row", x), and no cylinder is reset; rows
    # without such a point come first, so they are checked before any step
    total_steps = int(counts.sum() - counts[y0])
    extra = support.sum(axis=1) > support[:, y0]
    rows = np.argsort(extra, kind="stable")
    walk = [([], rows, 0, [("row", x) for x in rows.tolist()])]
    return _compile(target, scheme, walk, total_steps, eps, "support", budget,
                    None)[:2]


def divergence_witness(target: ConditionalTable,
                       m_budget: int) -> tuple[CrbmParams, float]:
    """Constructive witness for the divergence bound.

    Picks the largest block width l whose partition compiles within m_budget
    (best depth r over the feasible ones), compiles the partition projection
    of the target, and returns the parameters with the achieved divergence in
    bits.  With no feasible l, l = 0: the projection is uniform, and its
    compile is the zero model, whose divergence is at most n.
    """
    from .bounds import feasible_block_width

    if m_budget < 0:
        raise ValueError(f"m_budget must be >= 0, got {m_budget}")
    k, n = target.k, target.n
    l = feasible_block_width(k, n, m_budget)
    scheme = _ComponentScheme.partition(n, l)
    # clamp within blocks (preserves block-constancy), then compile tightly
    # at the cheapest depth, whose budget is within m_budget by the choice of l
    table, _ = clamp_table(
        ConditionalTable(k, n, scheme.project(target.rows)), 0.016)
    params, _, conditional = _partition(table, scheme, None, WITNESS_EPS)
    return params, kl_conditional(target, conditional)
