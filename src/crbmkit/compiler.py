"""Compile target conditional tables into explicit CRBM parameters.

The pipeline follows the constructive route: start from a bias-only model
whose rows sit near the scheme's start component, then walk a sequence of
stars, realizing every sharing step (star fills and cylinder resets) as
one appended hidden unit.  Every compile mode hands one entry,
``_compile``, a component scheme and a walk of stars, and a star is filled
through each component 1..M-1 that has target mass on one of its rows.
Universal, common-support and partition targets walk a star packing; a
one-component target (common support |T| = 1, the single-block partition)
walks no star, and its start model, priced at no hidden unit, is the whole
compile.  A packing of depth r spends E(r) resets, what
``packing.build_packing`` emits and ``packing.universal_budget`` prices;
from r = 3 on that is more than the paper's R(r), because each fill moves
its star's whole input cylinder (see ``packing``).  Sparse targets walk the
point stars (x, free_mask=0) on point components and reset nothing: each
support point of row x outside the start component is one fill.
Everything runs on an exact log-domain state in parallel with the
parameter build; the final certificate is evaluated from the parameters
themselves, never from the simulated state.

The state is the conditional: a (2^k, 2^n) array of log p(y | x) - k log 2
indexed [x, y], the joint with the model's conditional and a uniform input
marginal.  A trial's units are applied to it as the model applies them
(``sharing.apply_sharing_log``): each adds its softplus column to the
logits of the rows near it, and each moved row is conditioned on its input
again.  Without that, a reset (lambda near e^(-tau/2)) would drain its
cylinder's input mass, and its tilt normalizer would read a state that is
not the model's.  Every numeric of a step lives in ``sharing``; the
compiler keeps the schedule: the plan, the rung ladder, the checks and the
tau loop.

The stars of one packing level share a free mask and have disjoint input
cylinders, and each star's units are solved from its own rows alone, so a
packing level costs at most two trials.  Its boundary's resets are one:
every cylinder with a row drifted from the start component, decided on the
state before the trial, gets a unit whose bias takes its cylinder's tilt
normalizer on that state.  Its fills are the other: a unit for each star
and each component the star steps toward (a support compile's one level
holds all its point stars), every unit solved from the level's state.
Applied together to a member row p, a star's units give q_0 p + sum_t q_t
tilt_t(p), up to cross terms of the components' disjoint tilts below
e^-sharp: the mixture the fills toward one component at a time build, once
each unit takes the log-odds log(q_t / q_0) = log T_t + sum_{t' < t}
log(1 + T_t') where such a fill took log T_t (``sharing.log_mass_ratios``).
With one component past the start that is log T_1 itself, so such a
level's units are those of a fill toward one component, bit for bit.

One loop runs every trial (``_Pipeline._step``): build its U units at a
sharpness rung tau * 2^i, i < STEP_RETRIES, apply them to the state, and
accept them when three checks hold, each unit allowed the step tolerance
tol_step: the worst row TV of the stepping stars' rows to their targets is
within the allowance plus U tol_step (for resets, the start TV plus
tol_step); the cross-star leak, the worst row TV between those rows and
the rows each star's (or cylinder's) units make alone, is within U
tol_step; and the rows outside the units' cylinders move by at most U
tol_step.  The fills' region bound and the leak and drift bounds sum the
shares that trials of one component or one reset at a time were allowed:
the fills' region bounds grew by S tol_step with each accepted batch of S
units, the last one ending at the allowance plus U tol_step, and the leaks
and drifts they allowed add up to U tol_step.  A reset's region bound is
not summed: each reset row lies in one cylinder, and a trial of one reset
held its rows to the start TV plus tol_step, so a reset trial holds each
row to that, and the leak check bounds what the other cylinders' units do
to it.  So a trial checked once accepts no more error in all than they
did, and the allowance, grown by U tol_step per accepted trial, and the
doomed-star check below, which count units, not trials, are unchanged.  A
rung of several stars or cylinders whose rows, each grown by its own
group's units alone, miss their target by more than the region bound plus
U tol_step is rejected before it is applied: by the triangle inequality
its region or its leak check would fail.  Otherwise the sharpness doubles,
up to the top rung.
A trial's ladder starts at the rung its kind's last accepted trial passed
in this tau level, tau for the first: the tolerance share is fixed within a
level, and the rows outside a unit's cylinder move by about e^(-sharp d)
at input distance d, so the rung a kind needs hardly varies from trial to
trial, and the lower rungs a ratcheted trial skips would mostly be
rejected.  Every accepted trial still passes the same checks.  If passing
is monotone in sharpness, only a trial that would have passed below its
start rung changes: it is taken sharper.  Nothing checks that
monotonicity: a trial that passes only below its start rung now exhausts
its ladder and rejects the level, so tau doubles.  A sweep of 200 compiles
(seeds 0-7; universal, support, common and partition modes) met no such
step: units and tau_final were those of a ladder restarting at tau on
every step; with a level's fills and a boundary's resets one trial each,
the 272 compiles of the benchmark's compile mix at seeds 0-7, rounds 0-1,
met none either.  Each scheduled step (unit) gets an equal share eps / (2 *
steps) of the target tolerance.  The outer sharpness knob tau doubles from
16 until the final evaluation meets eps (or 1024 is hit, which raises
BudgetExceeded).  A tau level is rejected early, after each packing level,
naming the level's first star whose rows miss their target by more than
eps + (steps still to come) * tol_step + REJECT_MARGIN: the packing keeps
every later step's region off a finished star, so each later unit moves
its rows by at most tol_step, and the certificate can recover no more than
that.  The start distribution uses output biases of magnitude tau / (2 *
component width) so that the sharp steps' off-region dust stays
exponentially below the start-state dust.

A fill trial reads its stars' member rows to solve their units and makes
no reduction over the whole state; a reset trial builds its cylinders'
input tables log s_X (c, 2^k) and reduces its tilted state once per
cylinder, in stacked reductions of a chunk of cylinders at a time, for the
normalizers its units' biases take.  Each trial builds one new (2^k, 2^n)
state with its rows, in which only the rows near its units moved; an
accepted trial's state and rows become the pipeline's as they are, and its
units are kept.

A compile splits into a target-free half and the rest.  The target-free
half is its shape's (``_shape``): the component scheme, with its output
tilts per sharpness and its start state per tau level, and for a packed
compile the walk of its packing, with every level's resets and star
geometry.  It depends only on (k, n, the components' cylinders and their
order, the depth r), so it is built on a shape's first compile and kept,
read-only, for later compiles of the shape, in one ``bitspace.Kept`` memo
beside ``packing.build_packing``'s: each holds at most KEEP_ENTRIES = 32
tables and KEEP_CELLS = 2^19 cells, so the two keep at most 8 MiB in all.
A shape's price bounds all it can ever hold, a start state for every tau
level and a tilt batch for every sharpness a trial can ask for included;
one priced over KEEP_CELLS is built for its compile by the same code and
not kept.  Every compile still prices itself (``check_cells``) and calls
``build_packing``, which prices the packing, before it looks a shape up,
and still builds a bias-only model per tau level.  The rest is the
target's, planned and run per compile: the mixture weights and log-odds,
each level's fill plan, the trials and the certificate.  The other tables
kept across compiles are the read-only state-bit tables of the last two
widths a trial read (``sharing._bits``).

A walk is a list of levels (``_Level``), each a group of stars that share
a free mask, with the resets run before them.  A packed compile's walk is
its packing, whose resets, a level's lineages, all sit at a level's first
star (``_packing_walk``); a support compile's is the point stars (x, 0) in
the order of its target's rows, one level with no reset, built per
compile.  Every cylinder a step concentrates on (a star's inputs, a reset,
an output component) comes from one builder, ``sharing.cylinders``: one
broadcast per level's resets, per level's stars and per scheme.  A compile
plans each level of its walk once, when a tau level first reaches it, and
all its tau levels share that plan, so a level no tau level reaches is
never planned.  Each level's stars are planned at once (``_plan_stars``):
their one fill trial, each unit's star geometry stacked, read-only, with
its component and its members' log(q_t / q_0), from one ``log_odds`` and
one ``log_mass_ratios`` call over the target's whole profile, and the
stepping stars' target rows.  The component scheme (``_ComponentScheme``)
builds its output tilts (factors and log s_Y, 2^n) for all its components
at once, stacked, on the first trial that asks for a sharpness, and a fill
trial takes one row of them per unit; it builds a tau level's start state,
the conditioned broadcast of the start logits, on that level's first
``_Pipeline``.  So past its first reach of a level, a tau level only
builds, tries and accepts trials, fills and resets alike, and keeps the
units it accepts.  A level that walks to its end builds its model once,
before its certificate: one ``crbm.append_hidden_unit`` of all its units
to its bias-only start model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bitspace import OBJECT_CELLS, Kept, array_cells, check_cells, state_bits
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
from .packing import (PackingSequence, best_depth, build_packing,
                      universal_budget)
from .sharing import OutputTilt, StarTilt, Units, apply_sharing_log, \
    build_tilted_step, conditioned, cylinders, hidden_unit_from_log, \
    log_mass_ratios, log_odds, make_reset_step, mixture_weight_profile, \
    output_tilts, own_unit_rows, star_tilts

TAU_START = 16.0
TAU_MAX = 1024.0
STEP_RETRIES = 12
#: slack for the one gap the early rejection cannot bound by step checks:
#: the simulated state, which skips the (row, unit) pairs below
#: -sharing.FAR, against the certificate, which evaluates the parameters.
#: On the certified level of a seed-0 universal compile the two agree to a
#: worst-row TV of 2.5e-14 at (7,2) r = 3, 1.7e-14 at (8,1) r = 3, 4.0e-13
#: at (10,3) and 2.2e-13 at (12,2); 1e-9 is 2500 times the largest, and a
#: test holds the first two, (6,2) r = 3 and (10,3) to 1e-11.
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


class _Start(NamedTuple):
    """A tau level's start state on k inputs, read-only: the output biases
    of its bias-only model, its state and rows (``conditioned``) and the
    rows' worst TV to the start component."""

    bias: np.ndarray
    logp: np.ndarray
    rows: np.ndarray
    tv: float


class _ComponentScheme:
    """Output components mixed by the fill steps.

    A component is a sharp cylinder over the output bits; component 0 is the
    start component.  Universal targets use all 2^n point components, common
    supports the states of T, partition targets the 2^l blocks, sparse
    targets all 2^n points with the most shared support point y0 first.
    Every array it holds or hands out is read-only.
    """

    def __init__(self, n: int, mask: int, values: tuple[int, ...]):
        self.n = n
        self.mask = mask
        self.values = tuple(values)
        # one row per component, the cylinder (mask, value): its unit (n, 2)
        # output log factors, its member outputs and its uniform distribution
        self.unit, self.members = cylinders(n, mask, self.values)
        dists = np.zeros((len(self.values), 1 << n))
        np.put_along_axis(dists, self.members, 1.0 / self.members.shape[1], 1)
        dists.setflags(write=False)
        self.dists = dists
        self._tilts: dict[float, OutputTilt] = {}
        self._starts: dict[tuple[int, float], _Start] = {}

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

    def tilt(self, t, sharp: float) -> OutputTilt:
        """Component t's output tilt at sharpness ``sharp``, -sharp on the
        off value of each of its fixed bits, or the stack of the tilts of
        the components ``t`` (an index array).  The first use of a
        sharpness, by a fill or a reset, builds every component's tilt at it
        in one batch, kept for the scheme's life, so the compiles of its
        shape (``_shape``), their tau levels, stars and trials share one
        (``sharing.output_tilts``)."""
        tilts = self._tilts.get(sharp)
        if tilts is None:
            tilts = self._tilts[sharp] = output_tilts(self.unit, sharp)
        return tilts.take(t)

    def start(self, k: int, tau: float) -> _Start:
        """The start state of a tau level on k inputs, built on its first
        use and kept for the scheme's life.  The output biases are +-tau_b
        toward the start component's fixed bits, tau_b = tau / (2 *
        sharp_width): the odds of its cylinder factors at sharpness tau_b.
        The state is the start logits broadcast to every input row,
        column-major, x fastest, and conditioned on the inputs; every step
        keeps the layout."""
        start = self._starts.get((k, tau))
        if start is None:
            lf = self.unit[0] * (tau / (2.0 * max(self.sharp_width, 1)))
            bias = lf[:, 1] - lf[:, 0]
            logits = (state_bits(self.n) * bias[None, :]).sum(axis=1)
            logp, rows = conditioned(np.asfortranarray(
                np.broadcast_to(logits, (1 << k, 1 << self.n))), k)
            bias.setflags(write=False)
            logp.setflags(write=False)
            start = self._starts[k, tau] = _Start(
                bias, logp, rows, _worst_row_tv(rows, self.dists[0]))
        return start


class _Level(NamedTuple):
    """One level of a walk, all that does not depend on the target, arrays
    read-only: the resets run before its stars, their cylinders' (c, k, 2)
    unit log factors and (c, 2^free) inputs stacked from one ``cylinders``
    call, or None; its stars' geometry, stacked (``sharing.star_tilts``,
    one broadcast per level); and their names, star i's ``(label,
    index[i])``."""

    resets: tuple[np.ndarray, np.ndarray] | None
    tilts: StarTilt
    label: str
    index: Sequence[int]

    def name(self, i: int) -> tuple[str, int]:
        return self.label, int(self.index[i])


class _Fill(NamedTuple):
    """The fills of one level's stars, one trial, as the compile plans them
    once for all its tau levels: U units, star by star in walk order and
    each star's toward its components in order.  Unit u fills toward
    component ``t[u]``; ``tilt`` is each unit's star's ``sharing.StarTilt``,
    stacked (U), and ``log_q`` (U, r) its members' log(q_t / q_0)
    (``sharing.log_mass_ratios``).  ``members`` (S, r) are the stepping
    stars' members, unit u's at ``owner[u]`` (U, ascending), ``target``
    (S r, 2^n) their target rows,
    ``inside`` their cylinders' inputs, the rows no drift check of the
    trial reads, and ``name`` the first one's name in errors, ``(label,
    index)``."""

    t: np.ndarray
    tilt: StarTilt
    log_q: np.ndarray
    members: np.ndarray
    owner: np.ndarray
    target: np.ndarray
    inside: np.ndarray
    name: tuple[str, int]


class _Stars(NamedTuple):
    """One level of a walk as the compile plans it: its ``_Fill``, None when
    no star steps, and what the doomed-star check reads after it: every
    star's members (S, r), their rows of the target table (S, r, 2^n) and
    the ``_Level``, which names the stars."""

    fill: _Fill | None
    members: np.ndarray
    target: np.ndarray
    level: _Level


def _plan_stars(level: _Level, rows: np.ndarray, betas: np.ndarray,
                log_q: np.ndarray) -> _Stars:
    """The ``_Stars`` of the stars of ``level``, in their order: every star
    of one free mask in one plan.

    ``rows`` is the target table, ``betas`` its ``mixture_weight_profile``,
    whose weight for a component is positive exactly where that component
    has target mass, and ``log_q`` their ``sharing.log_mass_ratios``, all
    indexed by input.  A star steps toward each component 1..M-1 with a
    positive weight on one of its members, one unit each, and every unit of
    the level is one trial.  Its members' targets after it are their rows of
    the target table: every scheme's components are the cylinders the
    target's rows mix, so the components' distributions mixed by the
    target's masses give its rows back."""
    tilts = level.tilts
    members = tilts.members
    target = rows[members]
    # [s, t - 1]: star s steps toward component t
    steps = (betas[members] > 0).any(axis=1)
    star, col = steps.nonzero()
    if not len(star):
        return _Stars(None, members, target, level)
    on = steps.any(axis=1)
    if on.all():
        stepping, owner = slice(None), star
    else:
        stepping, owner = on.nonzero()[0], (np.cumsum(on) - 1)[star]
    return _Stars(_Fill(
        col + 1, tilts.take(star), log_q[members[star], col[:, None]],
        members[stepping], owner,
        target[stepping].reshape(-1, target.shape[-1]),
        tilts.inputs[stepping].ravel(), level.name(star[0])),
        members, target, level)


def _packing_walk(seq: PackingSequence) -> list[_Level]:
    """The packing ``seq`` as its levels in fill order, a star named
    ``("star", i)`` by its place.  A level's resets, run before its stars,
    are its lineages, cylinders of one fixed mask: the packing resets only
    at a level's first star."""
    k = seq.k
    edges = [0, *(np.flatnonzero(np.diff(seq.free_masks)) + 1).tolist(),
             len(seq.centers)]
    cuts = np.searchsorted(seq.reset_positions, edges).tolist()
    return [_Level(cylinders(k, int(seq.reset_masks[a]), seq.reset_values[a:b])
                   if b > a else None,
                   star_tilts(k, seq.centers[lo:hi], int(seq.free_masks[lo])),
                   "star", range(lo, hi))
            for lo, hi, a, b in zip(edges, edges[1:], cuts, cuts[1:])]


#: the compile shapes kept for later compiles (``_shape``)
_SHAPES = Kept()


def _shape(k: int, n: int, mask: int, values: Sequence[int],
           seq: PackingSequence | None = None
           ) -> tuple[_ComponentScheme, list[_Level]]:
    """The target-free half of a compile on k inputs toward the components
    ``(mask, values)`` on n outputs: its scheme, whose output tilts and
    start states grow with use, and the walk of the packing ``seq`` (none
    without one), built on a shape's first compile and kept for later ones
    (``bitspace.Kept``) when its price fits.

    The price bounds all the shape can ever hold: its arrays as built, a
    start state for every tau level and a batch of output tilts for every
    sharpness a fill or a reset can ask for, each with the objects that
    hold it, and the scheme's and the levels' own objects."""
    values = tuple(values)

    def build():
        scheme = _ComponentScheme(n, mask, values)
        walk = [] if seq is None else _packing_walk(seq)
        taus = int(math.log2(TAU_MAX / TAU_START)) + 1
        sharps = 2 * (taus + STEP_RETRIES - 1)
        count = len(values)
        return (scheme, walk), (
            array_cells(scheme.unit, scheme.members, scheme.dists,
                        *(a for level in walk
                          for a in (*level.tilts, *(level.resets or ()))))
            # a start: its bias, state and rows, its tuple, key and slot
            + taus * ((2 << (k + n)) + n + 8 * OBJECT_CELLS)
            # a batch of tilts: its two tables with the views they are
            # summed through, its tuple, key and slot
            + sharps * (count * (2 * n + (1 << n)) + 8 * OBJECT_CELLS)
            # the scheme, its dicts and values, each level's tuples
            + (32 + 4 * len(walk)) * OBJECT_CELLS + 5 * count)

    return _SHAPES.get((k, n, mask, values, None if seq is None else seq.r),
                       build)


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
        # the scheme's start state of this tau level, which no step writes
        start = scheme.start(k, tau)
        self.start = CrbmParams.bias_only(k, n, start.bias)
        # the ``sharing.Units`` of each accepted trial, in order
        self.units: list[Units] = []
        self.logp, self._rows = start.logp, start.rows
        self.start_tv = self.allowance = start.tv
        self.used = {"fill": 0, "reset": 0}
        # kind -> index i of the rung tau * 2^i its last accepted trial passed
        self._rung: dict[str, int] = {}

    def rows(self) -> np.ndarray:
        """Read-only conditional rows of the current state."""
        return self._rows

    def model(self) -> CrbmParams:
        """The start model with the accepted hidden units after it, in the
        order they were accepted: one append."""
        w_in, w_out, bias = (np.concatenate(part) for part in zip(
            Units(np.zeros((0, self.k)), np.zeros((0, self.n)), np.zeros(0)),
            *self.units))
        return append_hidden_unit(self.start, w_out, w_in, bias)

    def reject_if_doomed(self, stars: _Stars, eps: float,
                         total_steps: int) -> None:
        """Raise BudgetExceeded, naming the first star of the finished
        level ``stars`` (``_plan_stars``) whose rows already miss their
        target by more than the level's certificate can recover.

        No later step has a finished row in its region, so each of the at
        most ``total_steps`` - (accepted steps) still to come moves it by at
        most tol_step, its own share of its trial's check on the rows
        outside its region.
        """
        remaining = total_steps - self.used["fill"] - self.used["reset"]
        limit = eps + remaining * self.tol_step + REJECT_MARGIN
        tv = np.abs(self._rows[stars.members] - stars.target).sum(
            axis=-1).max(axis=-1, initial=0.0)
        doomed = np.flatnonzero(tv > limit)
        if doomed.size:
            label, index = stars.level.name(doomed[0])
            raise BudgetExceeded(
                f"{label} {index}: worst-row TV {tv[doomed[0]]:.6g} to the "
                f"target > limit {limit:.6g} (tau = {self.tau:g})")

    def _step(self, kind: str, build: Callable[[float], Units],
              members: np.ndarray, owner: np.ndarray, target: np.ndarray,
              bound: float, inside: np.ndarray,
              name: tuple[str, int] | None = None) -> None:
        """Build, try and accept one trial: U units in G groups, each
        group's region rows a row of ``members`` (G, r), unit u in group
        ``owner[u]`` (U, ascending).

        ``build(sharp)`` makes the units at sharpness ``sharp``.  A trial is
        accepted when three checks hold, each unit allowed its tol_step: its
        rows at ``members`` are within row TV ``bound`` of ``target``; they
        are within U tol_step of the rows that each group's units alone make
        on its own members (the cross-star leak, read when G > 1); and the
        rows outside ``inside`` (the inputs of the groups' cylinders, an
        index array) moved by at most U tol_step.  When G > 1 the rows each
        group's units make alone are taken first, and a rung that puts them
        farther than ``bound`` plus U tol_step from ``target`` is rejected
        without applying it to the whole state: its region or its leak
        check would fail.  Otherwise the sharpness doubles.  The rungs are
        tau * 2^i for i < STEP_RETRIES, and the ladder starts at the rung
        the last accepted trial of the same kind passed in this level (tau
        for the first): within a level tol_step is fixed and a unit's
        outside drift falls like e^(-sharp d) in the input distance d, so a
        trial seldom passes below the rung its kind last needed, and the
        ratchet only skips rungs, never adds one.  That
        a skipped rung would also have failed assumes passing is monotone in
        sharpness, which the measured sweep in the module docstring
        supports but nothing checks; a trial that passes only below its
        start rung exhausts its ladder here and rejects the level.  A
        trial's state and rows are the conditional its units make
        (``sharing.apply_sharing_log``), and an accepted trial's become the
        pipeline's as they are.  An exhausted ladder names its rungs, the
        check that rejected the last one and ``name``, the first group's.
        """
        count = len(owner)
        region = members.ravel()
        limit = count * self.tol_step
        outside = np.ones(1 << self.k, dtype=bool)
        outside[inside] = False
        first = self._rung.get(kind, 0)
        rejected = None
        for i in range(first, STEP_RETRIES):
            sharp = self.tau * 2.0 ** i
            units = build(sharp)
            if len(members) > 1:
                own = own_unit_rows(self.logp, units, members, owner)
                # region TV <= bound and leak <= limit would put the rows
                # each group's units make alone within bound + limit
                tv = _worst_row_tv(own, target)
                if not tv <= bound + limit:
                    rejected = (f"own-group TV {tv:.3g} > bound + limit "
                                f"{bound + limit:.3g}")
                    continue
            logp, rows, moved = apply_sharing_log(self.logp, self._rows,
                                                  units)
            tv = _worst_row_tv(rows[region], target)
            if not tv <= bound:
                rejected = f"region TV {tv:.3g} > bound {bound:.3g}"
                continue
            if len(members) > 1:
                leak = _worst_row_tv(rows[region], own)
                if not leak <= limit:
                    rejected = f"cross-star leak {leak:.3g} > limit {limit:.3g}"
                    continue
            moved = moved[outside[moved]]
            drift = _worst_row_tv(rows[moved], self._rows[moved])
            if not drift <= limit:
                rejected = f"outside drift {drift:.3g} > limit {limit:.3g}"
                continue
            self.units.append(units)
            self.logp, self._rows = logp, rows
            self._rung[kind] = i
            self.used[kind] += count
            self.allowance += limit
            return
        tried = (f"rungs {self.tau * 2.0 ** first:g} to {sharp:g}, at "
                 f"{sharp:g} {rejected}" if rejected else "no rung left")
        at = f" at {name[0]} {name[1]} (batch of {count})" if name else ""
        raise BudgetExceeded(f"{kind} sharpness schedule exhausted{at}: "
                             f"{tried} (tau = {self.tau:g})")

    def reset(self, resets: tuple[np.ndarray, np.ndarray]) -> None:
        """Drive the cylinders of inputs of a level boundary, their (c, k,
        2) unit log factors and (c, 2^free) members as ``_packing_walk``
        plans them, back to the start component: every one of them that
        has a row drifted from it by more than the phase tolerance, on the
        state before the boundary, in one trial of one unit each.  A unit
        realizes a fixed-lam step with its tilt normalizer on that state
        (``sharing.hidden_unit_from_log``).  Each row lies in one cylinder,
        so each is held to the start TV plus one tol_step, what a trial of
        its cylinder's reset alone allowed; the leak and drift checks allow
        one tol_step per unit."""
        factors, inside = resets
        start = self.scheme.dists[0]
        tv = np.abs(self._rows[inside] - start).sum(axis=-1).max(axis=-1)
        drifted = ~(tv <= self.start_tv + 2.0 * self.tol_step)
        if not drifted.any():
            return
        if not drifted.all():
            factors, inside = factors[drifted], inside[drifted]
        # outputs: concentrate on the start component at start-grade sharpness
        grade = 2.0 * max(self.scheme.sharp_width, 1)
        self._step("reset", lambda sharp: hidden_unit_from_log(
            *make_reset_step(self.logp, factors,
                             self.scheme.tilt(0, sharp / grade), sharp)),
            inside, np.arange(len(inside)), start,
            self.start_tv + self.tol_step, inside.ravel())

    def fill(self, fill: _Fill) -> None:
        """Run a level's planned fills (``_plan_stars``) through the step
        loop as one trial, every unit solved from the level's state: all
        that depends on the target alone was planned once for the compile,
        so a level only builds and tries units.  Each unit is allowed
        tol_step on the region bound.

        The rows sit at the start component when their star is filled:
        ``validate_packing`` refuses a fill from rows that are not clean, and
        a support compile fills each row once."""
        self._step("fill", lambda sharp: build_tilted_step(
            self.logp, fill.tilt, fill.log_q, self.scheme.tilt(fill.t, sharp),
            sharp), fill.members, fill.owner, fill.target,
            self.allowance + len(fill.t) * self.tol_step, fill.inside,
            fill.name)


def _compile(target: ConditionalTable, scheme: _ComponentScheme,
             walk: list[_Level], total_steps: int, eps: float, mode: str,
             budget: int, r: int | None, clamp_error: float = 0.0
             ) -> tuple[CrbmParams, CompileReport, ConditionalTable]:
    """Walk the levels ``walk`` at tau = TAU_START, 2 TAU_START, ...,
    TAU_MAX and return the first tau level whose evaluated conditional is
    within eps of ``target``, with that conditional, the certificate's.

    At each level of the walk a tau level resets the drifted cylinders,
    fills the stars and rejects itself at the first doomed star.  Each of
    the ``total_steps`` scheduled steps gets tolerance eps / (2 total_steps).
    When no level meets eps, the error names why the last one failed: the
    error it raised, which it chains, or its certificate's TV."""
    # row by row, so each star reads its members' rows of one profile and
    # of its log-odds (elementwise, so the floats of each star's own); each
    # level is planned when a tau level first reaches it, once for all
    betas = mixture_weight_profile(scheme.masses(target.rows))
    log_q = log_mass_ratios(log_odds(betas))
    plans: list[_Stars] = []
    tol_step = eps / (2.0 * max(total_steps, 1))
    last_error: Exception | None = None
    tau = TAU_START
    while tau <= TAU_MAX:
        pipe = _Pipeline(target.k, target.n, scheme, tau, tol_step)
        try:
            for i, level in enumerate(walk):
                if i == len(plans):
                    plans.append(_plan_stars(level, target.rows, betas,
                                             log_q))
                stars = plans[i]
                if level.resets is not None:
                    pipe.reset(level.resets)
                if stars.fill is not None:
                    pipe.fill(stars.fill)
                pipe.reject_if_doomed(stars, eps, total_steps)
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


def _packed_shape(k: int, n: int, mask: int, values: Sequence[int],
                  r: int | None, mode: str
                  ) -> tuple[_ComponentScheme, list[_Level], int, int | None]:
    """Price the packed compile on k inputs toward the components ``(mask,
    values)`` on n outputs at the best or given depth r, every star
    scheduled through every component and every reset the packing lists,
    and then give its scheme, walk, budget and depth (``_shape``).  One
    component leaves nothing to fill: the start model is the whole compile,
    no star is walked, the budget is 0 and r is reported as given."""
    count = len(values)
    if count == 1:
        if r is not None:
            universal_budget(k, r, 1)  # refuses a depth k cannot hold
        budget = 0
    else:
        if r is None:
            r = best_depth(k, count)
        budget = universal_budget(k, r, count)
    # priced on the final certificate, before the packing is built and
    # before any shape is looked up
    check_cells(eval_cells(k, n, budget),
                f"{mode} compile at (k, n) = ({k}, {n}) "
                f"with {budget} hidden units")
    # the budget counts every scheduled step: one per star and component
    # past the start, one per reset
    seq = build_packing(k, r) if count > 1 else None
    return (*_shape(k, n, mask, values, seq), budget, r)


def compile_universal(target: ConditionalTable, r: int | None = None,
                      eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Approximate an arbitrary conditional table within per-row TV eps.

    General targets are clamped to strict positivity first (floor
    eps / 2^(n+2), renormalized); achieved_tv is measured against the
    clamped target and the clamping error reported separately.
    """
    _check_eps(eps)
    clamped, clamp_err = clamp_table(target, eps)
    n = target.n
    scheme, walk, budget, r = _packed_shape(
        target.k, n, (1 << n) - 1, range(1 << n), r, "universal")
    return _compile(clamped, scheme, walk, budget, eps, "universal", budget,
                    r, clamp_err)[:2]


def compile_common_support(target: ConditionalTable, r: int | None = None,
                           eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Targets whose rows all share one support T; |T| - 1 steps per star."""
    _check_eps(eps)
    on = target.rows > 0
    if not (on == on[0]).all():
        raise SupportsDiffer("rows do not share a common support")
    n = target.n
    scheme, walk, budget, r = _packed_shape(
        target.k, n, (1 << n) - 1, np.flatnonzero(on[0]).tolist(), r,
        "common")
    return _compile(target, scheme, walk, budget, eps, "common", budget,
                    r)[:2]


def compile_partition(target: ConditionalTable, l: int, r: int | None = None,
                      eps: float = 1e-2) -> tuple[CrbmParams, CompileReport]:
    """Targets block-constant on the cylinder partition of the first l bits."""
    _check_eps(eps)
    if not 0 <= l <= target.n:
        raise ValueError(f"l must be in [0, {target.n}]")
    _check_blocks(target, l)
    scheme, walk, budget, r = _packed_shape(
        target.k, target.n, (1 << l) - 1, range(1 << l), r, "partition")
    return _compile(target, scheme, walk, budget, eps, "partition", budget,
                    r)[:2]


def _check_blocks(target: ConditionalTable, l: int) -> None:
    """Refuse a target not constant on each block of the partition of its
    first l output bits: block z holds the outputs y with y mod 2^l = z."""
    blocks = target.rows.reshape(len(target.rows), -1, 1 << l)
    spread = np.abs(blocks - blocks.mean(axis=1, keepdims=True)).max(
        axis=(0, 1))
    off = np.flatnonzero(spread > 1e-9)
    if off.size:
        raise NotBlockConstant(f"rows are not constant on block {off[0]}")


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
    scheme, _ = _shape(k, target.n, (1 << target.n) - 1,
                       [y0] + [y for y in range(1 << target.n) if y != y0])
    # each support point y != y0 of row x is one fill of the point star
    # (x, free_mask=0), named ("row", x), and no cylinder is reset; rows
    # without such a point come first, so they are checked before any step.
    # The order is the target's, so the walk is built per compile
    total_steps = int(counts.sum() - counts[y0])
    extra = support.sum(axis=1) > support[:, y0]
    rows = np.argsort(extra, kind="stable")
    walk = [_Level(None, star_tilts(k, rows, 0), "row", rows)]
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
    # priced and its shape looked up first, since the projection reads the
    # scheme's blocks; clamp within blocks (preserves block-constancy), then
    # compile tightly at the cheapest depth, whose budget is within m_budget
    # by the choice of l
    scheme, walk, budget, r = _packed_shape(k, n, (1 << l) - 1, range(1 << l),
                                            None, "partition")
    table, _ = clamp_table(
        ConditionalTable(k, n, scheme.project(target.rows)), 0.016)
    _check_blocks(table, l)
    params, _, conditional = _compile(table, scheme, walk, budget,
                                      WITNESS_EPS, "partition", budget, r)
    return params, kl_conditional(target, conditional)
