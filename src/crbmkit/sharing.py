"""Sharing steps on the conditional, each one hidden unit.

The state, that of the compile pipeline, is a (2^k, 2^n) array of log
p(y | x) - k log 2 indexed [x, y]: the joint with the conditional p(y|x)
and a uniform input marginal, of mass 1.  A step tilts rows toward an
output component by a product over the coordinates, s(x, y) = s_X(x)
s_Y(y), stored by its per-coordinate *log* factor pairs; concentrated steps
put -tau on the off-region value of a coordinate, so arbitrary sharpness
never leaves the log domain.  The output half of a tilt, its factors and
log s_Y over the 2^n outputs, is an ``OutputTilt``; ``output_tilts`` builds
those of many output cylinders at one sharpness in one batch, which a
compile passes to every step toward them.

Every step is one appended hidden unit, as in the paper.  With odds
w_i = log s_i(1) - log s_i(0) and S0 = prod_i s_i(0), a unit with weights w
(inputs first) and bias c multiplies every row p(. | x) by 1 + e^c s(x, y)
/ S0: it adds softplus(c + V x + W y) to the logits.  ``Units`` holds S
such units as the rows ``crbm.append_hidden_unit`` takes, and
apply_sharing_log is the one way to apply them: it adds their softplus
columns to the state and conditions the moved rows on their inputs again,
so it returns the conditional of the grown model.  A (row, unit) pair whose
pre-activation c + V x plus the unit's largest W y is at most -FAR is
skipped, since it moves the row's logits by less than e^-FAR; the compile's
certificate, ``crbm.eval_conditional`` of the parameters, sums every pair.
``verify`` tests the application against that evaluation.

Each step kind has one builder, and both scale a cylinder's planned unit
factors to the trial's sharpness.  build_tilted_step fills a batch of stars,
one unit per star and output component, each solved from its own star's
member rows: member x's mixture weight toward the component is beta(x),
with log-odds log T(x) (``log_odds``, clamped to +-LOG_T_CAP).  With L(x)
and G(x) the log masses of row x untilted and tilted by s_Y, the free bit
that member x flips gets the odds log T(x) + L(x) - G(x) against the
center's, and the bias is log T(a) - log s_X(a) - G(a) + L(a) + log S0 at
the center a, where log s_X is 0.  No lambda and no reduction over the
whole state enter a fill, so the stars of a packing level, whose input
cylinders are disjoint, are solved together.  So are a star's units toward
all its components: applied together to a member row p, they give q_0 p +
sum_t q_t tilt_t(p) up to the cross terms of the components' disjoint
tilts, the row that filling toward one component after another builds,
when each takes log(q_t / q_0) = log T_t + sum_{t' < t} log(1 + T_t')
(``log_mass_ratios``) in place of log T_t.  make_reset_step builds
cylinder resets: the lambda-mixture p -> lam p + (1 - lam) p s / N at a
fixed lam = 1/(1 + e^min(sharp/2, 700)), a ``SharingStep`` (a stack of
them, one per cylinder, for the resets of a level boundary), with its tilt
normalizer log N = logsumexp(log p + log s), a reduction over the whole
state per cylinder; hidden_unit_from_log turns the two into the unit of
bias log((1 - lam) S0 / (lam N)), which multiplies p(y|x) by a positive
multiple of lam + (1 - lam) s(x, y) / N.  Only 0 < lam < 1 has a finite
bias, and a ``SharingStep`` holds no other lam.

The one cylinder builder, ``cylinders``, gives the unit factors and members
of many cylinders of one fixed mask in one broadcast.  A fill reads
everything about its stars that the state does not move from a
``StarTilt`` (``star_tilts``, one broadcast per free mask).  Sequencing,
sharpening and accepting steps is the compiler's job: it runs a packing
level's resets as one trial and its fills as another, each checked once
against the sum of the bounds that trials of one reset or one component
were held to, but for a reset row's own bound, which is one reset's: the
row lies in one cylinder.  Every log-sum-exp is one max-shift reduction,
the max plus the log of the sum of exp(entries - max), over the whole
state (``logsumexp``) or per row (``conditioned``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bitspace import cylinder_members, set_bits, state_bits
from .errors import DegenerateStep, InfeasibleProfile, ShapeMismatch

#: |log T| clamp of a mixture weight at 0 or 1 (``log_odds``).  A member
#: asking for beta = 1 gets 1/(1 + e^-40), one asking for 0 gets
#: e^-40/(1 + e^-40): either misses by less than e^-40 < 4.3e-18, so its row
#: misses its target by a row TV (x2) below 8.5e-18, within a compile's
#: tol_step = eps / (2 steps) whenever eps > 1.7e-17 steps
LOG_T_CAP = 40.0
#: hidden-unit bias magnitude cap
BIAS_CAP = 1e7
#: a (row, unit) pair with c + V x + max_y W y <= -FAR is not applied:
#: softplus(a) < e^a, so it would move each logit of the row by < e^-37
FAR = 37.0
#: (row, unit, output) cells per block of apply_sharing_log
_BLOCK_CELLS = 1 << 20
LOG2 = math.log(2.0)


def logsumexp(a: np.ndarray, axis: int | tuple[int, ...] | None = None):
    """log(sum(exp(a))) over ``axis``: all entries for None, giving a float,
    or along one axis or a tuple of them.  The max (per slice) plus the log
    of the sum of exp(a - max), the reduction the pipeline normalizes its
    rows with; the max must be finite."""
    a = np.asarray(a, dtype=float)
    top = a.max(axis=axis, keepdims=True)
    return top.squeeze(axis=axis) + np.log(np.exp(a - top).sum(axis=axis))


def _log_values_of(log_factors: np.ndarray) -> np.ndarray:
    """log s(v) over all 2^width states of (..., width, 2) log factors, one
    table per index of the leading axes, read-only.

    Built by doubling, coordinate 0 first: the states with bit i set extend
    those below 2^i by log s_i(1), the others by log s_i(0).  So each value
    is summed from 0 over coordinates 0, 1, ..., width-1 in that order, the
    float a per-state loop over the factors gives, whatever the leading
    axes.
    """
    shape = log_factors.shape[:-2] + (1, -1)
    out = np.zeros(shape[:-1] + (1,))
    for i in range(log_factors.shape[-2]):
        # [off + low, on + low]
        out = (log_factors[..., i, :, None] + out).reshape(shape)
    out = out.reshape(shape[:-2] + (-1,))
    out.setflags(write=False)
    return out


class OutputTilt(NamedTuple):
    """The output half of a tilt: (n, 2) log factors, log s_i(0) and
    log s_i(1), and their table log s_Y over the 2^n outputs, both
    read-only; or a stack of such tilts along leading axes, (c, n, 2) and
    (c, 2^n)."""

    log_factors: np.ndarray
    log_sy: np.ndarray

    def take(self, t) -> OutputTilt:
        """Tilt ``t`` of this stack (an index), or the stack of the tilts
        ``t`` (an index array), read-only."""
        return OutputTilt(_read_only(self.log_factors[t]),
                          _read_only(self.log_sy[t]))


class Units(NamedTuple):
    """S hidden units on k inputs and n outputs: input weights ``w_in``
    (S, k), output weights ``w_out`` (S, n) and biases ``bias`` (S,), the
    rows ``crbm.append_hidden_unit`` takes."""

    w_in: np.ndarray
    w_out: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class SharingStep:
    """One lambda-mixture step on k inputs, a reset's, or a stack of such
    steps at one lambda: weight 0 < lam < 1 and product-tilt log factors,
    (k + n, 2) per step, the k input coordinates first, then the outputs,
    stacked along leading axes.

    ``log_sx`` (2^k) and ``log_sy`` (2^n) are the tilts' input and output
    log tables, read-only, per step.  A builder that already holds one
    passes it in, and it must be the table of the matching factors, or one
    table that every step of the stack shares; a table not passed is built
    on construction.
    """

    k: int
    lam: float
    # (..., k + n, 2): log s_i(0), log s_i(1)
    log_factors: np.ndarray = field(repr=False)
    log_sx: np.ndarray | None = field(default=None, repr=False, compare=False)
    log_sy: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        lf = np.asarray(self.log_factors, dtype=float)
        if (lf.ndim < 2 or lf.shape[-1] != 2
                or not 0 <= self.k <= lf.shape[-2]):
            raise ShapeMismatch(
                f"log_factors must be (..., k + n, 2) with k = {self.k}, "
                f"got shape {lf.shape}")
        if not np.isfinite(lf).all():
            raise ValueError("non-finite log factors")
        if not 0.0 < self.lam < 1.0:
            raise DegenerateStep(f"lambda {self.lam!r} is outside (0, 1): "
                                 "no finite hidden unit realizes it")
        lf.setflags(write=False)
        object.__setattr__(self, "log_factors", lf)
        steps = lf.shape[:-2]
        for name, part in (("log_sx", lf[..., :self.k, :]),
                           ("log_sy", lf[..., self.k:, :])):
            table = getattr(self, name)
            size = 1 << part.shape[-2]
            if table is None:
                table = _log_values_of(part)
            elif (table.shape[-1:] != (size,)
                  or table.shape[:-1] not in (steps, ())):
                raise ShapeMismatch(
                    f"{name} must have {size} entries per step, "
                    f"got shape {table.shape}")
            object.__setattr__(self, name, table)


def conditioned(logp: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pipeline state of the (rows, 2^n) log joint ``logp`` on k inputs
    and its rows, both indexed [x, y].

    The state is log p(y | x) - k log 2: the joint with the conditional of
    ``logp`` and a uniform input marginal, every input row of mass 2^-k.
    Each row's log mass is taken from the max, exp and sum that its
    conditional row p(. | x) needs; the rows are read-only.
    """
    top = logp.max(axis=1, keepdims=True)
    shifted = np.exp(logp - top)
    mass = shifted.sum(axis=1, keepdims=True)
    rows = shifted / mass
    rows.setflags(write=False)
    return logp - (top + np.log(mass) + k * LOG2), rows


@lru_cache(maxsize=2)
def _bits(width: int) -> np.ndarray:
    """``state_bits(width)``, read-only.  Every trial reads the tables of k
    and n; building them on each one cost the compile mix about 6 % of its
    throughput (``perfbench`` compile workload, 10 alternated pairs, 2-core
    x86-64).  Two widths are kept, one compile's k and n, so a compile
    builds each table once and at most two outlive it."""
    table = state_bits(width)
    table.setflags(write=False)
    return table


def apply_sharing_log(logp: np.ndarray, rows: np.ndarray, units: Units
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append ``units`` to the model whose conditional is the state
    ``logp`` ((2^k, 2^n), indexed [x, y], ``conditioned``) with ``rows``.

    Returns the grown model's state and read-only rows, new arrays, and the
    inputs whose rows moved, ascending (the given arrays when none did):
    each unit adds softplus(c + V x + W y) to row x's logits, and each
    moved row is conditioned on its input again.  A (row, unit) pair with
    c + V x + max_y W y <= -FAR is skipped.  The units are applied to
    blocks of input rows in turn, each block's (row, unit, output) cells
    at most _BLOCK_CELLS, so a trial holds one block's pairs at a time.
    """
    nx, ny = logp.shape
    k, n = nx.bit_length() - 1, ny.bit_length() - 1
    w_in, w_out, bias = units
    if (np.ndim(bias) != 1 or np.shape(w_in) != (len(bias), k)
            or np.shape(w_out) != (len(bias), n)):
        raise ShapeMismatch(
            f"units must have shapes (S, {k}), (S, {n}) and (S,), got "
            f"{np.shape(w_in)}, {np.shape(w_out)} and {np.shape(bias)}")
    out = w_out @ _bits(n).T                          # (S, 2^n): W y
    floor = -FAR - out.max(axis=1)
    block = max(_BLOCK_CELLS // (max(len(bias), 1) * ny), 1)
    moved, delta = [], []
    for x0 in range(0, nx, block):
        pre = _bits(k)[x0:x0 + block] @ w_in.T + bias  # (rows, S)
        # the near pairs, row by row: one flat scan, a quarter of the time
        # a 2-d nonzero takes on a (4096, 1056) block
        near = np.flatnonzero(pre > floor)
        if len(near):
            x, u = np.divmod(near, len(bias))
            # x ascends: each moved row's pairs start where x changes
            first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
            moved.append(x[first] + x0)
            delta.append(np.add.reduceat(np.logaddexp(
                0.0, pre.ravel()[near][:, None] + out[u]), first, axis=0))
    if not moved:
        return logp, rows, np.zeros(0, dtype=np.intp)
    moved, delta = (part[0] if len(part) == 1 else np.concatenate(part)
                    for part in (moved, delta))
    grown, grown_rows = conditioned(logp[moved] + delta, k)
    logp, rows = logp.copy(order="K"), rows.copy(order="K")
    logp[moved], rows[moved] = grown, grown_rows
    rows.setflags(write=False)
    return logp, rows, moved


def own_unit_rows(logp: np.ndarray, units: Units, members: np.ndarray,
                  owner: np.ndarray) -> np.ndarray:
    """The rows ``members`` ((G, r), one row of members per group) of the
    state ``logp`` ((2^k, 2^n), indexed [x, y]), each grown by its own
    group's units of ``units`` alone and conditioned: read-only, (G r, 2^n)
    in the order of ``members``.  Unit s is in group ``owner[s]``, owner
    ascending and every group holding a unit.  A batch's cross-star leak is
    their distance to the rows with every unit applied."""
    nx, ny = logp.shape
    k = nx.bit_length() - 1
    w_in, w_out, bias = units
    rows = members[owner]
    pre = (_bits(k)[rows] @ w_in[:, :, None])[..., 0] + bias[:, None]
    out = w_out @ _bits(ny.bit_length() - 1).T
    delta = np.logaddexp(0.0, pre[..., None] + out[:, None, :])
    if len(rows) > len(members):
        # owner ascends: each group's units start where it changes
        delta = np.add.reduceat(delta, np.flatnonzero(
            np.concatenate(([True], owner[1:] != owner[:-1]))), axis=0)
    return conditioned((logp[members] + delta).reshape(-1, ny), k)[1]


def hidden_unit_from_log(step: SharingStep,
                         log_norm: float | np.ndarray) -> Units:
    """The hidden unit realizing the lambda-mixture ``step`` on a state of
    mass 1, as one row of ``Units``; for a stack of steps, one row per
    step, in the stack's order.

    Each bias takes its step's tilt normalizer on that state, from
    ``log_norm`` as make_reset_step returned it: log((1 - lam) S0 / (lam
    N)).  Applying a unit (apply_sharing_log) gives the conditional of the
    state after its step, p -> lam p + (1 - lam) p s / N conditioned on
    its inputs.
    """
    lf = step.log_factors
    w = (lf[..., 1] - lf[..., 0]).reshape(-1, lf.shape[-2])
    log_n = np.asarray(log_norm, dtype=float)
    if not np.isfinite(log_n).all():
        raise DegenerateStep("tilt normalizer vanished")
    lam = step.lam
    bias = np.log1p(-lam) - np.log(lam) + lf[..., 0].sum(axis=-1) - log_n
    if not (np.abs(bias) <= BIAS_CAP).all():
        raise DegenerateStep(f"bias {bias!r} beyond magnitude cap")
    return Units(w[:, :step.k], w[:, step.k:], bias.reshape(-1))


def mixture_weight_profile(q_masses: np.ndarray) -> np.ndarray:
    """Per-step mixture weights beta = 1 - lambda from target component masses.

    ``q_masses[x, t]`` is the target mass of component t for row x, ordered by
    the enumeration sigma with sigma(0) the start component.  Returns
    beta[x, t-1] for steps t = 1 .. T-1, where the t-th step mixes the row
    toward component t with weight beta = q_t / (1 - sum_{t' > t} q_{t'}).
    """
    q = np.asarray(q_masses, dtype=float)
    if np.any(q < -1e-12):
        raise InfeasibleProfile("negative component mass")
    # denom[:, t-1] = sum_{t' <= t} q_{t'}
    denom = np.cumsum(q, axis=1)[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        betas = np.where(denom > 0, q[:, 1:] / np.where(denom > 0, denom, 1.0), 0.0)
    if np.any(betas > 1 + 1e-9):
        raise InfeasibleProfile("mixture weight left [0, 1]")
    return np.minimum(np.maximum(betas, 0.0), 1.0)


def log_odds(betas) -> np.ndarray:
    """log(beta / (1 - beta)) of each mixture weight, clamped to
    [-LOG_T_CAP, LOG_T_CAP] so parameters stay finite: -LOG_T_CAP where
    beta <= 0 and LOG_T_CAP where beta >= 1."""
    b = np.minimum(np.maximum(betas, 0.0), 1.0)
    with np.errstate(divide="ignore"):
        return np.minimum(np.maximum(np.log(b) - np.log1p(-b), -LOG_T_CAP),
                          LOG_T_CAP)


def log_mass_ratios(log_t: np.ndarray) -> np.ndarray:
    """log(q_t / q_0) of each component t = 1 .. T-1 against the start,
    from the ``log_odds`` ``log_t`` of the steps' mixture weights, one row
    per input: log T_t + sum_{t' < t} log(1 + T_t').

    Mixing toward the components one at a time leaves the start component
    q_0 = prod_t (1 - beta_t) and component t q_t = beta_t prod_{t' > t}
    (1 - beta_t'), so q_t / q_0 = T_t prod_{t' < t} 1 / (1 - beta_t') =
    T_t prod_{t' < t} (1 + T_t').  The first column is log T_1 itself, bit
    for bit."""
    ratios = np.array(log_t, dtype=float)
    ratios[..., 1:] += np.cumsum(np.logaddexp(0.0, ratios[..., :-1]),
                                 axis=-1)
    return ratios


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cylinders(width: int, fixed_mask: int, values
              ) -> tuple[np.ndarray, np.ndarray]:
    """The cylinders ``(fixed_mask, v)`` of {0,1}^width, v in ``values``, in
    one broadcast, both read-only: their (c, width, 2) log factors at
    sharpness 1, -1 on the off value of each fixed bit and the other bits 0
    (times a sharpness, -sharpness and 0 exactly), and their (c, 2^free)
    members, ascending.  A value with a free bit set, or off the cube, is
    refused (ValueError)."""
    values = np.asarray(values, dtype=np.intp)
    free = ((1 << width) - 1) & ~fixed_mask
    if (values & ~fixed_mask).any():
        raise ValueError(f"a value has a bit of the free mask {free:#b} set "
                         f"or lies off [0, 2^{width})")
    offsets = np.array(cylinder_members(fixed_mask, 0, width), dtype=np.intp)
    bits = np.arange(width)
    fixed = ((fixed_mask >> bits) & 1)[:, None] == 1
    on = (values[:, None] >> bits) & 1
    factors = np.where(fixed & (np.arange(2) != on[..., None]), -1.0, 0.0)
    return _read_only(factors), _read_only(values[:, None] + offsets)


def output_tilts(unit_factors: np.ndarray, sharp: float) -> OutputTilt:
    """The ``OutputTilt`` at sharpness ``sharp`` of each output cylinder,
    from their (c, n, 2) unit log factors (``cylinders``), in one batch,
    stacked: the factors are the unit ones times ``sharp``, -sharp and 0
    exactly, and each table is summed from them, since a unit table times
    ``sharp`` could differ in the last bit."""
    lf = _read_only(unit_factors * sharp)
    return OutputTilt(lf, _log_values_of(lf))


class StarTilt(NamedTuple):
    """What a fill of one star on k inputs reads that does not depend on
    the state, all arrays read-only: its ``members``, the center and then
    the center plus 2^b for each of its ``free_bits`` b (ascending), on
    which the center is 0; and the (k, 2) log factors at sharpness 1
    (``cylinder_factors``) and ``inputs`` of its input cylinder, which fixes
    every other bit to the center's.  ``star_tilts`` builds them."""

    members: np.ndarray
    free_bits: np.ndarray
    cylinder_factors: np.ndarray
    inputs: np.ndarray

    def take(self, stars: np.ndarray | slice) -> StarTilt:
        """The stars ``stars`` (indices or a slice along the star axis) of
        this stack, read-only."""
        return StarTilt(_read_only(self.members[stars]), self.free_bits,
                        _read_only(self.cylinder_factors[stars]),
                        _read_only(self.inputs[stars]))


def star_tilts(k: int, centers, free_mask: int) -> StarTilt:
    """The ``StarTilt`` of every star ``(c, free_mask)`` on k inputs, c in
    ``centers``, in one broadcast, stacked along a leading star axis (one
    ``free_bits`` for all).  Every star a compile walks has its center 0 on
    its free bits: a packing's centers are a lineage and a tail with the
    free block clear, and a point star has no free bit.  A center with a
    free bit set is refused (ValueError, by ``cylinders``)."""
    factors, inputs = cylinders(k, ((1 << k) - 1) & ~free_mask, centers)
    bits = np.array(set_bits(free_mask), dtype=np.intp)
    members = inputs[:, :1] + np.concatenate(([0], 1 << bits))
    return StarTilt(_read_only(members), _read_only(bits), factors, inputs)


def build_tilted_step(logp: np.ndarray, stars: StarTilt, log_t: np.ndarray,
                      out: OutputTilt, sharpness: float) -> Units:
    """The units filling S stars, one per star of the stack, in order, each
    toward its own output component.

    ``stars`` are S stars on the k inputs, stacked (``star_tilts``; a star
    filled toward several components appears once per component): each
    one's input cylinder fixes the bits outside its free mask to its
    center's.  ``out`` holds the output tilts, already sharpened: one for
    every unit, or a stack of S, unit s's toward its own component.
    ``log_t`` ((S, r), in the order of ``stars.members``) holds each
    member's odds of the mass its unit moves to the component against the
    mass it leaves: the ``log_odds`` log T of a fill toward one component,
    or log(q_t / q_0) (``log_mass_ratios``) for a star's units toward all
    its components at once, which together make q_0 p + sum_t q_t
    tilt_t(p) of each member row p while the components' tilts stay
    disjoint.  Each unit is solved from its own member rows of the state
    ``logp`` ((2^k, 2^n), indexed [x, y]), so that the realized weights
    are exact; only the component's off-region dust is approximate.  Its
    input weights are its cylinder's odds at ``sharpness``, with each free
    bit's set to the odds log T(x) + L(x) - G(x) of the member x that flips
    it against the center's, and its bias is log T(a) - G(a) + L(a) + log
    S0 at the center a (where log s_X is 0).
    """
    if np.shape(log_t) != stars.members.shape:
        raise ShapeMismatch("log-odds must cover exactly the star members")
    # G, the member rows' log masses tilted toward the component; each
    # row's untilted log mass L is -k log 2, the state's
    k = len(logp).bit_length() - 1
    excess = (log_t - k * LOG2 - logsumexp(
        logp[stars.members] + out.log_sy[..., None, :], axis=-1))
    factors = stars.cylinder_factors * sharpness
    w_in = factors[..., 1] - factors[..., 0]
    w_in[:, stars.free_bits] = excess[:, 1:] - excess[:, :1]
    bias = (excess[:, 0] + factors[..., 0].sum(axis=1)
            + out.log_factors[..., 0].sum(axis=-1))
    if not (np.abs(bias) <= BIAS_CAP).all():
        raise DegenerateStep(f"bias beyond magnitude cap in {bias!r}")
    w_out = out.log_factors[..., 1] - out.log_factors[..., 0]
    return Units(w_in, np.broadcast_to(w_out, (len(bias), w_out.shape[-1])),
                 bias)


def make_reset_step(logp: np.ndarray, cylinder_factors: np.ndarray,
                    out: OutputTilt, sharpness: float
                    ) -> tuple[SharingStep, float | np.ndarray]:
    """A step driving the rows of the state ``logp`` ((2^k, 2^n), indexed
    [x, y]) whose inputs lie in a cylinder, its (k, 2) unit log factors
    ``cylinder_factors`` (``cylinders``), toward an output component, with
    its tilt normalizer log N = logsumexp(logp + log s), which
    hidden_unit_from_log takes.  Stacked factors, (c, k, 2), give the
    stack of the c cylinders' steps toward the one component, with their
    c normalizers, each taken on ``logp``: reduced a chunk of cylinders at
    a time, each chunk's tilted states at most max(2^k 2^n, _BLOCK_CELLS)
    cells, so a boundary of many cylinders holds no more than one state's
    worth, or one block, at once.

    ``out`` (already sharpened) is the component's output tilt, e.g. -tau
    on the off value of every bit for a point mass.  lam is near 0 and the
    inputs are concentrated on the cylinder by its factors scaled to
    ``sharpness``; rows outside it move by at most eps(sharpness).
    """
    k = len(logp).bit_length() - 1
    shape = np.shape(cylinder_factors)
    if shape[-2:] != (k, 2) or len(shape) > 3:
        raise ShapeMismatch(f"cylinder factors must be (c, {k}, 2) or ({k}, "
                            f"2) for a state of 2^{k} rows, got {shape}")
    lf = np.concatenate((cylinder_factors * sharpness, np.broadcast_to(
        out.log_factors, shape[:-2] + out.log_factors.shape)), axis=-2)
    log_sx = _log_values_of(lf[..., :k, :])
    if len(shape) == 3:
        # a chunk of cylinders at a time, its tilted states at most one
        # state's cells or _BLOCK_CELLS, whichever is more
        chunk = max(_BLOCK_CELLS // logp.size, 1)
        log_norm = np.concatenate([logsumexp(
            logp + log_sx[c:c + chunk, :, None] + out.log_sy, axis=(-2, -1))
            for c in range(0, shape[0], chunk)])
    else:
        log_norm = logsumexp(logp + log_sx[:, None] + out.log_sy)
    lam = float(1.0 / (1.0 + np.exp(min(sharpness / 2.0, 700.0))))
    return SharingStep(k, lam, lf, log_sx, out.log_sy), log_norm
