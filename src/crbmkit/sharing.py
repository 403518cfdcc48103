"""Sharing-step algebra: p -> lam*p + (1-lam)*(p * s) for product tilts s.

A step is stored by its per-coordinate *log* factor pairs; concentrated steps
put -tau on the off-region value of a coordinate, so arbitrary sharpness never
leaves the log domain.  The factor normalization is irrelevant: it cancels in
the step's effect and in the hidden-unit realization, so factors are kept
unnormalized.

Every step is realizable as one appended hidden unit.  With odds
w_i = log s_i(1) - log s_i(0) and S0 = prod_i s_i(0), appending a unit with
visible weights w and bias log((1-lam) S0 / (lam N)), N = sum_v p(v) s(v),
multiplies p entrywise by a positive multiple of lam + (1-lam) s(v)/N, which
is exactly the step.  step_to_hidden_unit verifies nothing by formula; the
evaluation contract is tested.

Two builders make the concentrated steps of the construction, one per step
kind: build_tilted_step (a star fill, exact mixture weights on the star's
rows) and make_reset_step (a cylinder reset).  Both concentrate the inputs
on a cylinder the same way.  Sequencing, sharpening and accepting steps is
the compiler's job (compiler._Pipeline).

The tilt normalizer log N = logsumexp(log p + log s) is a reduction over the
whole joint, and each one is computed once: build_tilted_step needs it for
lambda and returns it, apply_sharing_log takes it (or computes it, for a
reset) and returns it, and hidden_unit_from_log takes it for the bias.  A
joint of mass 1 stays of mass 1 under a step, so neither the step nor the
bias reduces the joint again.

The log-sum-exp used by the step functions is the module's own
``logsumexp``: it repeats scipy.special.logsumexp's real-input arithmetic
operation for operation, so results are bit-identical, without scipy's
per-call array-API dispatch, which dominated compile time on the small
arrays of the step pipeline.  Full-joint (1-D) reductions with a finite max,
and row (2-D, axis 1) reductions whose row maxima are finite, skip the
guards only non-finite input needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitspace import set_bits, star_cylinder
from .distributions import Dist
from .errors import (
    DegenerateStep,
    InfeasibleProfile,
    LambdaZero,
    ShapeMismatch,
)

#: |log T| clamp for degenerate mixture weights (beta -> 0 or 1)
LOG_T_CAP = 5e4
#: hidden-unit bias magnitude cap
BIAS_CAP = 1e7


def logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) over ``axis`` (all entries for None, giving a scalar).

    The arithmetic of scipy.special.logsumexp for real input: the entries
    equal to the max are counted and left out of the shifted sum, the result
    is log1p(s / count) + log(count) + max, and a non-finite result falls
    back to log(sum(exp(a))), so an all -inf input gives -inf.

    A 1-D input with a finite max, the full-joint reduction of the step
    pipeline, takes the same operations on scalars, and a 2-D input reduced
    over its rows (axis 1) whose row maxima are all finite, the row
    reductions of ``build_tilted_step``, takes them on one max per row: the
    results are finite, so they need no kept axes and no fallback.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if axis is None and a.ndim == 1:
            a_max = a.max()
            if math.isfinite(a_max):
                at_max = a == a_max
                count = float(np.count_nonzero(at_max))
                shifted = np.exp(a - a_max)
                shifted[at_max] = 0.0
                return np.log1p(shifted.sum() / count) + np.log(count) + a_max
        if a.ndim == 2 and axis == 1:
            a_max = a.max(axis=1)
            if np.isfinite(a_max).all():
                shift = a_max[:, None]
                at_max = a == shift
                count = at_max.sum(axis=1, dtype=float)
                shifted = np.exp(a - shift)
                np.putmask(shifted, at_max, 0.0)
                return (np.log1p(shifted.sum(axis=1) / count) + np.log(count)
                        + a_max)
        axes = tuple(range(a.ndim)) if axis is None else axis
        a_max = a.max(axis=axes, keepdims=True)
        at_max = a == a_max
        count = at_max.sum(axis=axes, keepdims=True, dtype=float)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(
            axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / count)
        out = np.log1p(s) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.exp(a).sum(axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def _log_values_of(log_factors: np.ndarray) -> np.ndarray:
    """log s(v) over all 2^width states of (width, 2) log factors, read-only.

    Built by doubling, coordinate 0 first: the states with bit i set extend
    those below 2^i by log s_i(1), the others by log s_i(0).  So each value
    is summed from 0 over coordinates 0, 1, ..., width-1 in that order, the
    float a per-state loop over the factors gives.
    """
    out = np.zeros(1 << len(log_factors))
    for i, (off, on) in enumerate(log_factors):
        low, high = out[:1 << i], out[1 << i:2 << i]
        np.add(low, on, out=high)
        low += off
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SharingStep:
    """One sharing step: mixture weight lam and product-tilt log factors."""

    width: int
    lam: float
    log_factors: np.ndarray = field(repr=False)  # (width, 2): log s_i(0), log s_i(1)
    _log_values: np.ndarray | None = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        lf = np.asarray(self.log_factors, dtype=float)
        if lf.shape != (self.width, 2):
            raise ShapeMismatch(f"log_factors must be ({self.width}, 2)")
        if not np.all(np.isfinite(lf)):
            raise ValueError("non-finite log factors")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        object.__setattr__(self, "log_factors", lf)
        lf.setflags(write=False)

    @property
    def factors(self) -> np.ndarray:
        """Per-coordinate positive factor pairs (may underflow for display)."""
        return np.exp(self.log_factors)

    def log_values(self) -> np.ndarray:
        """log s(v) over all 2^width states, computed once and read-only."""
        if self._log_values is None:
            object.__setattr__(self, "_log_values", _log_values_of(self.log_factors))
        return self._log_values

    def to_json_obj(self) -> dict:
        return {"width": self.width, "lam": self.lam,
                "log_factors": self.log_factors.tolist()}


def apply_sharing_log(logp: np.ndarray, step: SharingStep,
                      log_norm: float | None = None
                      ) -> tuple[np.ndarray, float]:
    """Apply a step to a log joint of mass 1.

    Returns the stepped log joint, again of mass 1 (up to rounding; it is
    not renormalized), and the tilt normalizer
    log N = logsumexp(logp + log s), which is computed here unless the
    caller passes the one it already has (build_tilted_step returns it).
    """
    log_s = step.log_values()
    if log_norm is None:
        log_norm = logsumexp(logp + log_s)
    if not np.isfinite(log_norm):
        raise DegenerateStep("tilt normalizer vanished")
    if step.lam >= 1.0:
        out = logp.copy()
    elif step.lam <= 0.0:
        out = logp + log_s - log_norm
    else:
        out = np.logaddexp(np.log(step.lam) + logp,
                           np.log1p(-step.lam) + logp + log_s - log_norm)
    return out, log_norm


def apply_sharing(p: Dist, step: SharingStep) -> Dist:
    """lam*p + (1-lam)*hadamard(p, s), computed in the log domain."""
    if p.width != step.width:
        raise ShapeMismatch("distribution and step widths differ")
    with np.errstate(divide="ignore"):
        logp = np.log(p.probs)
    out, _ = apply_sharing_log(logp, step)
    probs = np.exp(out)
    return Dist(p.width, probs / probs.sum())


def hidden_unit_from_log(logp: np.ndarray, step: SharingStep,
                         log_norm: float | None = None
                         ) -> tuple[np.ndarray, float]:
    """Log-domain core of step_to_hidden_unit; logp need not be normalized.

    The bias needs the tilt normalizer of logp scaled to mass 1,
    log N = logsumexp(logp + log s) - logsumexp(logp), which is computed
    here unless the caller passes it as ``log_norm``: a caller whose joint
    has mass 1 already has it from build_tilted_step or apply_sharing_log,
    and logp is then not reduced at all.
    """
    if step.lam <= 0.0:
        raise LambdaZero("lambda = 0 needs an infinite bias; use lambda in (0, 1]")
    w = step.log_factors[:, 1] - step.log_factors[:, 0]
    log_s0 = float(step.log_factors[:, 0].sum())
    if log_norm is None:
        log_norm = logsumexp(logp + step.log_values()) - logsumexp(logp)
    log_n = float(log_norm)
    if not np.isfinite(log_n):
        raise DegenerateStep("tilt normalizer vanished")
    with np.errstate(divide="ignore"):
        bias = float(np.log1p(-step.lam) - np.log(step.lam) + log_s0 - log_n)
    if not np.isfinite(bias) or abs(bias) > BIAS_CAP:
        raise DegenerateStep(f"bias {bias!r} beyond magnitude cap")
    return w, bias


def step_to_hidden_unit(p_current: Dist, step: SharingStep) -> tuple[np.ndarray, float]:
    """Visible weights and bias of the single hidden unit realizing the step.

    Appending the unit to an RBM currently representing ``p_current`` yields
    exactly apply_sharing(p_current, step).
    """
    if p_current.width != step.width:
        raise ShapeMismatch("distribution and step widths differ")
    with np.errstate(divide="ignore"):
        logp = np.log(p_current.probs)
    return hidden_unit_from_log(logp, step)


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
    return np.clip(betas, 0.0, 1.0)


def _clamped_log_t(beta: float) -> float:
    """log(beta / (1 - beta)) clamped so parameters stay finite."""
    if beta <= 0.0:
        return -LOG_T_CAP
    if beta >= 1.0:
        return LOG_T_CAP
    return float(min(max(np.log(beta) - np.log1p(-beta), -LOG_T_CAP), LOG_T_CAP))


def _input_cylinder_factors(k: int, fixed_mask: int, fixed_values: int,
                            out_log_factors: np.ndarray,
                            sharp: float) -> np.ndarray:
    """(k + n, 2) log factors: -sharp on the off value of each input bit in
    ``fixed_mask`` (its value in ``fixed_values``), the other input bits
    flat, then ``out_log_factors``."""
    lf = np.zeros((k + len(out_log_factors), 2))
    for i in set_bits(fixed_mask):
        lf[i, 1 - ((fixed_values >> i) & 1)] = -sharp
    lf[k:, :] = out_log_factors
    return lf


def build_tilted_step(
    logp: np.ndarray,
    k: int,
    n: int,
    free_mask: int,
    center: int,
    betas: dict[int, float],
    out_log_factors: np.ndarray,
    sharpness: float,
) -> tuple[SharingStep, float]:
    """Concentrated step hitting exact mixture weights on a star's rows.

    The star is ``(center, free_mask)`` on the k inputs: its input cylinder
    fixes the bits outside ``free_mask`` to the center's.  ``betas`` maps
    each star member (center plus one flip per free bit) to its required
    weight toward the output component encoded by ``out_log_factors``
    (shape (n, 2), already sharpened).  The
    within-star odds are solved against the current joint so the realized
    weights are exact; only the component's off-region dust is approximate.

    Returns the step and its tilt normalizer logsumexp(logp + log s), which
    the step's lambda needs; pass it on to apply_sharing_log.
    """
    width = k + n
    y_idx = np.arange(1 << n)
    free = set_bits(free_mask)
    members = [center] + [center ^ (1 << i) for i in free]
    if set(betas) != set(members):
        raise ShapeMismatch("betas must cover exactly the star members")

    out_log_s = _log_values_of(out_log_factors)
    # one (members x 2^n) gather, center first: row i holds log p(x_i, .);
    # L and G are the log row masses untilted and tilted toward the component
    rows = logp[np.array(members)[:, None] + (y_idx << k)]
    big_l, big_g = logsumexp(np.concatenate([rows, rows + out_log_s]),
                             axis=1).reshape(2, -1)
    # log T(x) + L(x) - G(x): the required log s_X(x) up to a constant
    log_t = np.array([_clamped_log_t(betas[x]) for x in members])
    excess = log_t + big_l - big_g

    lf = _input_cylinder_factors(k, *star_cylinder(center, free_mask, k),
                                 out_log_factors, sharpness)
    for j, i in enumerate(free, start=1):
        lf[i, 1 - ((center >> i) & 1)] = excess[j] - excess[0]

    # Solve lambda at an interior anchor row a (its beta farthest from 0/1,
    # where log T is never clamped): the pull of row a is u = (1-lam) M(a)
    # with log M(a) = log s_X(a) + log<p(.|a), s_Y> - log N, and
    # beta = u/(lam+u) requires lam T(a) = (1-lam) M(a).  Rows whose log T
    # was clamped err only toward the saturated value they asked for.
    log_s = _log_values_of(lf)
    log_norm = logsumexp(logp + log_s)
    anchor = max(betas, key=lambda x: min(betas[x], 1.0 - betas[x]))
    a = members.index(anchor)
    log_sx_a = log_s[anchor] - out_log_s[0]  # joint state (x=anchor, y=0)
    log_m = float(log_sx_a + big_g[a] - big_l[a] - log_norm)
    log_t_a = log_t[a]
    lam = float(1.0 / (1.0 + np.exp(min(max(log_t_a - log_m, -700.0), 700.0))))
    lam = min(max(lam, 1e-300), 1.0 - 1e-16)
    step = SharingStep(width, lam, lf)
    object.__setattr__(step, "_log_values", log_s)  # the values of lf
    return step, log_norm


def make_reset_step(k: int, fixed_mask: int, fixed_values: int,
                    out_log_factors: np.ndarray, tau: float) -> SharingStep:
    """A step driving all rows whose k inputs lie in the cylinder
    ``(fixed_mask, fixed_values)`` toward an output component.

    ``out_log_factors`` (shape (n, 2), already sharpened) encodes the
    component, e.g. -tau on the off value of every bit for a point mass.
    lam is near 0 and the inputs are concentrated with sharpness tau on the
    cylinder; rows outside it move by at most eps(tau).
    """
    lf = _input_cylinder_factors(k, fixed_mask, fixed_values,
                                 out_log_factors, tau)
    lam = float(1.0 / (1.0 + np.exp(min(tau / 2.0, 700.0))))
    return SharingStep(len(lf), lam, lf)
