"""Sharing-step algebra on the conditional: p -> lam*p + (1-lam)*(p * s).

A step maps a conditional state to a conditional state.  The state, that
of the compile pipeline, is a (2^k, 2^n) array of log p(y | x) - k log 2
indexed [x, y]: the joint with the conditional p(y|x) and a uniform input
marginal, of mass 1.  Its tilt is a product over the coordinates,
s(x, y) = s_X(x) s_Y(y), stored by its per-coordinate *log* factor pairs;
concentrated steps put -tau on the off-region value of a coordinate, so
arbitrary sharpness never leaves the log domain.  The factor normalization
is irrelevant: it cancels in the step's effect and in the hidden-unit
realization, so factors are kept unnormalized.  A step knows its k and
holds two tables, log s_X over the 2^k inputs and log s_Y over the 2^n
outputs; the tilt is applied by broadcasting them, so no table over all
2^(k+n) states is built.  The output half of a tilt, its factors and log
s_Y, is an ``OutputTilt``; ``output_tilts`` builds those of many output
cylinders at one sharpness in one batch, which a compile passes to every
step toward them.

Every step is one appended hidden unit, as in the paper: one unit
multiplies every row p(. | x) by a factor over the inputs times a factor
over the outputs.  With odds w_i = log s_i(1) - log s_i(0) and
S0 = prod_i s_i(0), appending a unit with weights w (inputs first) and bias
log((1-lam) S0 / (lam N)), N = sum_{x,y} p(x, y) s(x, y), multiplies p(y|x)
by a positive multiple of lam + (1-lam) s(x, y)/N, which is exactly the
step.  A unit's effect on the conditional does not depend on an input
marginal, so apply_sharing_log conditions the stepped joint on its inputs
again (``conditioned``) and returns the unit's conditional, a state and its
rows.  Only 0 < lam < 1 has a finite bias, and a ``SharingStep`` holds no
other lam: fills clamp theirs to [1e-300, 1 - 1e-16], and a reset's is
1/(1 + e^min(sharp/2, 700)).  ``verify`` tests this contract against
``crbm.eval_conditional`` of the grown model.

Each step kind has one builder: build_tilted_step (a star fill, exact
mixture weights on the star's rows) and make_reset_step (a cylinder reset).
Both scale a cylinder's planned unit factors to the trial's sharpness and
end in one tilting tail (``_tilted``).  The one cylinder builder,
``cylinders``, gives the unit factors and members of many cylinders of one
fixed mask in one broadcast.  A fill reads everything about its star that
the state does not move from a ``StarTilt`` (``star_tilts``, one broadcast
per free mask): the members, center first, the free bits their flips set,
and the cylinder's unit factors and inputs.  A fill takes its mixture
weights with their clamped log-odds (``log_odds``), which a caller that
steps one target many times computes once.  apply_sharing_log is the one
way to apply a step and hidden_unit_from_log the one way to realize it.
Sequencing, sharpening and accepting steps is the compiler's job.

The tilted state log p + log s and its normalizer log N = logsumexp(log p
+ log s), a reduction over the whole state, are each computed once per step:
both builders return them with the step, apply_sharing_log takes them (or
computes them, for a step made by hand) and returns the normalizer, and
hidden_unit_from_log takes it for the bias.  The state has mass 1, so
neither the bias nor the conditioning reduces the whole state again.  Every
log-sum-exp is one max-shift reduction, the max plus the log of the sum of
exp(entries - max), over the tilted state (``logsumexp``) or per row
(``conditioned``); a non-finite normalizer is refused (DegenerateStep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bitspace import cylinder_members, set_bits
from .errors import DegenerateStep, InfeasibleProfile, ShapeMismatch

#: |log T| clamp for degenerate mixture weights (beta -> 0 or 1)
LOG_T_CAP = 5e4
#: hidden-unit bias magnitude cap
BIAS_CAP = 1e7
LOG2 = math.log(2.0)


def logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) over ``axis``: all entries for None, giving a float,
    or each row of a 2-D ``a`` for 1.  The max (per row) plus the log of the
    sum of exp(a - max), the reduction the pipeline normalizes its rows
    with; the max must be finite."""
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
    read-only."""

    log_factors: np.ndarray
    log_sy: np.ndarray


@dataclass(frozen=True)
class SharingStep:
    """One sharing step on k inputs: weight 0 < lam < 1 and product-tilt log
    factors, the k input coordinates first, then the outputs.

    ``log_sx`` (2^k) and ``log_sy`` (2^n) are the tilt's input and output
    log tables, read-only.  A builder that already holds one passes it in,
    and it must be the table of the matching factors; a table not passed is
    built on construction.
    """

    k: int
    lam: float
    log_factors: np.ndarray = field(repr=False)  # (k + n, 2): log s_i(0), log s_i(1)
    log_sx: np.ndarray | None = field(default=None, repr=False, compare=False)
    log_sy: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        lf = np.asarray(self.log_factors, dtype=float)
        if lf.ndim != 2 or lf.shape[1] != 2 or not 0 <= self.k <= len(lf):
            raise ShapeMismatch(
                f"log_factors must be (k + n, 2) with k = {self.k}, "
                f"got shape {lf.shape}")
        if not np.isfinite(lf).all():
            raise ValueError("non-finite log factors")
        if not 0.0 < self.lam < 1.0:
            raise DegenerateStep(f"lambda {self.lam!r} is outside (0, 1): "
                                 "no finite hidden unit realizes it")
        lf.setflags(write=False)
        object.__setattr__(self, "log_factors", lf)
        for name, part in (("log_sx", lf[:self.k]), ("log_sy", lf[self.k:])):
            table = getattr(self, name)
            if table is None:
                table = _log_values_of(part)
            elif table.shape != (1 << len(part),):
                raise ShapeMismatch(
                    f"{name} must have {1 << len(part)} entries, "
                    f"got shape {table.shape}")
            object.__setattr__(self, name, table)


def _tilted(logp: np.ndarray, log_sx: np.ndarray,
            log_sy: np.ndarray) -> tuple[np.ndarray, float]:
    """log p + log s on the [x, y] state, the tilt broadcast from its input
    and output tables, and its normalizer logsumexp(log p + log s): the
    tail of both builders."""
    tilted = logp + log_sx[:, None] + log_sy
    return tilted, logsumexp(tilted)


def conditioned(logp: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pipeline state of the (2^k, 2^n) log joint ``logp`` and its rows,
    both indexed [x, y].

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


def apply_sharing_log(logp: np.ndarray, step: SharingStep,
                      tilted: np.ndarray | None = None,
                      log_norm: float | None = None
                      ) -> tuple[np.ndarray, np.ndarray, float]:
    """Apply a step to a (2^k, 2^n) state indexed [x, y] (``conditioned``).

    Returns the conditional the step's hidden unit makes, the stepped joint
    conditioned on its inputs again, as a state and its read-only rows, and
    the tilt normalizer log N = logsumexp(logp + log s) that the unit's bias
    takes.  The tilted state logp + log s and its normalizer are computed
    here unless the caller passes both (the builders return them).
    """
    if tilted is None:
        tilted, log_norm = _tilted(logp, step.log_sx, step.log_sy)
    if not math.isfinite(log_norm):
        raise DegenerateStep("tilt normalizer vanished")
    lam = step.lam
    stepped = np.logaddexp(np.log(lam) + logp,
                           np.log1p(-lam) + tilted - log_norm)
    return *conditioned(stepped, step.k), log_norm


def hidden_unit_from_log(step: SharingStep, log_norm: float
                         ) -> tuple[np.ndarray, float]:
    """Weights (k inputs first, then the outputs) and bias of the hidden
    unit realizing ``step`` on a state of mass 1.

    The bias takes the step's tilt normalizer on that state, ``log_norm``,
    as build_tilted_step or apply_sharing_log returned it.  Appending the
    unit to a CRBM whose conditional is the state's gives the conditional
    apply_sharing_log returns.
    """
    w = step.log_factors[:, 1] - step.log_factors[:, 0]
    log_s0 = float(step.log_factors[:, 0].sum())
    log_n = float(log_norm)
    if not math.isfinite(log_n):
        raise DegenerateStep("tilt normalizer vanished")
    lam = step.lam
    bias = float(np.log1p(-lam) - np.log(lam) + log_s0 - log_n)
    if not math.isfinite(bias) or abs(bias) > BIAS_CAP:
        raise DegenerateStep(f"bias {bias!r} beyond magnitude cap")
    return w, bias


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


def output_tilts(unit_factors: np.ndarray, sharp: float
                 ) -> tuple[OutputTilt, ...]:
    """The ``OutputTilt`` at sharpness ``sharp`` of each output cylinder,
    from their (c, n, 2) unit log factors (``cylinders``), in one batch:
    the factors are the unit ones times ``sharp``, -sharp and 0 exactly,
    and each table is summed from them, since a unit table times ``sharp``
    could differ in the last bit."""
    lf = _read_only(unit_factors * sharp)
    return tuple(map(OutputTilt, lf, _log_values_of(lf)))


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


def build_tilted_step(
    logp: np.ndarray,
    star: StarTilt,
    betas: np.ndarray,
    log_t: np.ndarray,
    out: OutputTilt,
    sharpness: float,
) -> tuple[SharingStep, np.ndarray, float]:
    """Concentrated step hitting exact mixture weights on a star's rows.

    The star is ``star`` on the k inputs: its input cylinder fixes the bits
    outside its free mask to the center's.  ``betas`` holds each member's
    required weight toward the output component whose tilt, already
    sharpened, is ``out``, and ``log_t`` their ``log_odds``, both in the
    order of ``star.members``.  The within-star odds are solved against the
    current state ``logp`` ((2^k, 2^n), indexed [x, y]) so the realized
    weights are exact; only the component's off-region dust is
    approximate.  The input factors are the star's cylinder factors scaled
    to ``sharpness``, with each free bit's on value set to the solved odds
    of the member that flips it against the center's.

    Returns the step, its tilted state logp + log s and its tilt
    normalizer logsumexp(logp + log s), which the step's lambda needs; pass
    both on to apply_sharing_log.
    """
    if np.shape(betas) != star.members.shape \
            or np.shape(log_t) != star.members.shape:
        raise ShapeMismatch("betas must cover exactly the star members")
    k = len(star.cylinder_factors)

    log_sy = out.log_sy
    # the member rows; L and G are their log masses untilted and tilted
    # toward the component
    rows = logp[star.members]
    big_l, big_g = logsumexp(np.concatenate([rows, rows + log_sy]),
                             axis=1).reshape(2, -1)
    # log T(x) + L(x) - G(x): the required log s_X(x) up to a constant
    excess = log_t + big_l - big_g

    lf = np.concatenate((star.cylinder_factors * sharpness, out.log_factors))
    lf[star.free_bits, 1] = excess[1:] - excess[0]

    # Solve lambda at an interior anchor row a (its beta farthest from 0/1,
    # the first such member, where log T is never clamped): the pull of row
    # a is u = (1-lam) M(a) with log M(a) = log s_X(a) + log<p(.|a), s_Y> -
    # log N, and beta = u/(lam+u) requires lam T(a) = (1-lam) M(a).  Rows
    # whose log T was clamped err only toward the saturated value they
    # asked for.
    log_sx = _log_values_of(lf[:k])
    tilted, log_norm = _tilted(logp, log_sx, log_sy)
    a = int(np.minimum(betas, 1.0 - betas).argmax())
    log_m = float(log_sx[star.members[a]] + big_g[a] - big_l[a] - log_norm)
    log_t_a = log_t[a]
    lam = float(1.0 / (1.0 + np.exp(min(max(log_t_a - log_m, -700.0), 700.0))))
    lam = min(max(lam, 1e-300), 1.0 - 1e-16)
    return SharingStep(k, lam, lf, log_sx, log_sy), tilted, log_norm


def make_reset_step(logp: np.ndarray, cylinder_factors: np.ndarray,
                    out: OutputTilt, sharpness: float
                    ) -> tuple[SharingStep, np.ndarray, float]:
    """A step driving the rows of the state ``logp`` ((2^k, 2^n), indexed
    [x, y]) whose inputs lie in a cylinder, its (k, 2) unit log factors
    ``cylinder_factors`` (``cylinders``), toward an output component, with
    its tilted state and tilt normalizer, as build_tilted_step returns them.

    ``out`` (already sharpened) is the component's output tilt, e.g. -tau
    on the off value of every bit for a point mass.  lam is near 0 and the
    inputs are concentrated on the cylinder by its factors scaled to
    ``sharpness``; rows outside it move by at most eps(sharpness).
    """
    k = len(logp).bit_length() - 1
    if np.shape(cylinder_factors) != (k, 2):
        raise ShapeMismatch(f"cylinder factors must be ({k}, 2) for a state "
                            f"of 2^{k} rows, got {np.shape(cylinder_factors)}")
    lf = np.concatenate((cylinder_factors * sharpness, out.log_factors))
    log_sx = _log_values_of(lf[:k])
    tilted, log_norm = _tilted(logp, log_sx, out.log_sy)
    lam = float(1.0 / (1.0 + np.exp(min(sharpness / 2.0, 700.0))))
    return SharingStep(k, lam, lf, log_sx, out.log_sy), tilted, log_norm
