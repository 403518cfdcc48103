"""Feedforward linear threshold networks and their CRBM embeddings.

A network computes f(x) = hs(W^T hs(V x + c) + b) with the Heaviside step
applied entrywise.  Ties (zero pre-activations) are hard errors rather than
1/2-outputs: the embedding assumes generic parameters, and rejecting ties
keeps determinism checkable.  Weight layout matches the CRBM orientation
(W is m x n, V is m x k).  Every table is built in one pass over all 2^k
inputs: the first layer is the (2^k, m) product of the input bit table with
V^T, and the second layer reads its rows.

The embedding scales the first layer by t*alpha and the second by t, with
alpha large enough that the hidden argmax is input-driven for every output
state; t doubles until the evaluated conditional is within eps of the
deterministic table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bitspace import state_bits
from .crbm import CrbmParams, eval_conditional, sigmoid
from .distributions import (ConditionalTable, _check_eps, _check_outputs,
                            tv_row_distance)
from .errors import (NotGeneric, ScaleCapExceeded, ShapeMismatch,
                     TieEncountered)

SCALE_CAP = 2.0 ** 40


@dataclass(frozen=True)
class ThresholdNet:
    """Two-layer threshold network; generic iff no pre-activation is zero.

    V (m x k), c (m), W (m x n) and b (n) must have exactly these shapes
    (ShapeMismatch otherwise); the net holds read-only copies of them."""

    k: int
    m: int
    n: int
    V: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        k, m, n = self.k, self.m, self.n
        for name, shape in (("V", (m, k)), ("c", (m,)), ("W", (m, n)),
                            ("b", (n,))):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ShapeMismatch(f"{name} must have shape {shape}, got "
                                    f"{a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, a)
            a.setflags(write=False)


def _first_layer(net: ThresholdNet) -> np.ndarray:
    """Pre-activations V x + c of every input x, ascending: (2^k, m)."""
    return state_bits(net.k) @ net.V.T + net.c


def _outputs(pre2: np.ndarray) -> np.ndarray:
    """Output state index of each row of second-layer pre-activations."""
    return (pre2 > 0) @ (1 << np.arange(pre2.shape[1]))


def ltn_table(net: ThresholdNet) -> ConditionalTable:
    """Deterministic conditional computed by the network.

    Every input is evaluated in one pass.  A zero pre-activation raises
    TieEncountered for the smallest input with any tie: its first tied
    hidden unit if it has one, else its first tied output unit.
    """
    pre1 = _first_layer(net)
    pre2 = (pre1 > 0) @ net.W + net.b
    ties1, ties2 = pre1 == 0, pre2 == 0
    tied = np.flatnonzero(ties1.any(axis=1) | ties2.any(axis=1))
    if tied.size:
        x = tied[0]
        layer, ties = (1, ties1[x]) if ties1[x].any() else (2, ties2[x])
        raise TieEncountered(layer, int(np.flatnonzero(ties)[0]))
    return ConditionalTable.deterministic(net.k, net.n, _outputs(pre2))


def parity_net(k: int) -> ThresholdNet:
    """m = k unit-count network computing the parity of the inputs.

    Hidden unit i fires iff sum(x) >= i (row of 2s, bias -(2i-1)); the output
    weights alternate in sign with doubling magnitude so the partial sums
    flip sign with each additional active unit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    V = 2.0 * np.ones((k, k))
    c = -np.array([2.0 * i - 1.0 for i in range(1, k + 1)])
    W = np.array([[(-1.0) ** (i + 1) * 2.0 ** i] for i in range(1, k + 1)])
    b = np.array([-1.0])
    return ThresholdNet(k, k, 1, V, c, W, b)


def _alpha_for(net: ThresholdNet) -> float:
    """Scale making the hidden argmax ignore the output contribution:
    alpha * |pre1| must dominate the largest |W| row sum.  A net with no
    hidden unit has no argmax to protect: its alpha is 0."""
    pre1 = _first_layer(net)
    if np.any(pre1 == 0):
        raise NotGeneric("zero first-layer pre-activation")
    gap = np.abs(pre1).min(initial=np.inf)
    row_norm = float(np.abs(net.W).sum(axis=1).max(initial=0.0))
    return (1.0 + 2.0 * row_norm) / gap


def _first_scale_within(params_at: Callable[[float], CrbmParams],
                        target: ConditionalTable, eps: float
                        ) -> tuple[CrbmParams, float]:
    """The parameters ``params_at(t)`` at the first scale t = 1, 2, 4, ...,
    SCALE_CAP whose conditional is within per-row TV eps of ``target``, and
    that t."""
    t = 1.0
    while t <= SCALE_CAP:
        params = params_at(t)
        if tv_row_distance(eval_conditional(params), target) <= eps:
            return params, t
        t *= 2.0
    raise ScaleCapExceeded(f"scale cap {SCALE_CAP} reached before eps = {eps}")


def embed_ltn_in_crbm(net: ThresholdNet, eps: float = 1e-3
                      ) -> tuple[CrbmParams, float]:
    """CRBM parameters (t W, t alpha V, t b, t alpha c) approximating the
    network's deterministic conditional within per-row TV eps; returns the
    accepted scale t."""
    _check_eps(eps)
    try:
        target = ltn_table(net)
    except TieEncountered as exc:
        raise NotGeneric(f"tie at layer {exc.layer}, unit {exc.unit}") from exc
    alpha = _alpha_for(net)
    return _first_scale_within(
        lambda t: CrbmParams(net.k, net.n, net.m, t * net.W, t * alpha * net.V,
                             t * net.b, t * alpha * net.c), target, eps)


def sigmoid_output_table(net: ThresholdNet) -> ConditionalTable:
    """Feedforward law with a sigmoid output layer: given z* = hs(Vx + c),
    outputs are independent Bernoullis with success sigma((W^T z* + b)_j)."""
    pre1 = _first_layer(net)
    if np.any(pre1 == 0):
        raise NotGeneric("zero first-layer pre-activation")
    probs = sigmoid((pre1 > 0) @ net.W + net.b)[:, None, :]   # [x, 1, j]
    on = state_bits(net.n)[None, :, :] == 1                    # [1, y, j]
    return ConditionalTable(net.k, net.n,
                            np.where(on, probs, 1.0 - probs).prod(axis=2))


def embed_sigmoid_output(net: ThresholdNet, eps: float = 1e-3) -> CrbmParams:
    """CRBM matching the threshold-hidden / sigmoid-output feedforward law.

    Only the first layer is scaled (t alpha); output-layer weights stay
    finite so the conditional given the winning hidden state is the product
    of logistic Bernoullis.
    """
    _check_eps(eps)
    target = sigmoid_output_table(net)
    alpha = _alpha_for(net)
    params, _ = _first_scale_within(
        lambda t: CrbmParams(net.k, net.n, net.m, net.W, t * alpha * net.V,
                             net.b, t * alpha * net.c), target, eps)
    return params


def check_deter_fixed_point(params: CrbmParams, outputs: list[int]) -> bool:
    """Necessary condition for a deterministic table to be approximable:
    f(x) = hs(W^T hs(W f(x) + V x + c) + b) for every input; any tie makes
    the condition fail.  ``outputs`` are checked as
    ``ConditionalTable.deterministic`` checks them."""
    outputs = _check_outputs(params.k, params.n, outputs)
    pre1 = (state_bits(params.n, outputs) @ params.W.T
            + state_bits(params.k) @ params.V.T + params.c)
    if np.any(pre1 == 0):
        return False
    pre2 = (pre1 > 0) @ params.W + params.b
    if np.any(pre2 == 0):
        return False
    return bool(np.array_equal(_outputs(pre2), outputs))
