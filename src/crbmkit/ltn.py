"""Feedforward linear threshold networks and their CRBM embeddings.

A network computes f(x) = hs(W^T hs(V x + c) + b) with the Heaviside step
applied entrywise.  Ties (zero pre-activations) are hard errors rather than
1/2-outputs: the embedding assumes generic parameters, and rejecting ties
keeps determinism checkable.  Weight layout matches the CRBM orientation
(W is m x n, V is m x k).

The embedding scales the first layer by t*alpha and the second by t, with
alpha large enough that the hidden argmax is input-driven for every output
state; t doubles until the evaluated conditional is within eps of the
deterministic table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitspace import state_bits
from .crbm import CrbmParams, eval_conditional, sigmoid
from .distributions import ConditionalTable, tv_row_distance
from .errors import NotGeneric, ScaleCapExceeded, ShapeMismatch, TieEncountered

SCALE_CAP = 2.0 ** 40


@dataclass(frozen=True)
class ThresholdNet:
    """Two-layer threshold network; generic iff no pre-activation is zero."""

    k: int
    m: int
    n: int
    V: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float).reshape(self.m, self.k)
        c = np.asarray(self.c, dtype=float).reshape(self.m)
        W = np.asarray(self.W, dtype=float).reshape(self.m, self.n)
        b = np.asarray(self.b, dtype=float).reshape(self.n)
        for name, a in (("V", V), ("c", c), ("W", W), ("b", b)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, a)
            a.setflags(write=False)


def ltn_eval(net: ThresholdNet, x: int) -> int:
    """y = hs(W^T hs(V x + c) + b) as a state index; ties raise."""
    xv = state_bits(net.k, x)
    pre1 = net.V @ xv + net.c
    if np.any(pre1 == 0):
        raise TieEncountered(1, int(np.flatnonzero(pre1 == 0)[0]))
    z = (pre1 > 0).astype(float)
    pre2 = net.W.T @ z + net.b
    if np.any(pre2 == 0):
        raise TieEncountered(2, int(np.flatnonzero(pre2 == 0)[0]))
    y = (pre2 > 0).astype(int)
    return int(y @ (1 << np.arange(net.n)))


def ltn_table(net: ThresholdNet) -> ConditionalTable:
    """Deterministic conditional computed by the network."""
    outputs = [ltn_eval(net, x) for x in range(1 << net.k)]
    return ConditionalTable.deterministic(net.k, net.n, outputs)


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
    alpha * |pre1| must dominate the largest |W| row sum."""
    gaps = []
    for xv in state_bits(net.k):
        pre1 = net.V @ xv + net.c
        if np.any(pre1 == 0):
            raise NotGeneric("zero first-layer pre-activation")
        gaps.append(np.abs(pre1).min())
    gap = min(gaps)
    row_norm = float(np.abs(net.W).sum(axis=1).max()) if net.n else 0.0
    return (1.0 + 2.0 * row_norm) / gap


def embed_ltn_in_crbm(net: ThresholdNet, eps: float = 1e-3
                      ) -> tuple[CrbmParams, float]:
    """CRBM parameters (t W, t alpha V, t b, t alpha c) approximating the
    network's deterministic conditional within per-row TV eps; returns the
    accepted scale t."""
    try:
        target = ltn_table(net)
    except TieEncountered as exc:
        raise NotGeneric(f"tie at layer {exc.layer}, unit {exc.unit}") from exc
    alpha = _alpha_for(net)
    t = 1.0
    while t <= SCALE_CAP:
        params = CrbmParams(net.k, net.n, net.m,
                            t * net.W, t * alpha * net.V,
                            t * net.b, t * alpha * net.c)
        if tv_row_distance(eval_conditional(params), target) <= eps:
            return params, t
        t *= 2.0
    raise ScaleCapExceeded(f"scale cap {SCALE_CAP} reached before eps = {eps}")


def sigmoid_output_table(net: ThresholdNet) -> ConditionalTable:
    """Feedforward law with a sigmoid output layer: given z* = hs(Vx + c),
    outputs are independent Bernoullis with success sigma((W^T z* + b)_j)."""
    rows = np.empty((1 << net.k, 1 << net.n))
    Y = state_bits(net.n)
    for x, xv in enumerate(state_bits(net.k)):
        pre1 = net.V @ xv + net.c
        if np.any(pre1 == 0):
            raise NotGeneric("zero first-layer pre-activation")
        z = (pre1 > 0).astype(float)
        probs = sigmoid(net.W.T @ z + net.b)
        for y, yb in enumerate(Y):
            rows[x, y] = float(np.prod(np.where(yb == 1, probs, 1.0 - probs)))
    return ConditionalTable(net.k, net.n, rows)


def embed_sigmoid_output(net: ThresholdNet, eps: float = 1e-3) -> CrbmParams:
    """CRBM matching the threshold-hidden / sigmoid-output feedforward law.

    Only the first layer is scaled (t alpha); output-layer weights stay
    finite so the conditional given the winning hidden state is the product
    of logistic Bernoullis.
    """
    target = sigmoid_output_table(net)
    alpha = _alpha_for(net)
    t = 1.0
    while t <= SCALE_CAP:
        params = CrbmParams(net.k, net.n, net.m,
                            net.W, t * alpha * net.V,
                            net.b, t * alpha * net.c)
        if tv_row_distance(eval_conditional(params), target) <= eps:
            return params
        t *= 2.0
    raise ScaleCapExceeded(f"scale cap {SCALE_CAP} reached before eps = {eps}")


def check_deter_fixed_point(params: CrbmParams, outputs: list[int]) -> bool:
    """Necessary condition for a deterministic table to be approximable:
    f(x) = hs(W^T hs(W f(x) + V x + c) + b) for every input; any tie makes
    the condition fail."""
    if len(outputs) != 1 << params.k:
        raise ShapeMismatch("need one output state per input state")
    for x, xv in enumerate(state_bits(params.k)):
        fx = state_bits(params.n, outputs[x])
        pre1 = params.W @ fx + params.V @ xv + params.c
        if np.any(pre1 == 0):
            return False
        z = (pre1 > 0).astype(float)
        pre2 = params.W.T @ z + params.b
        if np.any(pre2 == 0):
            return False
        y = int((pre2 > 0).astype(int) @ (1 << np.arange(params.n)))
        if y != outputs[x]:
            return False
    return True
