"""Exact CRBM evaluation by enumeration, hidden-unit bookkeeping, Jacobians.

A CRBM with k inputs, n outputs, m hidden units assigns

    p(y|x) propto sum_z exp(z^T V x + z^T W y + b^T y + c^T z).

The hidden sum factorizes across units, so every evaluation works in the log
domain with softplus/log-sum-exp; probabilities are exponentiated only at the
final row normalization.  Compiled constructions push weights to +-1e3 and
beyond, which would overflow linear-domain arithmetic.  Each entry point
first checks its cost against ``bitspace.MAX_CELLS``: an evaluation costs
``eval_cells(k, n, m)``, its output and its two factor tables, because the
(2^k, 2^n, m) activations are summed block by block.  The Jacobian and
both of ``dimension``'s ranks read one builder of the log-gradient
differences.

A model's arrays are read-only copies, fixed when it is made.  Hidden units
are added by building a new model, ``append_hidden_unit``, whose rows are
its model's followed by the new units' in one concatenation: a compile
collects the rows of the units a tau level accepts and builds the level's
model with one append.

Joint indexing convention: visible state v = x + 2^k * y (inputs on the low
bits), matching distributions.conditional_of_joint.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .bitspace import check_cells, state_bits
from .distributions import ConditionalTable, Dist
from .errors import ShapeMismatch


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function; exp(-x) overflowing to inf gives exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class CrbmParams:
    """Interaction weights and biases (W: m x n, V: m x k, b: n, c: m).

    The model holds read-only copies of the arrays it is given, so a
    caller's later writes into them do not reach it.  With ``copy=False``
    the caller hands its float arrays over instead: the model makes them
    read-only and holds them, and the caller must not write them again
    (``append_hidden_unit`` and ``from_vector`` hand over the arrays they
    build)."""

    k: int
    n: int
    m: int
    W: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        k, n, m = self.k, self.n, self.m
        for name, shape in (("W", (m, n)), ("V", (m, k)), ("b", (n,)),
                            ("c", (m,))):
            a = np.array(getattr(self, name), dtype=float,
                         copy=True if copy else None)
            if a.shape != shape:
                raise ShapeMismatch(f"{name} must have shape {shape}, got "
                                    f"{a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, a)
            a.setflags(write=False)

    @classmethod
    def from_vector(cls, k: int, n: int, m: int, theta) -> "CrbmParams":
        """The model of theta = (W, V, b, c), W and V row-major: the order
        of ``vector`` and of the Jacobian's columns.  theta is copied once,
        and the model holds views of the copy."""
        theta = np.array(theta, dtype=float)
        if theta.shape != ((k + n + 1) * m + n,):
            raise ShapeMismatch(f"theta of shape {theta.shape} for "
                                f"(k, n, m) = ({k}, {n}, {m})")
        w, v, b = m * n, m * (n + k), m * (n + k) + n
        return cls(k, n, m, theta[:w].reshape(m, n),
                   theta[w:v].reshape(m, k), theta[v:b], theta[b:], copy=False)

    def vector(self) -> np.ndarray:
        """theta = (W, V, b, c), W and V row-major."""
        return np.concatenate((self.W.ravel(), self.V.ravel(), self.b, self.c))

    @staticmethod
    def bias_only(k: int, n: int, b) -> "CrbmParams":
        """The model with output biases ``b`` (copied) and no hidden unit."""
        return CrbmParams(k, n, 0, np.zeros((0, n)), np.zeros((0, k)), b,
                          np.zeros(0))

    @property
    def param_count(self) -> int:
        return (self.k + self.n + 1) * self.m + self.n


#: activations in one block of conditional_logits; every evaluation the
#: benchmark mixes make fits in one block
_BLOCK_CELLS = 1 << 21


def eval_cells(k: int, n: int, m: int) -> int:
    """The price of evaluating a CRBM: its (2^k, 2^n) output plus the factor
    tables X V^T (2^k x m) and Y W^T (2^n x m).  The activations add one
    block of about _BLOCK_CELLS cells on top."""
    return (1 << (k + n)) + ((1 << k) + (1 << n)) * m


def conditional_logits(p: CrbmParams) -> np.ndarray:
    """Unnormalized log p(y|x) as a (2^k, 2^n) array.

    The softplus terms are summed over blocks of input rows, and of output
    columns when one row alone is over _BLOCK_CELLS (a k = 0 joint); each
    cell sums its m terms in the same order whatever the block size."""
    check_cells(eval_cells(p.k, p.n, p.m),
                f"conditional_logits at (k, n, m) = ({p.k}, {p.n}, {p.m})")
    nx, ny, m = 1 << p.k, 1 << p.n, p.m
    Y = state_bits(p.n)
    ax = state_bits(p.k) @ p.V.T                      # (2^k, m)
    ay = Y @ p.W.T                                    # (2^n, m)
    energy = np.tile(Y @ p.b, (nx, 1))
    cols = min(max(_BLOCK_CELLS // max(m, 1), 1), ny)
    rows = min(max(_BLOCK_CELLS // (cols * max(m, 1)), 1), nx)
    buf = np.empty(rows * cols * m)                   # one block, reused
    for x0 in range(0, nx, rows):
        for y0 in range(0, ny, cols):
            bx, by = ax[x0:x0 + rows], ay[y0:y0 + cols]
            act = buf[:len(bx) * len(by) * m].reshape(len(bx), len(by), m)
            np.add(bx[:, None, :], by, out=act)
            act += p.c
            energy[x0:x0 + rows, y0:y0 + cols] += np.logaddexp(
                0.0, act, out=act).sum(axis=2)
    return energy


def eval_conditional(p: CrbmParams) -> ConditionalTable:
    """The full conditional table of the model, rows normalized."""
    energy = conditional_logits(p)
    energy = energy - energy.max(axis=1, keepdims=True)
    rows = np.exp(energy)
    rows /= rows.sum(axis=1, keepdims=True)
    return ConditionalTable(p.k, p.n, rows)


def eval_joint_rbm(p: CrbmParams) -> Dist:
    """Visible distribution of the RBM special case (k = 0)."""
    if p.k != 0:
        raise ShapeMismatch("eval_joint_rbm requires k = 0")
    return Dist(p.n, eval_conditional(p).rows[0])


def append_hidden_unit(p: CrbmParams, w_out, w_in, bias) -> CrbmParams:
    """``p`` with j more hidden units after its own: output weights
    ``w_out`` (j, n), input weights ``w_in`` (j, k) and biases ``bias``
    (j,).  The new model's arrays are new, each built by one concatenation
    and handed over to it, so an append holds each of them once; ``p`` is
    left as it was."""
    w_out = np.asarray(w_out, dtype=float)
    w_in = np.asarray(w_in, dtype=float)
    bias = np.asarray(bias, dtype=float)
    if (bias.ndim != 1 or w_out.shape != (len(bias), p.n)
            or w_in.shape != (len(bias), p.k)):
        raise ShapeMismatch(
            f"hidden units must have shapes (j, {p.n}), (j, {p.k}) and (j,), "
            f"got {w_out.shape}, {w_in.shape} and {bias.shape}")
    return CrbmParams(p.k, p.n, p.m + len(bias), np.concatenate((p.W, w_out)),
                      np.concatenate((p.V, w_in)), p.b.copy(),
                      np.concatenate((p.c, bias)), copy=False)


def _log_grad_diffs(X: np.ndarray, Y: np.ndarray,
                    act: np.ndarray) -> np.ndarray:
    """D(x, y) = g(x, y) - g(x, 0), y >= 1, of g = d log G / d theta at the
    unit activations s = ``act`` (2^k, 2^n, m), the sigmoids or 0/1 ball
    memberships, over the bit tables X and Y; shape (2^k, 2^n - 1, P) in
    ``act``'s dtype: s_j(x,y) y_i, (s_j(x,y) - s_j(x,0)) x_i, y_i and
    s_j(x,y) - s_j(x,0) for W, V, b, c row-major."""
    nx, k = X.shape
    ny, n = Y.shape[0] - 1, Y.shape[1]
    m = act.shape[2]
    w, v, b = m * n, m * (n + k), m * (n + k) + n
    diffs = np.empty((nx, ny, b + m), dtype=act.dtype)
    diffs[:, :, v:b] = Y[1:]
    np.multiply(act[:, 1:, :, None], Y[1:, None, :],
                out=diffs[:, :, :w].reshape(nx, ny, m, n))
    rise = act[:, 1:] - act[:, :1]
    diffs[:, :, b:] = rise
    np.multiply(rise[:, :, :, None], X[:, None, None, :],
                out=diffs[:, :, w:v].reshape(nx, ny, m, k))
    return diffs


def _sigmoid_diffs(p: CrbmParams) -> np.ndarray:
    """The log-gradient differences of ``p``: ``_log_grad_diffs`` at the
    sigmoids s_j(x, y) of its hidden units."""
    X, Y = state_bits(p.k), state_bits(p.n)
    return _log_grad_diffs(X, Y, sigmoid((X @ p.V.T)[:, None, :]
                                         + Y @ p.W.T + p.c))


def conditional_jacobian(p: CrbmParams) -> np.ndarray:
    """Jacobian of theta -> {p(y|x)}, shape (2^(k+n), (k+n+1)m + n).

    Rows are grouped by input block (row index x * 2^n + y); columns follow
    W row-major, V row-major, b, c.  Block x is p(y|x) (D(x, y) - sum_y'
    p(y'|x) D(x, y')), D the log-gradient differences with D(x, 0) = 0.
    """
    check_cells((1 << (p.k + p.n)) * p.param_count,
                f"conditional_jacobian at (k, n, m) = ({p.k}, {p.n}, {p.m})")
    table = eval_conditional(p).rows       # (2^k, 2^n)
    jac = np.concatenate((np.zeros((1 << p.k, 1, p.param_count)),
                          _sigmoid_diffs(p)), axis=1)
    jac -= np.einsum("xy,xyp->xp", table, jac)[:, None, :]
    jac *= table[:, :, None]
    return jac.reshape(-1, p.param_count)


def random_params(k: int, n: int, m: int, rng: np.random.Generator
                  ) -> CrbmParams:
    return CrbmParams.from_vector(
        k, n, m, rng.standard_normal((k + n + 1) * m + n))
