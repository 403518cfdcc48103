"""Dense probability distributions and conditional tables.

All divergences use log base 2, so a bound of "n - l bits" is directly the
uniform-vs-delta divergence on n - l output bits.  Zero probabilities are
represented exactly; nothing is epsilon-floored here (support-class logic
needs true zeros).  The floor used by the compiler lives in that module.

Joint distributions over (x, y) put the k input units on the low bits:
joint index v = x + 2^k * y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitspace import check_width
from .errors import ShapeMismatch, ZeroInputMass

SUM_TOL = 1e-12


def _check_eps(eps: float) -> None:
    """Refuse a TV tolerance that is not finite and > 0, before any work."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and > 0, got {eps}")


def _check_outputs(k: int, n: int, outputs) -> np.ndarray:
    """The output states of a deterministic table as indices: one whole
    number in [0, 2^n) for each of the 2^k inputs (1.0 counts, 1.5 does
    not).  Anything else is refused, naming the first output off the cube
    and its input."""
    outputs = np.asarray(outputs)
    if outputs.shape != (1 << k,):
        raise ShapeMismatch(f"need one output for each of the 2^k = "
                            f"{1 << k} inputs, got shape {outputs.shape}")
    if outputs.dtype.kind not in "iuf":
        raise ValueError(f"outputs must be integers, got {outputs.dtype}")
    off = ~np.isfinite(outputs) | (outputs != np.floor(outputs))
    if off.any():
        x = int(np.argmax(off))
        raise ValueError(f"output {outputs[x].item()!r} of input {x} is "
                         f"not an integer")
    off = (outputs < 0) | (outputs >= 1 << n)
    if off.any():
        x = int(np.argmax(off))
        raise ValueError(f"output {outputs[x].item()!r} of input {x} lies "
                         f"outside [0, 2^n) = [0, {1 << n})")
    return outputs.astype(np.intp)


@dataclass(frozen=True)
class Dist:
    """A probability vector over {0,1}^width, indexed by state."""

    width: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_width(self.width)
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (1 << self.width,):
            raise ShapeMismatch(
                f"expected {1 << self.width} probabilities, got shape {p.shape}"
            )
        if not np.isfinite(p).all():
            raise ValueError("non-finite probability entry")
        if np.any(p < 0):
            raise ValueError("negative probability entry")
        if abs(p.sum() - 1.0) > SUM_TOL * (1 << self.width):
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    @staticmethod
    def uniform(width: int) -> "Dist":
        n = 1 << width
        return Dist(width, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class ConditionalTable:
    """A 2^k x 2^n row-stochastic table; row x is the output law given x."""

    k: int
    n: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_width(self.n)
        if self.k < 0:
            raise ValueError("k must be >= 0")
        r = np.asarray(self.rows, dtype=float)
        if r.shape != (1 << self.k, 1 << self.n):
            raise ShapeMismatch(f"expected shape {(1 << self.k, 1 << self.n)}, got {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("non-finite probability entry")
        if np.any(r < 0):
            raise ValueError("negative probability entry")
        if np.any(np.abs(r.sum(axis=1) - 1.0) > SUM_TOL * (1 << self.n)):
            raise ValueError("a row does not sum to 1")
        object.__setattr__(self, "rows", r)
        r.setflags(write=False)

    @staticmethod
    def deterministic(k: int, n: int, outputs: list[int]) -> "ConditionalTable":
        """Point-mass rows: row x is the delta at outputs[x], one whole number
        in [0, 2^n) for each of the 2^k inputs (1.0 counts, 1.5 does not)."""
        rows = np.zeros((1 << k, 1 << n))
        rows[np.arange(1 << k), _check_outputs(k, n, outputs)] = 1.0
        return ConditionalTable(k, n, rows)

    def support_size(self) -> int:
        return int(np.count_nonzero(self.rows))


def kl_conditional(p: ConditionalTable, q: ConditionalTable) -> float:
    """Uniform-input average of the row divergences, in bits; +inf when a
    row of p puts mass where its row of q has none.

    Each row's terms p log2(p / q), 0 where p is 0, are summed along the
    row, and the row sums are added in row order."""
    if (p.k, p.n) != (q.k, q.n):
        raise ShapeMismatch("table shapes differ")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p.rows > 0, p.rows * np.log2(p.rows / q.rows), 0.0)
    return sum(terms.sum(axis=1).tolist()) / (1 << p.k)


def tv_row_distance(p: ConditionalTable, q: ConditionalTable) -> float:
    """max over inputs x of the L1 distance between the x-rows."""
    if (p.k, p.n) != (q.k, q.n):
        raise ShapeMismatch("table shapes differ")
    return float(np.abs(p.rows - q.rows).sum(axis=1).max())


def conditional_of_joint(p: Dist, k: int) -> ConditionalTable:
    """Block-normalize a joint over (x, y) into a table; x = low k bits."""
    if not 0 <= k <= p.width:
        raise ValueError(f"k must be in [0, {p.width}]")
    n = p.width - k
    # index v = x + 2^k*y, so reshape to (2^n, 2^k) puts x on the fast axis
    blocks = p.probs.reshape(1 << n, 1 << k)
    masses = blocks.sum(axis=0)
    empty = np.flatnonzero(masses <= 0)
    if empty.size:
        raise ZeroInputMass(int(empty[0]))
    return ConditionalTable(k, n, (blocks / masses).T)


def random_conditional(k: int, n: int, seed: int) -> ConditionalTable:
    """Rows drawn independently and uniformly on the simplex (flat Dirichlet)."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(1 << n), size=1 << k)
    return ConditionalTable(k, n, rows)
