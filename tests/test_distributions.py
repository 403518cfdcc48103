import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crbmkit.distributions import (
    ConditionalTable,
    Dist,
    conditional_of_joint,
    kl_conditional,
    random_conditional,
    tv_row_distance,
)
from crbmkit.compiler import _ComponentScheme
from crbmkit.errors import ShapeMismatch, ZeroInputMass

HALF_LOG2_3 = 0.5 * math.log2(3.0)  # divergence of (3/4,1/4) from (1/4,3/4)


def from_probs(values):
    """The Dist over the smallest width holding ``values``."""
    v = np.asarray(values, dtype=float)
    return Dist(int(v.size - 1).bit_length(), v)


def point_mass(width, index):
    p = np.zeros(1 << width)
    p[index] = 1.0
    return Dist(width, p)


def kl(p: Dist, q: Dist) -> float:
    """The divergence of p from q in bits, that of the one-row (k = 0)
    tables whose row is p and q."""
    return kl_conditional(ConditionalTable(0, p.width, p.probs[None, :]),
                          ConditionalTable(0, q.width, q.probs[None, :]))


def random_dist(width, rng):
    return Dist(width, rng.dirichlet(np.ones(1 << width)))


def joint_from(marginal: Dist, table: ConditionalTable) -> Dist:
    """Oracle joint q(x) p(y|x) over x + 2^k*y indexing."""
    assert marginal.width == table.k
    joint = (table.rows * marginal.probs[:, None]).T.reshape(-1)
    return Dist(table.k + table.n, joint)


@dataclass(frozen=True)
class SupportClass:
    """Oracle class of the conditionals with at most 2^k + d nonzero
    entries in total."""

    k: int
    n: int
    d: int


def in_support_class(p: ConditionalTable, c: SupportClass) -> bool:
    assert (p.k, p.n) == (c.k, c.n)
    return p.support_size() <= (1 << c.k) + c.d


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused(bad):
    # NaN compares false, so neither the sign check nor the sum check
    # catches it
    rows = np.full((2, 4), 0.25)
    rows[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite probability entry"):
        ConditionalTable(1, 2, rows)
    with pytest.raises(ValueError, match="non-finite probability entry"):
        Dist(2, rows[1])


def test_kl_examples():
    p = from_probs([0.75, 0.25])
    assert kl(p, p) == 0.0
    assert kl(point_mass(1, 0), Dist.uniform(1)) == pytest.approx(1.0)
    q = from_probs([0.25, 0.75])
    assert kl(p, q) == pytest.approx(HALF_LOG2_3, abs=1e-12)
    # support violation returns the +inf marker
    assert kl(from_probs([0.5, 0.5]), point_mass(1, 0)) == math.inf
    with pytest.raises(ShapeMismatch):
        kl(p, Dist.uniform(2))


def test_kl_conditional_examples():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    p = ConditionalTable(1, 1, rows)
    assert kl_conditional(p, p) == 0.0
    q = ConditionalTable(1, 1, np.array([[0.5, 0.5], [0.5, 0.5]]))
    # row divergences are 1 and 0, so the uniform-input average is 0.5
    assert kl_conditional(p, q) == pytest.approx(0.5)


def test_kl_conditional_matches_row_sum_oracle():
    rng = np.random.default_rng(3)
    p = random_conditional(1, 1, 5)
    q = random_conditional(1, 1, 6)
    brute = sum(
        sum(p.rows[x, y] * math.log2(p.rows[x, y] / q.rows[x, y])
            for y in range(2) if p.rows[x, y] > 0)
        for x in range(2)) / 2
    assert kl_conditional(p, q) == pytest.approx(brute, abs=1e-12)


def test_conditional_of_joint_examples():
    qx = from_probs([0.3, 0.7])
    py = from_probs([0.2, 0.8])
    joint = Dist(2, np.outer(py.probs, qx.probs).ravel())
    table = conditional_of_joint(joint, 1)
    assert np.allclose(table.rows, [py.probs, py.probs])

    table = conditional_of_joint(Dist.uniform(3), 1)
    assert np.allclose(table.rows, 0.25)

    p = from_probs([0.1, 0.2, 0.3, 0.4])
    table = conditional_of_joint(p, 1)
    assert np.allclose(table.rows[0], [0.25, 0.75])
    assert np.allclose(table.rows[1], [1 / 3, 2 / 3])


def test_conditional_of_joint_zero_mass():
    with pytest.raises(ZeroInputMass):
        conditional_of_joint(from_probs([0.0, 0.5, 0.0, 0.5]), 1)


def test_conditionals_ignore_input_marginal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        marginal = random_dist(k, rng)
        if not marginal.probs.min() > 0:
            continue
        table = random_conditional(k, n, int(rng.integers(1 << 30)))
        back = conditional_of_joint(joint_from(marginal, table), k)
        assert np.abs(back.rows - table.rows).max() < 1e-12


def test_tv_row_distance():
    p = ConditionalTable.deterministic(1, 1, [0, 0])
    q = ConditionalTable.deterministic(1, 1, [1, 0])
    assert tv_row_distance(p, p) == 0.0
    assert tv_row_distance(p, q) == 2.0
    rng = np.random.default_rng(1)
    a = random_conditional(2, 2, 11)
    b = random_conditional(2, 2, 12)
    brute = max(sum(abs(a.rows[x, y] - b.rows[x, y]) for y in range(4))
                for x in range(4))
    assert tv_row_distance(a, b) == pytest.approx(brute)


def test_in_support_class():
    det = ConditionalTable.deterministic(2, 2, [0, 1, 2, 3])
    assert in_support_class(det, SupportClass(2, 2, 0))
    full = random_conditional(1, 2, 9)
    assert in_support_class(full, SupportClass(1, 2, 2 * 3))
    assert not in_support_class(full, SupportClass(1, 2, 0))


def partition_project(p, l):
    """The divergence witness's projection of ``p`` onto the distributions
    constant on the blocks of the first l bits, and its divergence."""
    scheme = _ComponentScheme(p.width, (1 << l) - 1, range(1 << l))
    proj = Dist(p.width, scheme.project(p.probs[None, :])[0])
    return proj, kl(p, proj)


def test_partition_project_examples():
    # block-constant input projects to itself
    p = from_probs([0.3, 0.2, 0.3, 0.2])
    proj, div = partition_project(p, 1)
    assert np.allclose(proj.probs, p.probs)
    assert div == pytest.approx(0.0, abs=1e-12)

    # single block: projection is uniform
    p = from_probs([0.4, 0.3, 0.2, 0.1])
    proj, div = partition_project(p, 0)
    assert np.allclose(proj.probs, 0.25)
    expect = sum(v * math.log2(4 * v) for v in p.probs)
    assert div == pytest.approx(expect)

    # delta at 00 against the l=1 cylinder partition: divergence n - l = 1
    proj, div = partition_project(point_mass(2, 0), 1)
    assert div == pytest.approx(1.0)


def test_partition_project_is_optimal_among_samples():
    rng = np.random.default_rng(7)
    blocks = _ComponentScheme(3, 1, range(2)).members
    p = random_dist(3, rng)
    _, best = partition_project(p, 1)
    for _ in range(100):
        masses = rng.dirichlet(np.ones(len(blocks)))
        q = np.zeros(8)
        for mass, block in zip(masses, blocks):
            q[block] = mass / block.size
        assert best <= kl(p, Dist(3, q)) + 1e-12


def test_random_conditional_determinism_and_moments():
    a = random_conditional(2, 2, 123)
    b = random_conditional(2, 2, 123)
    assert np.array_equal(a.rows, b.rows)
    assert np.allclose(a.rows.sum(axis=1), 1.0)

    rows = np.vstack([random_conditional(5, 2, seed).rows
                      for seed in range(320)])  # 10240 rows
    # flat-Dirichlet coordinate: mean 1/4, var (1/4)(3/4)/5
    sigma = math.sqrt(0.25 * 0.75 / 5 / rows.shape[0])
    assert np.abs(rows.mean(axis=0) - 0.25).max() <= 3 * sigma


@st.composite
def dists(draw, width=2):
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=1 << width, max_size=1 << width))
    arr = np.array(raw)
    return Dist(width, arr / arr.sum())


@settings(max_examples=50, deadline=None)
@given(dists(), dists())
def test_kl_nonnegative_zero_iff_equal(p, q):
    d = kl(p, q)
    assert d >= -1e-12
    if np.abs(p.probs - q.probs).max() < 1e-15:
        assert d < 1e-12
    assert kl(p, p) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("outputs, error, match", [
    ([0, 1, 2], ShapeMismatch, r"2\^k = 4 inputs"),
    ([0, 1, 2, 3, 0], ShapeMismatch, r"2\^k = 4 inputs"),
    ([], ShapeMismatch, r"2\^k = 4 inputs"),
    ([[0, 1, 2, 3]], ShapeMismatch, r"2\^k = 4 inputs"),
    ([0, 1, 2, 4], ValueError, r"outside \[0, 2\^n\) = \[0, 4\)"),
    ([0, -1, 2, 3], ValueError, r"outside \[0, 2\^n\) = \[0, 4\)"),
    ([0, 1.5, 2, 3], ValueError, r"^output 1\.5 of input 1 is not an "
                                 r"integer$"),
    ([0, 1, 2, np.inf], ValueError, r"^output inf of input 3 is not an "
                                    r"integer$"),
    ([0, np.nan, 2, 3], ValueError, r"^output nan of input 1 is not an "
                                    r"integer$"),
    ([True, False, True, False], ValueError,
     r"^outputs must be integers, got bool$"),
])
def test_deterministic_refuses_a_wrong_count_or_an_output_out_of_range(
        outputs, error, match):
    # one output per input, each an output state: too few or too many
    # outputs name 2^k, an output off the cube names [0, 2^n), and an
    # output that is no integer is named
    with pytest.raises(error, match=match):
        ConditionalTable.deterministic(2, 2, outputs)


def test_deterministic_takes_whole_floats_as_their_integers():
    whole = ConditionalTable.deterministic(2, 2, [1.0, 0.0, 2.0, 3.0])
    exact = ConditionalTable.deterministic(2, 2, [1, 0, 2, 3])
    assert np.array_equal(whole.rows, exact.rows)
