import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crbmkit import dimension
from crbmkit.bitspace import MAX_CELLS, affine_rank, ball_members, state_bits
from crbmkit.bounds import ambient_dim, code_A_exact, code_K_exact, param_count
from crbmkit.dimension import (
    MOD_PRIME,
    _eliminate_mod_p,
    _peel_and_eliminate,
    _placement_clean,
    certify_dimension,
    greedy_distance4_balls,
    numeric_rank,
    tropical_rank_mod_inputs,
)
from crbmkit.errors import CapExceeded


def test_numeric_rank_examples():
    assert numeric_rank(np.eye(5)) == 5
    u = np.arange(1.0, 9.0)
    assert numeric_rank(np.outer(u, u)) == 1
    rng = np.random.default_rng(0)
    m = rng.standard_normal((20, 12))
    assert numeric_rank(m) == 12
    # full rank certified independently by a nonzero 12x12 minor
    assert abs(np.linalg.det(m[:12])) > 1e-12
    assert numeric_rank(np.zeros((3, 3))) == 0


def test_dimension_estimates():
    assert certify_dimension(1, 3, 1).numeric == 8
    assert certify_dimension(1, 2, 2).numeric == 6  # ambient 2^1 (2^2 - 1)
    # m = 0: rows are identical across x and only b varies: n parameters
    assert certify_dimension(1, 1, 0).numeric == 1
    assert certify_dimension(2, 2, 0).numeric == 2


def test_dimension_estimate_seed_stable():
    for (k, n, m, want) in [(1, 3, 1, 8), (2, 2, 1, 7),
                            (1, 2, 2, 6), (1, 1, 1, 2)]:
        assert {certify_dimension(k, n, m, seed=s).numeric
                for s in range(5)} == {want}


def test_certify_draws_parameters_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    draw = dimension.random_params
    monkeypatch.setattr(dimension, "random_params", counted)
    # a generic draw has the generic rank, min(param_count, ambient_dim)
    # here: 7 = param_count at (2, 2, 1), 6 = ambient_dim at (1, 2, 2), and
    # 240 = ambient_dim at (4, 4, 30), where the p(y|x)-scaled Jacobian's
    # threshold refused seed 0
    for (k, n, m), want in (((2, 2, 1), 7), ((1, 2, 2), 6), ((4, 4, 30), 240)):
        calls.clear()
        assert certify_dimension(k, n, m).numeric == want
        assert want == min(param_count(k, n, m), ambient_dim(k, n))
        assert len(calls) == 1


#: numeric ranks of the benchmark's certify sizes, equal at seeds 0-4; the
#: same values as when every draw below min(Jacobian shape) was made
CERTIFY_NUMERIC = {(1, 3, 1): 8, (2, 2, 1): 7, (1, 2, 2): 6, (1, 1, 1): 2,
                   (2, 3, 3): 21, (3, 3, 4): 31, (3, 3, 6): 45, (4, 3, 6): 51,
                   (3, 4, 8): 68, (4, 4, 8): 76, (5, 3, 8): 75}


@pytest.mark.parametrize("size", sorted(CERTIFY_NUMERIC))
def test_certify_numeric_unchanged_by_the_rank_bound(size):
    for seed in range(5):
        assert certify_dimension(*size, seed=seed).numeric == CERTIFY_NUMERIC[size]


# tall and mostly zero, so that pivots skip untouched rows and swap rows
small_int_matrices = st.integers(1, 10).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([-2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 3]),
             min_size=cols, max_size=cols),
    min_size=1, max_size=12))


def _exact_int_rank(matrix) -> int:
    """Rank over the rationals by Gaussian elimination on ``Fraction`` rows;
    exact but slow (seconds at 256 rows), the oracle of the F_p rank."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(matrix).tolist()]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, n_rows):
            if rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_mod_p(matrix) -> int:
    """Rank over F_p, p = MOD_PRIME, of an integer matrix: the peel and
    elimination of its residues."""
    return _peel_and_eliminate(np.asarray(matrix, dtype=np.int64) % MOD_PRIME)


@given(small_int_matrices)
def test_int_rank_matches_exact_rank(rows):
    # the F_p rank of an integer matrix never exceeds its rank over Q
    assert rank_mod_p(np.array(rows)) <= _exact_int_rank(rows)


#: nonzero entries of the planted singletons; MOD_PRIME is nonzero over Q
#: but zero over F_p, so a peel that read the integer pattern would pivot on it
singleton_values = st.sampled_from([-2, -1, 1, 3, MOD_PRIME])


@st.composite
def peelable_matrices(draw):
    """A small integer matrix with the patterns the peel decides planted in
    it: singleton columns sharing one row, singleton rows sharing one
    column, zero rows and columns, and duplicate rows, in shuffled order."""
    mat = np.array(draw(small_int_matrices), dtype=np.int64)
    n_rows = mat.shape[0]
    cols = np.zeros((n_rows, draw(st.integers(0, 3))), dtype=np.int64)
    cols[draw(st.integers(0, n_rows - 1))] = draw(st.lists(
        singleton_values, min_size=cols.shape[1], max_size=cols.shape[1]))
    zero_cols = np.zeros((n_rows, draw(st.integers(0, 2))), dtype=np.int64)
    mat = np.hstack([mat, cols, zero_cols])
    n_cols = mat.shape[1]
    rows = np.zeros((draw(st.integers(0, 3)), n_cols), dtype=np.int64)
    rows[:, draw(st.integers(0, n_cols - 1))] = draw(st.lists(
        singleton_values, min_size=rows.shape[0], max_size=rows.shape[0]))
    zero_rows = np.zeros((draw(st.integers(0, 2)), n_cols), dtype=np.int64)
    dups = mat[draw(st.lists(st.integers(0, n_rows - 1), max_size=3))]
    mat = np.vstack([mat, rows, zero_rows, dups])
    row_order = draw(st.permutations(range(mat.shape[0])))
    col_order = draw(st.permutations(range(n_cols)))
    return mat[np.ix_(row_order, col_order)]


@given(peelable_matrices())
def test_peeled_rank_matches_plain_elimination(mat):
    # the peel's pivots are exact over F_p: peeling, then eliminating the
    # residual, gives the rank that eliminating the whole matrix gives
    want = _eliminate_mod_p(mat % MOD_PRIME)
    assert rank_mod_p(mat) == want
    assert want <= _exact_int_rank(mat)


def tropical_matrix(k, n, slicings):
    """(A | A_{C_1} | ... | A_{C_m}), the oracle of the tropical rank: a 0/1
    int64 array of shape (2^(k+n), (k+n+1)(m+1)), m = len(slicings), whose
    row at v = x + 2^k*y is (1, bits(v)) in A and that row masked by
    membership of v in the ball centered at ``slicings[i]`` in block i."""
    width = k + n
    base = np.ones((1 << width, width + 1), dtype=np.int64)
    base[:, 1:] = state_bits(width)
    # mask column 0 holds every state, so the first masked block is A
    masks = np.zeros((1 << width, len(slicings) + 1), dtype=np.int64)
    masks[:, 0] = 1
    for i, center in enumerate(slicings):
        masks[ball_members(center, width), i + 1] = 1
    return (masks[:, :, None] * base[:, None, :]).reshape(1 << width, -1)


#: exact Fraction-elimination ranks of the greedy placements (k, n, m) -> value
TROPICAL_GOLDEN = {
    (1, 3, 1): 8, (2, 2, 1): 7, (1, 2, 2): 6, (1, 1, 1): 2, (2, 3, 3): 15,
    (3, 3, 4): 31, (3, 3, 6): 31, (4, 3, 6): 51, (3, 4, 8): 68,
    (4, 4, 8): 76, (5, 3, 8): 75, (5, 5, 10): 115, (6, 6, 12): 162,
}


@pytest.mark.parametrize("size", sorted(TROPICAL_GOLDEN))
def test_tropical_rank_golden(size):
    k, n, m = size
    balls = greedy_distance4_balls(k, n, m)
    assert tropical_rank_mod_inputs(k, n, m, balls) == TROPICAL_GOLDEN[size]


def _random_balls(k, n, m, seed):
    rng = np.random.default_rng(seed)
    return [int(c) for c in rng.integers(0, 1 << (k + n), size=m)]


#: (k, n, m, slicings): slicings no greedy placement makes, then the golden ones
QUOTIENT_CASES = [
    (1, 2, 0, []),
    (2, 3, 0, []),
    (2, 3, 3, [0, 1, 3]),                                          # overlapping
    (3, 3, 4, [5, 5, 7, 40]),                                      # repeated
    (2, 3, 4, [0]),                                                # m > balls
    (2, 3, 3, _random_balls(2, 3, 3, seed=0)),
    (3, 3, 6, _random_balls(3, 3, 6, seed=1)),
    (4, 3, 6, _random_balls(4, 3, 6, seed=2)),
    (3, 4, 8, _random_balls(3, 4, 8, seed=3)),
] + [(k, n, m, greedy_distance4_balls(k, n, m))
     for (k, n, m) in sorted(TROPICAL_GOLDEN)]


@pytest.mark.parametrize("case", QUOTIENT_CASES,
                         ids=lambda c: "-".join(map(str, c[:3])) + ":"
                         + ",".join(map(str, c[3])))
def test_quotient_matches_full_matrix(case):
    # rank(A_theta | X) - 2^k on the full matrix equals the rank of the
    # within-block row differences that tropical_rank_mod_inputs eliminates;
    # X, the indicator columns of the input cylinders [x], is appended here
    k, n, m, balls = case
    inputs = np.tile(np.eye(2 ** k, dtype=np.int64), (2 ** n, 1))
    full = np.hstack([tropical_matrix(k, n, balls), inputs])
    want = rank_mod_p(full) - 2 ** k
    assert tropical_rank_mod_inputs(k, n, m, balls) == want


@pytest.mark.parametrize("case", QUOTIENT_CASES,
                         ids=lambda c: "-".join(map(str, c[:3])) + ":"
                         + ",".join(map(str, c[3])))
def test_tropical_diffs_are_the_full_matrix_differences(case, monkeypatch):
    # the log-gradient differences D at 0/1 ball activations, as the
    # tropical rank builds them, are the oracle's within-block differences
    # after the column map, entry by entry
    k, n, m, balls = case
    built = []

    def spied(*args):
        built.append(build(*args))
        return built[-1]

    build = dimension._log_grad_diffs
    monkeypatch.setattr(dimension, "_log_grad_diffs", spied)
    tropical_rank_mod_inputs(k, n, m, balls)
    (got,) = built
    units = len(balls)
    full = tropical_matrix(k, n, balls).reshape(1 << n, 1 << k, units + 1,
                                                k + n + 1)
    # [x, y - 1, block, column]; block 0 is A, column 0 the constant, then
    # the k x-bits and the n y-bits
    diffs = (full[1:] - full[:1]).transpose(1, 0, 2, 3)
    w, v, b = units * n, units * (n + k), units * (n + k) + n
    assert got.dtype == np.int64
    assert got.shape == (1 << k, (1 << n) - 1, b + units)
    rows = got.shape[:2]
    ball_cols = diffs[:, :, 1:]
    assert np.array_equal(got[:, :, :w].reshape(*rows, units, n),
                          ball_cols[:, :, :, k + 1:])           # W
    assert np.array_equal(got[:, :, w:v].reshape(*rows, units, k),
                          ball_cols[:, :, :, 1:k + 1])          # V
    assert np.array_equal(got[:, :, v:b], diffs[:, :, 0, k + 1:])  # b
    assert np.array_equal(got[:, :, b:], ball_cols[:, :, :, 0])   # c
    # the columns D leaves out: A's constant and x-bits
    assert not diffs[:, :, 0, :k + 1].any()


def test_tropical_rank_m0():
    # only the y-columns survive the quotient by functions of x
    assert tropical_rank_mod_inputs(1, 2, 0, []) == 2
    assert tropical_rank_mod_inputs(2, 1, 0, []) == 1
    assert tropical_rank_mod_inputs(2, 2, 0, []) == 2


def test_tropical_rank_single_ball():
    # (k, n) = (1, 3), ball at 0000: one full block plus the y-columns
    got = tropical_rank_mod_inputs(1, 3, 1, [0])
    assert got == (1 + 3 + 1) * 1 + 3


@pytest.mark.parametrize("center", [-1, 1 << 4, 1.0, "0"])
def test_tropical_rank_refuses_centers_off_the_cube(center):
    # (k, n) = (1, 3): centers are the states 0 .. 15 of {0,1}^4
    with pytest.raises(ValueError, match="is not a state of"):
        tropical_rank_mod_inputs(1, 3, 2, [0, center])


def test_tropical_rank_distance4_packing():
    # centers >= 4 apart, m maximal per A(k+n, 4): rank (k+n+1)m + n
    for (k, n) in [(1, 3), (2, 2), (2, 3), (3, 3)]:
        a4 = code_A_exact(k + n, 4)
        balls = greedy_distance4_balls(k, n, a4 - 1)
        if len(balls) < a4 - 1:
            continue
        m = len(balls)
        got = tropical_rank_mod_inputs(k, n, m, balls)
        assert got == (k + n + 1) * m + n


def test_greedy_placement_respects_distance():
    centers = greedy_distance4_balls(2, 3, 3)
    for i, a in enumerate(centers):
        for b in centers[i + 1:]:
            assert bin(a ^ b).count("1") >= 4


def placement_clean_by_sets(k, n, centers):
    """Set-based oracle of _placement_clean: the union of the balls misses
    at least one state of every input cylinder [x], and the states outside
    it affinely span {0,1}^(k+n)."""
    width = k + n
    union = set().union(*(ball_members(c, width) for c in centers))
    if any(all(x + (y << k) in union for y in range(1 << n))
           for x in range(1 << k)):
        return False
    rest = [v for v in range(1 << width) if v not in union]
    return affine_rank(rest, width) == width + 1


def test_placement_clean_matches_set_oracle():
    rng = np.random.default_rng(16)
    seen = set()
    for width in range(1, 9):
        for k in range(width):
            n = width - k
            full = greedy_distance4_balls(k, n, 1 << width)
            # every greedy placement is a prefix of the longest one; random
            # center sets, not distance-4 apart, tell the input cylinders
            # apart from other blocks of 2^n states
            placements = [full[:m] for m in range(len(full) + 1)] + [
                rng.choice(1 << width, size, replace=False).tolist()
                for size in rng.integers(1, 1 + (1 << width) // 2, 8)]
            for centers in placements:
                got = _placement_clean(k, n, centers)
                assert got == placement_clean_by_sets(k, n, centers)
                seen.add(got)
    assert seen == {True, False}


def test_placement_clean_matches_the_complement_rank_on_both_branches():
    # a complement of more than half the cube spans without a rank; every
    # greedy placement at k + n <= 8 and m <= 40, (4,4,16) among them, is
    # checked against the full affine rank, on the count branch and on the
    # rank branch
    branches = set()
    for width in range(1, 9):
        for k in range(width):
            n = width - k
            answers = {}
            for m in range(41):
                balls = tuple(greedy_distance4_balls(k, n, m))
                if balls not in answers:
                    answers[balls] = placement_clean_by_sets(k, n, balls)
                    union = set().union(*(ball_members(c, width) for c in balls))
                    branches.add((1 << width) - len(union) > 1 << (width - 1))
                assert _placement_clean(k, n, list(balls)) == answers[balls]
    assert branches == {True, False}


def test_certify_without_hidden_units():
    # m = 0 places no ball; the model is the n output biases
    assert greedy_distance4_balls(2, 3, 0) == []
    rep = certify_dimension(1, 2, 0)
    assert rep.expected_value == rep.numeric == rep.tropical == 2
    assert rep.balls_placed == 0


@pytest.mark.parametrize("case", [(1, 3, 1, 8), (2, 2, 1, 7),
                                  (1, 2, 2, 6), (1, 1, 1, 2)])
def test_certify_dimension_cases(case):
    k, n, m, want = case
    rep = certify_dimension(k, n, m)
    assert rep.expected_value == want
    assert rep.numeric == want
    assert rep.agree
    assert rep.tropical <= rep.numeric
    assert rep.tropical_consistent


def _certify_price(k, n, m):
    # D, the (2^k, 2^n - 1, P) differences both ranks build, or the term
    # that prices the bit tables and the placement check's fallback affine
    # table, whichever is larger
    return max((1 << k) * ((1 << n) - 1) * param_count(k, n, m),
               (1 << (k + n)) * (k + n + 1))


@pytest.mark.parametrize("size", [(11, 2, 2), (12, 1, 2), (12, 1, 0)])
def test_certify_dimension_peak_is_within_its_price(size):
    # the elimination's row updates are about as large again as D, and the
    # 1 MiB covers the fixed allocations of a small certificate; at m = 0
    # the bit tables' term is the price (D is 1/28 of it at (12,1,0), and
    # the peak reads 0.9x the price there: the placement check only counts)
    k, n, m = size
    price = _certify_price(k, n, m)
    # a remembered certificate would skip the tropical rank measured here
    dimension._certificate.cache_clear()
    tracemalloc.start()
    try:
        rep = certify_dimension(k, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.numeric == rep.expected_value
    assert rep.tropical <= rep.numeric
    assert peak <= 4 * 8 * price + (1 << 20)


@pytest.mark.parametrize("size", [(24, 1, 0), (22, 2, 0), (20, 1, 1)])
def test_certify_refuses_the_placement_table_above_the_limit(size, monkeypatch):
    # D fits the cell limit at these sizes, but the term that prices the
    # (2^k, k) bit tables both ranks build and the placement check's
    # fallback affine table does not; the check only counts here, so the
    # term prices the bit tables.  The call is refused at entry, before
    # either rank or the check starts
    k, n, m = size
    assert (1 << k) * ((1 << n) - 1) * param_count(k, n, m) <= MAX_CELLS
    assert _certify_price(k, n, m) > MAX_CELLS

    def no_work(*args):
        raise AssertionError("certify started work above the cell limit")

    monkeypatch.setattr(dimension, "_numeric_dim", no_work)
    monkeypatch.setattr(dimension, "_certificate", no_work)
    with pytest.raises(CapExceeded, match=f"certify_dimension at "
                       f"\\(k, n, m\\) = \\({k}, {n}, {m}\\)"):
        certify_dimension(k, n, m)


@pytest.mark.parametrize("size", [(11, 2, 2), (12, 1, 2), (6, 6, 12)])
def test_tropical_rank_peak_is_within_its_price(size):
    # the int64 differences D are the price; the peel adds their zero
    # pattern, 1/8 of it, and the residual it gathers, and the build adds
    # the 0/1 activations and the bit tables: the peak reads 1.41x at
    # (11,2,2), 1.83x at (12,1,2) and 1.43x at (6,6,12)
    k, n, m = size
    price = (1 << k) * ((1 << n) - 1) * param_count(k, n, m)
    balls = greedy_distance4_balls(k, n, m)
    tracemalloc.start()
    try:
        tropical_rank_mod_inputs(k, n, m, balls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * price + (1 << 20)


def test_no_gradient_table_is_built_before_the_svd(monkeypatch):
    # the log-gradient differences D are built without a (2^k, 2^n, P)
    # gradient table: at numeric_rank's entry D alone is alive, and the
    # build peaks at 1.23 D-sized tables, against 2.0 for the table plus
    # its differences.  The SVD copies D outside tracemalloc's view.  The
    # first call fills the certificate memo, so the measured call runs the
    # numeric half alone
    k, n, m = 6, 6, 12
    table = (1 << k) * ((1 << n) - 1) * param_count(k, n, m) * 8
    traced = []

    def spied(matrix):
        traced.append(tracemalloc.get_traced_memory())
        return rank(matrix)

    rank = dimension.numeric_rank
    monkeypatch.setattr(dimension, "numeric_rank", spied)
    certify_dimension(k, n, m)
    tracemalloc.start()
    try:
        rep = certify_dimension(k, n, m, seed=1)
    finally:
        tracemalloc.stop()
    assert rep.numeric == 162
    assert len(traced) == 2
    live, peak = traced[1]
    assert live <= 1.1 * table
    assert peak <= 1.8 * table


@pytest.mark.parametrize("size", [(2, 0, 1), (0, 0, 0), (-1, 2, 1), (1, 2, -1),
                                  (-5, 1, 1)])
def test_certify_refuses_outside_the_domain_before_any_draw(size, monkeypatch):
    calls = []
    monkeypatch.setattr(dimension, "random_params", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="need k >= 0, n >= 1, m >= 0"):
        certify_dimension(*size)
    assert calls == []


def test_certificate_is_computed_once_per_triple(monkeypatch):
    calls = []

    def spied(*args):
        calls.append(args[:3])
        return tropical(*args)

    tropical = dimension.tropical_rank_mod_inputs
    monkeypatch.setattr(dimension, "tropical_rank_mod_inputs", spied)
    dimension._certificate.cache_clear()
    first = certify_dimension(3, 3, 4, seed=0)
    second = certify_dimension(3, 3, 4, seed=7)
    assert calls == [(3, 3, 4)]
    assert (first.tropical, second.tropical) == (31, 31)
    certify_dimension(3, 3, 6, seed=0)
    assert calls == [(3, 3, 4), (3, 3, 6)]


#: the golden sizes (the benchmark's certify mix among them), the benchmark's
#: certify ladder (w // 2, w - w // 2, w) and a slice of the small grid below
WARM_SIZES = sorted(set(TROPICAL_GOLDEN)
                    | {(w // 2, w - w // 2, w) for w in range(2, 13)}
                    | {(k, 5 - k, m) for k in range(5) for m in range(0, 13, 3)})


def test_warm_reports_equal_cold_reports():
    cold = {}
    for size in WARM_SIZES:
        dimension._certificate.cache_clear()
        cold[size] = asdict(certify_dimension(*size, seed=2))
    # every triple cached at once, then each read back at the same seed
    for size in WARM_SIZES:
        certify_dimension(*size, seed=0)
    assert dimension._certificate.cache_info().currsize == len(WARM_SIZES)
    for size in WARM_SIZES:
        warm = asdict(certify_dimension(*size, seed=2))
        for field, value in cold[size].items():
            assert warm[field] == value, (size, field)
    for size, want in TROPICAL_GOLDEN.items():
        assert cold[size]["tropical"] == want


def test_certify_4_4_30_seed_0():
    # the p(y|x)-scaled Jacobian read 237 vs 240 here when its threshold was
    # halved or doubled; the log-gradient differences rank it at 240
    rep = certify_dimension(4, 4, 30, seed=0)
    assert rep.numeric == rep.expected_value == 240
    assert rep.tropical == 148


def test_rank_mod_p_leaves_its_input_as_it_is():
    rows = np.array([[2, 4, -1], [1, 2, 3], [0, 5, 7]], dtype=np.int64)
    rows %= MOD_PRIME
    before = rows.copy()
    assert _peel_and_eliminate(rows) == 3
    assert np.array_equal(rows, before)


def test_rank_bounds_sandwich():
    for (k, n, m) in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 2, 2)]:
        numeric = certify_dimension(k, n, m).numeric
        balls = greedy_distance4_balls(k, n, m)
        tropical = tropical_rank_mod_inputs(k, n, m, balls)
        assert tropical <= numeric
        assert numeric <= min(param_count(k, n, m), ambient_dim(k, n))


def test_full_regime_reaches_ambient():
    for (k, n) in [(1, 1), (1, 2), (2, 1)]:
        m = code_K_exact(k + n, 1)
        assert certify_dimension(k, n, m).numeric == ambient_dim(k, n)


#: m of the regression grid: every m up to 12, then the sizes where the
#: p(y|x)-scaled Jacobian refused (0,5,20..30), (1,5,24..30) and (0,6,12..30)
GRID_M = [*range(13), 16, 20, 24, 30]


@pytest.mark.parametrize("width", range(1, 7))
def test_certify_answers_across_the_small_grid(width):
    # every (k, n, m) with k + n = width at seed 0 certifies the generic rank
    for k in range(width):
        n = width - k
        for m in GRID_M:
            rep = certify_dimension(k, n, m, seed=0)
            assert rep.numeric == min(param_count(k, n, m), ambient_dim(k, n)), \
                (k, n, m)
