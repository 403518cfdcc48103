import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from crbmkit.bounds import (
    A4_TABLE,
    K1_TABLE,
    ambient_dim,
    code_A_exact,
    code_A_lower,
    code_K_exact,
    code_K_upper,
    deterministic_m_bounds,
    deterministic_necessity_check,
    divergence_upper,
    expected_dim,
    feasible_block_width,
    param_count,
    universal_m_table,
)
from crbmkit.errors import TooLarge
from crbmkit.packing import k_coefficient


def naive_dim_lower(k, n, m):
    """(n+k)m + n + m + k - (2^k - 1), valid when m + 1 <= A(k+n, 3)."""
    return (n + k) * m + n + m + k - ((1 << k) - 1)


def ltf_count_bound(n_in, m_out):
    """2^(N^2 M): upper bound on the number of N-input M-output threshold maps."""
    assert n_in >= 1 and m_out >= 1
    return 1 << (n_in * n_in * m_out)


def brute_A(n, d):
    """Exhaustive max-code search, feasible for n <= 4."""
    best = 1
    states = list(range(1 << n))
    for size in range(2, (1 << n) + 1):
        found = False
        for cand in itertools.combinations(states, size):
            if all(bin(u ^ v).count("1") >= d
                   for u, v in itertools.combinations(cand, 2)):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def brute_K(n, d):
    """Exhaustive min-cover search, feasible for n <= 4."""
    states = list(range(1 << n))
    for size in range(1, (1 << n) + 1):
        for cand in itertools.combinations(states, size):
            if all(any(bin(u ^ v).count("1") <= d for v in cand)
                   for u in states):
                return size
    raise AssertionError("unreachable")


def test_code_examples():
    assert code_A_exact(3, 1) == 8
    assert code_K_exact(3, 1) == 2  # {000, 111} covers
    assert code_A_exact(4, 4) == 2  # {0000, 1111}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_codes_match_brute_force(n):
    for d in range(1, n + 1):
        assert code_A_exact(n, d) == brute_A(n, d)
    assert code_K_exact(n, 1) == brute_K(n, 1)


def test_code_caps_and_bounds():
    with pytest.raises(TooLarge):
        code_A_exact(7, 4)
    with pytest.raises(TooLarge):
        code_K_exact(7, 1)
    assert code_K_upper(3) == 2 == code_K_exact(3, 1)
    assert code_K_upper(7) == 16  # the Hamming code
    assert code_A_lower(4) == 2
    for n in range(2, 7):
        assert code_A_lower(n) <= code_A_exact(n, 4)
        assert code_K_upper(n) >= code_K_exact(n, 1)
        # covering codes need at least 2^n/(n+1) words
        assert code_K_exact(n, 1) >= math.ceil((1 << n) / (n + 1))


def test_code_tables_match_solver():
    for n in range(1, 7):
        assert A4_TABLE[n - 1] == code_A_exact(n, 4)
        assert K1_TABLE[n - 1] == code_K_exact(n, 1)


def test_expected_dim_examples():
    assert expected_dim(1, 3, 1) == (8, "parameter-counting")
    assert expected_dim(1, 2, 2) == (6, "full")
    assert expected_dim(2, 2, 1) == (7, "parameter-counting")
    assert expected_dim(1, 1, 1) == (2, "unresolved")
    # k = 0 reduces to the probability-model statements: nm + n + m
    assert expected_dim(0, 4, 1) == (param_count(0, 4, 1), "parameter-counting")
    assert expected_dim(0, 4, 1)[0] == 9
    assert expected_dim(0, 3, 1)[0] == param_count(0, 3, 1) == 7


@pytest.mark.parametrize("size", [(1, 2, -1), (0, 1, -5), (-1, 2, 1), (2, 0, 1)])
def test_expected_dim_refuses_outside_its_domain(size):
    with pytest.raises(ValueError, match="need k >= 0, n >= 1, m >= 0"):
        expected_dim(*size)


def test_expected_dim_never_exceeds_param_or_ambient():
    for k in range(0, 4):
        for n in range(1, 4):
            for m in range(0, 8):
                value, _ = expected_dim(k, n, m)
                assert value <= ambient_dim(k, n)
                assert value <= param_count(k, n, m)


def test_naive_dim_lower_consistent():
    for k in range(1, 4):
        for n in range(1, 4):
            if k + n > 6:
                continue
            a3 = code_A_exact(k + n, 3)
            for m in range(0, 8):
                if m + 1 <= a3:
                    value, _ = expected_dim(k, n, m)
                    assert naive_dim_lower(k, n, m) <= value


def test_universal_m_table_examples():
    rep = universal_m_table(1, 1)
    assert rep.m_by_depth == {1: 1}
    assert rep.rbm_route == 1
    assert rep.necessary == 1

    rep = universal_m_table(3, 1)
    assert rep.m_by_depth == {1: 4, 2: 4}

    rep = universal_m_table(3, 2)
    assert rep.m_by_depth == {1: 12, 2: 10} and rep.best_r == 2


def test_universal_m_table_beats_rbm_route():
    for k in range(1, 7):
        for n in range(1, 7):
            rep = universal_m_table(k, n)
            assert rep.m_min <= rep.rbm_route


def test_depth6_coefficient_consistency():
    # the depth-6 per-input coefficient is K(6) ~ 0.2442 < (1/4)(1 + 1/30)
    k6 = k_coefficient(6)
    assert abs(k6 - 0.2442) <= 5e-4
    assert k6 < 0.25 * (1 + 1 / 30)


def test_divergence_upper_examples():
    # at the universal boundary the joint-model term vanishes
    assert divergence_upper(1, 1, (1 << 1) - 1) == 0.0
    assert divergence_upper(2, 2, 2) == pytest.approx(1.0)
    # (n+k) = 4, m = 3: joint term = 4 - 2 - 4/4 = 1
    assert divergence_upper(2, 2, 3) == pytest.approx(1.0)
    # k = 0: the joint term stays 0 past the universal m = 2^(n-1) - 1
    assert [divergence_upper(0, 2, m) for m in range(4)] == [
        1.0, 0.0, 0.0, 0.0]
    assert divergence_upper(0, 1, 3) == divergence_upper(0, 2, 5) == 0.0
    assert feasible_block_width(2, 2, 2) == 1
    assert feasible_block_width(1, 2, 1) == 1


def test_divergence_upper_monotone_in_m():
    # k = 0 too: no packing there, so past the universal RBM size
    # m = 2^(n-1) - 1 the joint-model bound alone keeps the bound at 0
    for k in range(5):
        for n in range(1, 5):
            values = [divergence_upper(k, n, m) for m in range(65)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_deterministic_m_bounds_examples():
    assert deterministic_m_bounds(2, 1) == (3, 0)
    assert deterministic_m_bounds(10, 1)[1] == 0
    suff, nec = deterministic_m_bounds(30, 1)
    assert nec >= 2 ** 15 - 481
    assert nec > 0


@pytest.mark.parametrize("k, n", [(54, 2), (55, 1), (1024, 1), (1023, 3)])
def test_counts_are_exact_integer_ceilings(k, n):
    # float ceilings read one too low from (54,2) and (55,1) on, and 2^1024
    # overflows a float
    suff, nec = deterministic_m_bounds(k, n)
    assert universal_m_table(k, n).necessary == math.ceil(
        Fraction(ambient_dim(k, n) - n, n + k + 1))
    assert suff == min((1 << k) - 1, math.ceil(Fraction(3 * n << k, k + 2)))
    # nec is the least m >= 0 with 2n m + (n+k)^2 >= 2n 2^(k/2)
    def reach(m):
        return (2 * n * m + (n + k) ** 2) ** 2 >= 4 * n * n << k
    assert reach(nec) and (nec == 0 or not reach(nec - 1))
    assert deterministic_necessity_check(k, n)
    pinned = {(54, 2): (948126237341158, 1930114126015927),
              (55, 1): (632084158227439, 1896252474682315)}
    if (k, n) in pinned:
        assert (universal_m_table(k, n).necessary, suff) == pinned[k, n]


def test_necessity_check_matches_the_counting_loop():
    # the loop it replaces: the largest m with (2n m + (n+k)^2)^2 < 4n^2 2^k
    for k in range(1, 25):
        for n in range(1, 7):
            m_hat, m = -1, 0
            while (2 * n * m + (n + k) ** 2) ** 2 < 4 * n * n * (1 << k):
                m_hat, m = m, m + 1
            want = m_hat < 0 or (m_hat * (n + k) ** 2 + n * m_hat * m_hat
                                 < n * (1 << k))
            assert deterministic_necessity_check(k, n) == want
            assert deterministic_m_bounds(k, n)[1] == m_hat + 1


def enumerate_ltf_1_1():
    """All 1-input threshold functions over a sign-complete weight grid."""
    tables = set()
    for w in (-2.0, -1.0, 1.0, 2.0):
        for b in (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0):
            if w * 0 + b == 0 or w * 1 + b == 0:
                continue
            tables.add((int(b > 0), int(w + b > 0)))
    return tables


def enumerate_ltf_2_1():
    """Distinct 2-input threshold functions from an exact rational grid."""
    tables = set()
    grid = [x / 2 for x in range(-7, 8)]
    for w1 in grid:
        for w2 in grid:
            for b in (x / 4 for x in range(-13, 14, 2)):
                outs = []
                for x in range(4):
                    a = w1 * (x & 1) + w2 * ((x >> 1) & 1) + b
                    if a == 0:
                        break
                    outs.append(int(a > 0))
                else:
                    tables.add(tuple(outs))
    return tables


def test_ltf_count_bound():
    assert ltf_count_bound(2, 1) == 16
    assert len(enumerate_ltf_1_1()) == 4
    exact_2 = len(enumerate_ltf_2_1())
    assert exact_2 == 14  # everything except parity and its complement
    assert exact_2 <= ltf_count_bound(2, 1)
    assert ltf_count_bound(3, 2) == 1 << 18


def test_deterministic_necessity_arithmetic():
    rng = np.random.default_rng(21)
    for _ in range(5):
        k = int(rng.integers(2, 20))
        n = int(rng.integers(1, 6))
        assert deterministic_necessity_check(k, n)
