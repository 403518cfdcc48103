import re
import tracemalloc

import numpy as np
import pytest

from crbmkit import crbm
from crbmkit.bitspace import state_bits
from crbmkit.crbm import (
    CrbmParams,
    append_hidden_unit,
    conditional_jacobian,
    conditional_logits,
    eval_cells,
    eval_conditional,
    eval_joint_rbm,
    random_params,
)
from crbmkit.distributions import conditional_of_joint, tv_row_distance
from crbmkit.errors import CapExceeded, ShapeMismatch


def zero_params(k, n, m):
    """The CRBM with every weight and bias 0."""
    return CrbmParams(k, n, m, np.zeros((m, n)), np.zeros((m, k)),
                      np.zeros(n), np.zeros(m))


def brute_conditional(p: CrbmParams) -> np.ndarray:
    """Independent oracle: direct summation over the hidden space."""
    def weight(x, y):
        xb = np.array([(x >> i) & 1 for i in range(p.k)], dtype=float)
        yb = np.array([(y >> i) & 1 for i in range(p.n)], dtype=float)
        total = 0.0
        for z in range(1 << p.m):
            zb = np.array([(z >> j) & 1 for j in range(p.m)], dtype=float)
            total += np.exp(zb @ p.V @ xb + zb @ p.W @ yb + p.b @ yb + p.c @ zb)
        return total
    rows = np.array([[weight(x, y) for y in range(1 << p.n)]
                     for x in range(1 << p.k)])
    return rows / rows.sum(axis=1, keepdims=True)


def test_eval_conditional_m0_is_x_independent_softmax():
    b = np.array([0.3, -0.7])
    p = CrbmParams.bias_only(2, 2, b)
    table = eval_conditional(p)
    y_bits = np.array([[y & 1, (y >> 1) & 1] for y in range(4)], dtype=float)
    soft = np.exp(y_bits @ b)
    soft /= soft.sum()
    for x in range(4):
        assert np.allclose(table.rows[x], soft)


def test_bias_only_checks_b_and_holds_read_only_arrays():
    b = np.array([0.5, -1.0])
    p = CrbmParams.bias_only(3, 2, b)
    assert (p.k, p.n, p.m) == (3, 2, 0)
    assert [a.shape for a in (p.W, p.V, p.b, p.c)] == [(0, 2), (0, 3), (2,),
                                                        (0,)]
    assert not any(a.flags.writeable for a in (p.W, p.V, p.b, p.c))
    # b is copied: the caller's array stays writable and its later edits
    # do not reach the model
    b[0] = 9.0
    assert b.flags.writeable and p.b.tolist() == [0.5, -1.0]
    assert np.array_equal(p.vector(), CrbmParams(
        3, 2, 0, np.zeros((0, 2)), np.zeros((0, 3)), [0.5, -1.0],
        np.zeros(0)).vector())
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite entries in b"):
            CrbmParams.bias_only(3, 2, [0.0, bad])
    for shape in ((3,), (1, 2), ()):
        with pytest.raises(ShapeMismatch):
            CrbmParams.bias_only(3, 2, np.zeros(shape))


def test_eval_conditional_all_zero_params_uniform():
    table = eval_conditional(zero_params(2, 2, 3))
    assert np.allclose(table.rows, 0.25)


def test_eval_conditional_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    for k, n, m in [(1, 1, 1), (2, 2, 2), (1, 2, 3)]:
        p = random_params(k, n, m, rng)
        assert np.abs(eval_conditional(p).rows - brute_conditional(p)).max() < 1e-12


def test_eval_joint_rbm_examples():
    assert np.allclose(eval_joint_rbm(zero_params(0, 2, 0)).probs, 0.25)
    # m=1, W=0: the hidden unit marginalizes away
    p = CrbmParams(0, 2, 1, np.zeros((1, 2)), np.zeros((1, 0)),
                   np.array([0.4, -0.2]), np.array([1.3]))
    q = CrbmParams.bias_only(0, 2, np.array([0.4, -0.2]))
    assert np.allclose(eval_joint_rbm(p).probs, eval_joint_rbm(q).probs)
    rng = np.random.default_rng(8)
    pr = random_params(0, 3, 2, rng)
    assert np.allclose(eval_joint_rbm(pr).probs, brute_conditional(pr)[0])


def test_eval_joint_rbm_requires_k0():
    with pytest.raises(ShapeMismatch):
        eval_joint_rbm(zero_params(1, 1, 0))


def test_append_zero_unit_is_invariant():
    rng = np.random.default_rng(2)
    p = random_params(2, 2, 1, rng)
    q = append_hidden_unit(p, np.zeros((1, 2)), np.zeros((1, 2)), [0.0])
    assert np.abs(eval_conditional(p).rows - eval_conditional(q).rows).max() < 1e-12


def test_append_then_delete_round_trip():
    rng = np.random.default_rng(2)
    p = random_params(1, 2, 2, rng)
    q = append_hidden_unit(p, [[1.0, -1.0]], [[0.5]], [0.2])
    # deleting the last unit gives the original parameters back
    assert np.array_equal(q.W[:-1], p.W) and np.array_equal(q.V[:-1], p.V)
    assert np.array_equal(q.c[:-1], p.c)
    # the grown model's arrays are read-only, like every model's
    assert not (q.W.flags.writeable or q.V.flags.writeable
                or q.c.flags.writeable or q.b.flags.writeable)
    # units are rows: a unit of the wrong width, rows that disagree on
    # their count, or a bare unit are refused, and so is a non-finite one
    for w_out, w_in, bias in (([[1.0]], [[0.5]], [0.0]),
                              ([[1.0, -1.0]], [[0.5, 0.5]], [0.0]),
                              ([[1.0, -1.0]] * 2, [[0.5]], [0.0]),
                              ([[1.0, -1.0]], [[0.5]], [0.0, 0.0]),
                              ([1.0, -1.0], [0.5], 0.0)):
        with pytest.raises(ShapeMismatch):
            append_hidden_unit(p, w_out, w_in, bias)
    for w_out, w_in, bias, name in (([[np.nan, 0.0]], [[0.5]], [0.0], "W"),
                                    ([[1.0, -1.0]], [[np.inf]], [0.0], "V"),
                                    ([[1.0, -1.0]], [[0.5]], [-np.inf], "c")):
        with pytest.raises(ValueError, match=f"non-finite entries in {name}"):
            append_hidden_unit(p, w_out, w_in, bias)


def test_appends_grow_in_place_and_leave_every_model_as_it_was():
    # appends no longer write in place: each builds its model's W, V and c
    # afresh.  What still holds: no append changes an existing model's
    # bytes or makes its arrays writable, and two appends to one model
    # give two independent models
    rng = np.random.default_rng(3)
    k, n = 2, 3

    def unit():
        return (rng.standard_normal((1, n)), rng.standard_normal((1, k)),
                rng.standard_normal(1))

    def arrays(p):
        return (p.W, p.V, p.b, p.c)

    models = [random_params(k, n, 2, rng)]
    for _ in range(40):
        models.append(append_hidden_unit(models[-1], *unit()))
    base = models[20]
    a, b = (append_hidden_unit(base, *unit()) for _ in range(2))
    models += [a, b, append_hidden_unit(a, *unit())]
    bytes_before = [[x.tobytes() for x in arrays(p)] for p in models]
    # appending twice to one model gives two independent models, each
    # with the model's rows and its own unit
    assert a.m == b.m == base.m + 1
    for x, z in zip((a.W, a.V, a.c, b.W, b.V, b.c),
                    (base.W, base.V, base.c) * 2):
        assert np.array_equal(x[:-1], z)
    assert not np.array_equal(a.W[-1], b.W[-1])
    # no two models share memory, the newest and its model included
    for i, p in enumerate(models):
        for q in models[i + 1:]:
            assert not any(np.shares_memory(x, y)
                           for x in arrays(p) for y in arrays(q))
    for p, before in zip(models, bytes_before):
        assert [x.tobytes() for x in arrays(p)] == before
        assert not any(x.flags.writeable for x in arrays(p))
    # a refused unit leaves the model as it was
    with pytest.raises(ValueError):
        append_hidden_unit(a, [[np.nan] * n], [[0.0] * k], [0.0])
    assert [x.tobytes() for x in arrays(a)] == bytes_before[-3]


def test_an_append_chain_allocates_linear_bytes():
    # a chain of 4096 units appended in one call, as a compile appends a
    # level's units: the new model's W, V and c are one concatenation
    # each, so the peak is about the final arrays (1.6 times them at
    # most), the new model shares no memory with its model, and its model
    # keeps its bytes and stays read-only
    rng = np.random.default_rng(3)
    k, n, m = 3, 2, 4096
    p = random_params(k, n, 2, rng)
    w_out, w_in = rng.standard_normal((m, n)), rng.standard_normal((m, k))
    bias = rng.standard_normal(m)

    def arrays(q):
        return (q.W, q.V, q.b, q.c)

    before = [a.tobytes() for a in arrays(p)]
    tracemalloc.start()
    try:
        q = append_hidden_unit(p, w_out, w_in, bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.m == p.m + m
    assert peak <= 1.6 * (q.W.nbytes + q.V.nbytes + q.c.nbytes)
    assert not any(np.shares_memory(a, b)
                   for a in arrays(q) for b in arrays(p))
    assert [a.tobytes() for a in arrays(p)] == before
    assert not any(a.flags.writeable for a in arrays(p) + arrays(q))
    assert np.array_equal(q.W, np.concatenate((p.W, w_out)))
    assert np.array_equal(q.V, np.concatenate((p.V, w_in)))
    assert np.array_equal(q.c, np.concatenate((p.c, bias)))
    assert np.array_equal(q.b, p.b)


def test_params_refuse_arrays_of_the_wrong_shape():
    # each array must have its own shape: a transposed W, or a b of shape
    # (2, 1), is refused, not reshaped, naming the array and both shapes
    good = dict(W=np.arange(6.0).reshape(3, 2), V=np.zeros((3, 1)),
                b=np.zeros(2), c=np.zeros(3))
    assert CrbmParams(1, 2, 3, **good).W.tolist() == good["W"].tolist()
    for name, bad, want in (("W", np.arange(6.0).reshape(2, 3), (3, 2)),
                            ("W", np.arange(6.0), (3, 2)),
                            ("V", np.zeros((1, 3)), (3, 1)),
                            ("b", np.zeros((2, 1)), (2,)),
                            ("c", np.zeros((3, 1)), (3,))):
        message = f"{name} must have shape {want}, got {bad.shape}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            CrbmParams(1, 2, 3, **{**good, name: bad})
    # a model's arrays are copies: the caller's array stays writable
    W = np.zeros((3, 2))
    CrbmParams(1, 2, 3, W, np.zeros((3, 1)), np.zeros(2), np.zeros(3))
    assert W.flags.writeable


def test_a_model_does_not_follow_writes_into_the_callers_arrays():
    # writing into the array a model was made from leaves the model as it
    # was: with one hidden unit off, the row stays uniform, not the
    # [0.013, 0.987] a unit of output weight 5 would make.  Only arrays
    # handed over (copy=False) are held, made read-only
    W = np.zeros((1, 1))
    p = CrbmParams(0, 1, 1, W, np.zeros((1, 0)), np.zeros(1), np.zeros(1))
    W[0, 0] = 5.0
    assert eval_conditional(p).rows.tolist() == [[0.5, 0.5]]
    theta = np.zeros(3)
    q = CrbmParams.from_vector(0, 1, 1, theta)
    theta[0] = 5.0
    assert eval_conditional(q).rows.tolist() == [[0.5, 0.5]]
    c = np.zeros(1)
    handed = CrbmParams(0, 1, 1, W, np.zeros((1, 0)), np.zeros(1), c,
                        copy=False)
    assert handed.c is c and not c.flags.writeable
    assert not np.shares_memory(handed.c, p.c)


def test_two_readings_of_the_model_agree():
    # conditionals of the k+n visible RBM equal the direct evaluation
    rng = np.random.default_rng(6)
    for k, n, m in [(1, 1, 1), (2, 1, 2), (1, 2, 2)]:
        p = random_params(k, n, m, rng)
        # the same weights read as an RBM over all k+n visibles, inputs unbiased
        rbm = CrbmParams(0, k + n, m, np.concatenate([p.V, p.W], axis=1),
                         np.zeros((m, 0)), np.concatenate([np.zeros(k), p.b]), p.c)
        joint = eval_joint_rbm(rbm)
        table = conditional_of_joint(joint, k)
        assert tv_row_distance(table, eval_conditional(p)) < 1e-12


def test_bias_shift_tilts_all_rows_equally():
    rng = np.random.default_rng(9)
    p = random_params(2, 2, 1, rng)
    delta = np.array([0.7, -0.4])
    q = CrbmParams(p.k, p.n, p.m, p.W, p.V, p.b + delta, p.c)
    y_bits = np.array([[y & 1, (y >> 1) & 1] for y in range(4)], dtype=float)
    tilt = np.exp(y_bits @ delta)
    before, after = eval_conditional(p).rows, eval_conditional(q).rows
    tilted = before * tilt
    tilted /= tilted.sum(axis=1, keepdims=True)
    assert np.abs(after - tilted).max() < 1e-12


def test_hidden_bias_shift_unobservable_for_zero_weight_unit():
    p = append_hidden_unit(zero_params(1, 1, 0), [[0.0]], [[0.0]], [0.0])
    q = append_hidden_unit(zero_params(1, 1, 0), [[0.0]], [[0.0]], [5.0])
    assert np.abs(eval_conditional(p).rows - eval_conditional(q).rows).max() < 1e-12


def test_jacobian_rows_of_each_block_sum_to_zero():
    rng = np.random.default_rng(11)
    p = random_params(2, 1, 2, rng)
    jac = conditional_jacobian(p)
    per_block = jac.reshape(1 << p.k, 1 << p.n, -1).sum(axis=1)
    assert np.abs(per_block).max() < 1e-12


def test_jacobian_m0_softmax_covariance():
    b = np.array([0.2, -0.5])
    p = CrbmParams.bias_only(1, 2, b)
    jac = conditional_jacobian(p)
    rows = eval_conditional(p).rows
    y_bits = np.array([[y & 1, (y >> 1) & 1] for y in range(4)], dtype=float)
    for x in range(2):
        mean = rows[x] @ y_bits
        for y in range(4):
            expect = rows[x, y] * (y_bits[y] - mean)
            assert np.allclose(jac[x * 4 + y, :2], expect)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2, 2), (2, 2, 1)])
def test_jacobian_matches_finite_differences(shape):
    k, n, m = shape
    rng = np.random.default_rng(sum(shape))
    h = 1e-5
    for _ in range(20):
        p = random_params(k, n, m, rng)
        jac = conditional_jacobian(p)
        theta = p.vector()

        def table_at(th):
            q = CrbmParams.from_vector(k, n, m, th)
            return eval_conditional(q).rows.reshape(-1)

        fd = np.empty_like(jac)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[:, j] = (table_at(tp) - table_at(tm)) / (2 * h)
        assert np.abs(jac - fd).max() <= 1e-6


@pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 4), (3, 2, 0),
                                   (0, 1, 0), (1, 1, 1)])
def test_log_grad_diffs_match_a_per_state_reference(shape):
    # g(x, y) = d log G / d theta = (s y^T, s x^T, y, s), s = sigmoid(V x +
    # W y + c), one state at a time; the builder returns g(x, y) - g(x, 0)
    k, n, m = shape
    p = random_params(k, n, m, np.random.default_rng(sum(shape)))

    def grad(x, y):
        s = 1.0 / (1.0 + np.exp(-(p.V @ x + p.W @ y + p.c)))
        return np.concatenate([np.outer(s, y).ravel(), np.outer(s, x).ravel(),
                               y, s])

    X, Y = state_bits(k), state_bits(n)
    want = np.array([[grad(x, y) - grad(x, Y[0]) for y in Y[1:]] for x in X])
    got = crbm._sigmoid_diffs(p)
    assert got.shape == ((1 << k), (1 << n) - 1, p.param_count)
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 4), (3, 2, 0), (1, 1, 1)])
def test_theta_vector_round_trips_in_jacobian_column_order(shape):
    # theta = (W, V, b, c), W and V row-major: the Jacobian's column order
    k, n, m = shape
    p = random_params(k, n, m, np.random.default_rng(sum(shape)))
    theta = p.vector()
    assert theta.shape == (p.param_count,)
    assert np.array_equal(theta, np.concatenate([p.W.ravel(), p.V.ravel(),
                                                 p.b, p.c]))
    q = CrbmParams.from_vector(k, n, m, theta)
    for name in "WVbc":
        assert np.array_equal(getattr(q, name), getattr(p, name))
    # from_vector copies: the model does not move with its argument
    theta[:] = 0.0
    assert np.array_equal(q.vector(), p.vector())
    with pytest.raises(ShapeMismatch):
        CrbmParams.from_vector(k, n, m, np.zeros(p.param_count + 1))


@pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 4), (3, 2, 0), (4, 4, 30)])
def test_random_params_draws_w_v_b_c_in_order(shape):
    # one draw of P normals is the four draws of W, V, b and c in turn
    k, n, m = shape
    p = random_params(k, n, m, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for name, size in (("W", (m, n)), ("V", (m, k)), ("b", n), ("c", m)):
        assert np.array_equal(getattr(p, name), rng.standard_normal(size))


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        eval_conditional(zero_params(13, 13, 13))


def unblocked_logits(p):
    """The logits from the whole (2^k, 2^n, m) activation array at once."""
    X, Y = state_bits(p.k), state_bits(p.n)
    act = (X @ p.V.T)[:, None, :] + (Y @ p.W.T)[None, :, :] + p.c
    return (Y @ p.b)[None, :] + np.logaddexp(0.0, act).sum(axis=2)


EVAL_SIZES = [(0, 3, 0), (3, 2, 0), (2, 3, 5), (4, 1, 7), (0, 6, 9), (5, 3, 20)]


@pytest.mark.parametrize("k,n,m", EVAL_SIZES)
def test_blocks_sum_like_one_block(k, n, m, monkeypatch):
    # each cell sums its m softplus terms in the same order whatever the
    # block size, so the logits equal the unblocked sum bit for bit; 7 and
    # 50 cells leave partial blocks of rows and of columns
    theta = 3.0 * np.random.default_rng(100 * k + 10 * n + m).standard_normal(
        (k + n + 1) * m + n)
    p = CrbmParams.from_vector(k, n, m, theta)
    unblocked = unblocked_logits(p)
    assert np.array_equal(conditional_logits(p), unblocked)
    for cells in (1, 7, 50):
        monkeypatch.setattr(crbm, "_BLOCK_CELLS", cells)
        assert np.array_equal(conditional_logits(p), unblocked)


def test_eval_cells_is_the_evaluation_price():
    assert eval_cells(2, 3, 0) == 32
    assert eval_cells(2, 3, 5) == 32 + (4 + 8) * 5
    # a compile at (12, 2) with 3507 units, and a full field at n = 13
    assert eval_cells(12, 2, 3507) == 14395084
    assert eval_cells(0, 13, 8178) == 67010546


@pytest.mark.parametrize("k,n,m", [(10, 3, 1000), (0, 12, 2000)])
def test_blocked_evaluation_peak_memory(k, n, m):
    # 8.2M activations, four blocks; at k = 0 the blocks split the one input
    # row.  The peak is the priced output and factor tables plus one block,
    # whose softplus is taken in place (the bound allows a temporary too)
    p = random_params(k, n, m, np.random.default_rng(0))
    assert (1 << (k + n)) * m > 3 * crbm._BLOCK_CELLS
    tracemalloc.start()
    try:
        logits = conditional_logits(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (eval_cells(k, n, m) + 2 * crbm._BLOCK_CELLS)
    assert np.array_equal(logits, unblocked_logits(p))
