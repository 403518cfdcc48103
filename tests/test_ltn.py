import re

import numpy as np
import pytest

from crbmkit.bitspace import state_bits
from crbmkit.crbm import CrbmParams, eval_conditional, random_params
from crbmkit.distributions import ConditionalTable, tv_row_distance
from crbmkit.errors import NotGeneric, ShapeMismatch, TieEncountered
from crbmkit import ltn
from crbmkit.ltn import (
    ThresholdNet,
    check_deter_fixed_point,
    embed_ltn_in_crbm,
    embed_sigmoid_output,
    ltn_table,
    parity_net,
    sigmoid_output_table,
)
from scipy.special import expit


def zero_params(k, n, m):
    """The CRBM with every weight and bias 0."""
    return CrbmParams(k, n, m, np.zeros((m, n)), np.zeros((m, k)),
                      np.zeros(n), np.zeros(m))


def ltn_eval(net, x):
    """Per-input oracle: y = hs(W^T hs(V x + c) + b) as a state index; ties
    raise."""
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


def sigmoid_row(net, x):
    """Per-input oracle of sigmoid_output_table's row x."""
    z = (net.V @ state_bits(net.k, x) + net.c > 0).astype(float)
    probs = expit(net.W.T @ z + net.b)
    return np.array([np.prod(np.where(state_bits(net.n, y) == 1, probs, 1 - probs))
                     for y in range(1 << net.n)])


def fixed_point_holds(params, outputs):
    """Per-input oracle of check_deter_fixed_point."""
    for x in range(1 << params.k):
        fx = state_bits(params.n, outputs[x])
        pre1 = params.W @ fx + params.V @ state_bits(params.k, x) + params.c
        if np.any(pre1 == 0):
            return False
        pre2 = params.W.T @ (pre1 > 0).astype(float) + params.b
        if np.any(pre2 == 0):
            return False
        if int((pre2 > 0).astype(int) @ (1 << np.arange(params.n))) != outputs[x]:
            return False
    return True


def test_ltn_eval_examples():
    # zero weights, negative biases: the constant zero map
    net = ThresholdNet(2, 2, 2, np.zeros((2, 2)), -np.ones(2),
                       np.zeros((2, 2)), -np.ones(2))
    assert all(ltn_eval(net, x) == 0 for x in range(4))

    # identity passthrough
    k = 3
    net = ThresholdNet(k, k, k, 2 * np.eye(k), -np.ones(k),
                       2 * np.eye(k), -np.ones(k))
    assert all(ltn_eval(net, x) == x for x in range(1 << k))

    # XOR truth table
    net = parity_net(2)
    assert [ltn_eval(net, x) for x in range(4)] == [0, 1, 1, 0]


def test_net_refuses_arrays_of_the_wrong_shape():
    # each array must have its own shape: a transposed W, which a reshape
    # would read as [[0, 1, 2], [3, 4, 5]], or a c of shape (2, 1), is
    # refused, naming the array and both shapes
    good = dict(V=np.arange(2.0).reshape(2, 1), c=np.zeros(2),
                W=np.arange(6.0).reshape(2, 3), b=np.zeros(3))
    assert ThresholdNet(1, 2, 3, **good).W.tolist() == good["W"].tolist()
    for name, bad, want in (("W", np.arange(6.0).reshape(3, 2), (2, 3)),
                            ("V", np.arange(2.0).reshape(1, 2), (2, 1)),
                            ("c", np.zeros((2, 1)), (2,)),
                            ("b", np.zeros((3, 1)), (3,))):
        message = f"{name} must have shape {want}, got {bad.shape}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            ThresholdNet(1, 2, 3, **{**good, name: bad})
    # the net holds read-only copies: the caller's arrays stay writable,
    # and writing into them leaves the net as it was
    net = ThresholdNet(1, 2, 3, **good)
    good["W"][0, 0] = 9.0
    assert good["W"].flags.writeable and net.W[0, 0] == 0.0
    assert not any(a.flags.writeable for a in (net.V, net.c, net.W, net.b))


def test_ltn_eval_rejects_ties():
    net = ThresholdNet(1, 1, 1, np.zeros((1, 1)), np.zeros(1),
                       np.ones((1, 1)), np.zeros(1))
    for x in range(1 << net.k):
        with pytest.raises(TieEncountered):
            ltn_eval(net, x)


def test_ltn_table_raises_the_first_input_tie():
    # x = 0: the hidden unit is off (c = -1) and the output tie b = 0 is at
    # layer 2; x = 1: the hidden pre-activation 1 - 1 ties at layer 1
    net = ThresholdNet(1, 1, 1, [[1.0]], [-1.0], [[1.0]], [0.0])
    with pytest.raises(TieEncountered) as exc:
        ltn_eval(net, 0)
    assert exc.value.layer == 2
    with pytest.raises(TieEncountered) as exc:
        ltn_eval(net, 1)
    assert exc.value.layer == 1
    with pytest.raises(TieEncountered) as exc:
        ltn_table(net)
    assert (exc.value.layer, exc.value.unit) == (2, 0)

    # a layer-1 tie wins within its input: the second hidden unit ties at
    # x = 0, where the output also ties
    net = ThresholdNet(1, 2, 2, [[1.0], [1.0]], [-1.0, 0.0],
                       [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    with pytest.raises(TieEncountered) as exc:
        ltn_table(net)
    assert (exc.value.layer, exc.value.unit) == (1, 1)


def test_batched_tables_match_per_input_oracles():
    rng = np.random.default_rng(16)
    for _ in range(60):
        k, m, n = (int(v) for v in rng.integers(1, [9, 6, 4]))
        net = ThresholdNet(k, m, n, rng.standard_normal((m, k)),
                           rng.standard_normal(m), rng.standard_normal((m, n)),
                           rng.standard_normal(n))
        table = ltn_table(net)
        outputs = [ltn_eval(net, x) for x in range(1 << k)]
        assert np.array_equal(table.rows, np.eye(1 << n)[outputs])
        sig = sigmoid_output_table(net)
        want = np.array([sigmoid_row(net, x) for x in range(1 << k)])
        assert np.abs(sig.rows - want).max() <= 1e-15
        params = random_params(k, n, m, rng)
        for outs in (outputs, rng.integers(0, 1 << n, 1 << k).tolist()):
            assert check_deter_fixed_point(params, outs) == \
                fixed_point_holds(params, outs)
        # and on the net's own embedding and outputs
        embedded, _ = embed_ltn_in_crbm(net, eps=1e-3)
        assert check_deter_fixed_point(embedded, outputs) == \
            fixed_point_holds(embedded, outputs)
    # a tie only at layer 2 (W = 0, b = 0) fails although hs(0) = 0 matches
    tied = CrbmParams(1, 1, 1, [[0.0]], [[1.0]], [0.0], [0.5])
    assert not check_deter_fixed_point(tied, [0, 0])
    assert not fixed_point_holds(tied, [0, 0])


@pytest.mark.parametrize("k", range(1, 9))
def test_parity_net_truth_tables(k):
    net = parity_net(k)
    for x in range(1 << k):
        assert ltn_eval(net, x) == bin(x).count("1") % 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_parity_embedding(k):
    net = parity_net(k)
    params, t_used = embed_ltn_in_crbm(net, eps=1e-3)
    assert params.m == k
    target = ltn_table(net)
    assert tv_row_distance(eval_conditional(params), target) <= 1e-3
    outputs = [bin(x).count("1") % 2 for x in range(1 << k)]
    assert check_deter_fixed_point(params, outputs)


def test_embedding_trace_is_monotone():
    net = parity_net(3)
    params, t_used = embed_ltn_in_crbm(net, eps=1e-3)
    target = ltn_table(net)
    alpha_ratio = params.V[0, 0] / (t_used * net.V[0, 0])
    tvs = []
    t = 1.0
    while t <= t_used:
        p = CrbmParams(net.k, net.n, net.m, t * net.W,
                       t * alpha_ratio * net.V, t * net.b,
                       t * alpha_ratio * net.c)
        tvs.append(tv_row_distance(eval_conditional(p), target))
        t *= 2.0
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_embedding_random_generic_net():
    rng = np.random.default_rng(5)
    net = ThresholdNet(3, 4, 2,
                       rng.standard_normal((4, 3)), rng.standard_normal(4) + 0.1,
                       rng.standard_normal((4, 2)), rng.standard_normal(2) + 0.05)
    for x in range(1 << net.k):
        ltn_eval(net, x)  # generic: no pre-activation is zero, so no tie
    params, _ = embed_ltn_in_crbm(net, eps=1e-3)
    assert tv_row_distance(eval_conditional(params), ltn_table(net)) <= 1e-3


def test_embedding_constant_net_small_scale():
    net = ThresholdNet(2, 1, 1, np.zeros((1, 2)), -np.ones(1),
                       np.zeros((1, 1)), -np.ones(1))
    params, t_used = embed_ltn_in_crbm(net, eps=1e-3)
    table = eval_conditional(params)
    assert np.abs(table.rows[:, 0] - 1.0).max() <= 1e-3


def test_a_net_without_hidden_units_embeds_as_a_bias_only_crbm():
    # m = 0: no first-layer pre-activation to bound and no W row to
    # dominate, so alpha is 0 and only the output biases are scaled
    net = ThresholdNet(2, 0, 2, np.zeros((0, 2)), np.zeros(0),
                       np.zeros((0, 2)), np.array([0.5, -0.3]))
    params, t_used = embed_ltn_in_crbm(net, eps=1e-3)
    assert (params.m, t_used) == (0, 32.0)
    assert params.b.tolist() == [16.0, -9.6]
    assert tv_row_distance(eval_conditional(params), ltn_table(net)) <= 1e-3
    params = embed_sigmoid_output(net, eps=1e-3)
    assert params.m == 0 and params.b.tolist() == [0.5, -0.3]
    assert tv_row_distance(eval_conditional(params),
                           sigmoid_output_table(net)) <= 1e-12


def test_embed_rejects_non_generic():
    net = ThresholdNet(1, 1, 1, np.zeros((1, 1)), np.zeros(1),
                       np.ones((1, 1)), np.ones(1))
    with pytest.raises(NotGeneric):
        embed_ltn_in_crbm(net)


def test_sigmoid_output_examples():
    # zero output weights: every row is the same product of logistics
    rng = np.random.default_rng(6)
    b = rng.standard_normal(2)
    net = ThresholdNet(2, 2, 2, rng.standard_normal((2, 2)),
                       rng.standard_normal(2) + 0.2, np.zeros((2, 2)), b)
    params = embed_sigmoid_output(net, eps=1e-3)
    table = eval_conditional(params)
    probs = expit(b)
    want = np.array([
        np.prod(np.where([(y >> j) & 1 for j in range(2)], probs, 1 - probs))
        for y in range(4)])
    for x in range(4):
        assert np.abs(table.rows[x] - want).sum() <= 1e-3

    # hand instance k = m = n = 1: rows follow the logistic formula
    net = ThresholdNet(1, 1, 1, [[2.0]], [-1.0], [[0.7]], [-0.3])
    params = embed_sigmoid_output(net, eps=1e-3)
    table = eval_conditional(params)
    assert table.rows[0, 1] == pytest.approx(expit(-0.3), abs=1e-3)
    assert table.rows[1, 1] == pytest.approx(expit(0.4), abs=1e-3)


def test_sigmoid_output_random_instance():
    rng = np.random.default_rng(7)
    net = ThresholdNet(2, 2, 2, rng.standard_normal((2, 2)),
                       rng.standard_normal(2) + 0.3,
                       rng.standard_normal((2, 2)), rng.standard_normal(2))
    params = embed_sigmoid_output(net, eps=1e-3)
    oracle = sigmoid_output_table(net)
    assert tv_row_distance(eval_conditional(params), oracle) <= 1e-3


def test_fixed_point_checks():
    # zero parameters cannot satisfy the condition for XOR (all ties)
    zero = zero_params(2, 1, 2)
    assert not check_deter_fixed_point(zero, [0, 1, 1, 0])

    # constant-zero policy with strongly negative output bias
    p = CrbmParams(2, 1, 2, np.zeros((2, 1)), np.zeros((2, 2)),
                   np.array([-5.0]), np.ones(2))
    assert check_deter_fixed_point(p, [0, 0, 0, 0])


@pytest.mark.parametrize("outputs, match", [
    ([0, 3, 1, 0], r"^output 3 of input 1 lies outside \[0, 2\^n\) = \[0, 2\)$"),
    ([0, 1, 1, 2], r"^output 2 of input 3 lies outside \[0, 2\^n\) = \[0, 2\)$"),
    ([0, -1, 1, 0], r"^output -1 of input 1 lies outside \[0, 2\^n\) = \[0, 2\)$"),
    ([0, 1.5, 1, 0], r"^output 1\.5 of input 1 is not an integer$"),
])
def test_fixed_point_check_refuses_outputs_off_the_cube(outputs, match):
    # each output must be an output state, as ConditionalTable.deterministic
    # requires: one off the cube is refused, naming it and its input
    p = CrbmParams(2, 1, 2, np.zeros((2, 1)), np.zeros((2, 2)),
                   np.array([-5.0]), np.ones(2))
    with pytest.raises(ValueError, match=match):
        check_deter_fixed_point(p, outputs)
    with pytest.raises(ValueError, match=match):
        ConditionalTable.deterministic(2, 1, outputs)


def test_parity_budget_within_deterministic_bound():
    import math
    for k in range(1, 9):
        sufficient = min((1 << k) - 1, math.ceil(3 * 1 / (k + 2) * (1 << k)))
        assert parity_net(k).m == k <= max(sufficient, k)
        if k >= 2:
            assert k <= sufficient


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("embed", [embed_ltn_in_crbm, embed_sigmoid_output])
def test_embedding_refuses_a_bad_eps_at_entry(embed, eps, monkeypatch):
    # no table of the net is built and no scale is tried
    calls = []
    for name in ("ltn_table", "sigmoid_output_table", "eval_conditional"):
        monkeypatch.setattr(ltn, name, lambda *a, name=name: calls.append(name))
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        embed(parity_net(2), eps)
    assert calls == []
