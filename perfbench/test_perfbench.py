"""Tests of the benchmark's own pieces: statistics, oracle, spans, inputs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import numpy as np
import pytest

import crbmkit as ck
import mixes
import oracle
from common import PROBE_REF_S, latency_summary, speed_factors, tail_rule
from spans import Span, Tracer, layer_metrics, self_times


# -- tail percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, index, pct", [
    (1, 0, 100.0), (10, 9, 100.0), (11, 0, 100.0 / 11), (20, 9, 50.0),
    (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_rule(n, index, pct):
    assert tail_rule(n) == (index, pytest.approx(pct))


@pytest.mark.parametrize("n", [11, 34, 100, 257])
def test_tail_has_ten_samples_beyond(n):
    lat = list(np.random.default_rng(n).permutation(np.arange(1, n + 1)) / 1e3)
    s = latency_summary(lat)
    assert s["samples"] == n
    beyond = sum(1 for x in lat if 1e3 * x > s["tail_ms"])
    assert beyond == 10
    assert s["tail_percentile"] == pytest.approx(100.0 * (n - 10) / n)
    assert s["p50_ms"] == pytest.approx((n + 1) / 2)


def test_summary_counts_every_sample():
    s = latency_summary([0.002, 0.001, 0.003])
    assert s["samples"] == 3
    assert s["p50_ms"] == pytest.approx(2.0)
    assert s["tail_ms"] == pytest.approx(3.0) and s["tail_percentile"] == 100.0


def test_speed_factors_follow_the_nearby_probes():
    probes = [2e-3] * 6 + [4e-3] * 12
    f = speed_factors(probes)
    assert len(f) == len(probes)
    assert f[0] == pytest.approx(PROBE_REF_S / 2e-3)
    assert f[-1] == pytest.approx(PROBE_REF_S / 4e-3)
    assert f[5] == pytest.approx(PROBE_REF_S / 2e-3)   # window 1..9: 5 fast, 4 slow
    assert f[6] == pytest.approx(PROBE_REF_S / 4e-3)   # window 2..10: 4 fast, 5 slow


# -- oracle against crbmkit inside its cap -----------------------------------

@pytest.mark.parametrize("k, n, m", [(1, 1, 1), (2, 2, 3), (3, 2, 5), (2, 3, 0)])
def test_oracle_matches_eval_conditional(k, n, m):
    rng = np.random.default_rng(100 * k + 10 * n + m)
    p = ck.CrbmParams(k, n, m, 3 * rng.standard_normal((m, n)),
                      3 * rng.standard_normal((m, k)), rng.standard_normal(n),
                      rng.standard_normal(m))
    want = ck.eval_conditional(p).rows
    got = oracle.crbm_rows(oracle.params_dict(p))
    assert np.abs(got - want).max() < 1e-12


def test_oracle_chunks_agree_with_one_block(monkeypatch):
    rng = np.random.default_rng(5)
    p = ck.CrbmParams(4, 2, 6, rng.standard_normal((6, 2)),
                      rng.standard_normal((6, 4)), rng.standard_normal(2),
                      rng.standard_normal(6))
    whole = oracle.crbm_rows(oracle.params_dict(p))
    monkeypatch.setattr(oracle, "CHUNK_ELEMS", 1)
    assert np.abs(oracle.crbm_rows(oracle.params_dict(p)) - whole).max() < 1e-15


def test_oracle_mrf_checks_pass_on_compiled_fields():
    cx = ck.SimplicialComplex.full(4)
    faces = sorted(cx.faces)
    theta = {a: float(t) for a, t in zip(
        faces[1:], np.random.default_rng(3).standard_normal(len(faces) - 1))}
    model = ck.MrfModel(cx, theta)
    params, corr = ck.compile_mrf_to_rbm(model)
    assert oracle.check_mrf_joint(4, faces, theta, oracle.params_dict(params),
                                  corr.probs) is None
    cparams = ck.compile_conditional_mrf(model, 2)
    assert oracle.check_mrf_conditional(4, faces, theta, 2,
                                        oracle.params_dict(cparams)) is None
    theta_off = dict(theta)
    theta_off[faces[-1]] += 0.1
    assert oracle.check_mrf_joint(4, faces, theta_off, oracle.params_dict(params),
                                  corr.probs) is not None


def test_oracle_rejects_a_wrong_compile():
    rows = np.random.default_rng(0).dirichlet(np.ones(4), size=4)
    params, rep = ck.compile_universal(ck.ConditionalTable(2, 2, rows), eps=1e-2)
    d = oracle.params_dict(params)
    want = oracle.clamp_rows(rows, 2, 1e-2)
    assert oracle.check_compiled(d, want, 1e-2, rep.budget_bound, params.m) is None
    assert oracle.check_compiled(d, want[::-1], 1e-2, rep.budget_bound,
                                 params.m) is not None
    assert oracle.check_compiled(d, want, 1e-2, params.m - 1, params.m) is not None


def test_certificate_check():
    assert oracle.check_certificate(1, 3, 1, 8, 8, 8) is None
    assert oracle.check_certificate(1, 3, 1, 7, 7, 8) is not None
    assert oracle.check_certificate(2, 3, 3, 21, 15, 21) is None
    assert oracle.check_certificate(2, 3, 3, 21, 22, 21) is not None


# -- self time on nested synthetic spans -----------------------------------

def _span(name, start, end, parent, op=0, error=None):
    return Span(name, start, end, parent, op, error)


def test_self_times_subtract_direct_children():
    spans = [
        _span("compiler.compile", 0.0, 10.0, -1),
        _span("sharing.tilt", 1.0, 4.0, 0),
        _span("crbm.eval", 2.0, 3.0, 1),
        _span("sharing.apply", 5.0, 9.0, 0),
        _span("compiler.compile", 20.0, 21.5, -1, op=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_layer_metrics_per_op_and_outermost_errors():
    spans = [
        _span("compiler.compile", 0.0, 10.0, -1, op=-1),      # warm-up: skipped
        _span("compiler.compile", 0.0, 4.0, -1, op=0, error="CapExceeded"),
        _span("compiler.compile", 0.5, 3.0, 1, op=0, error="CapExceeded"),
        _span("crbm.eval", 1.0, 2.0, 2, op=0, error="CapExceeded"),
        _span("sharing.apply", 5.0, 6.0, -1, op=1),
        _span("sharing.apply", 6.0, 6.5, -1, op=1),
        _span("crbm.append", 6.5, 7.0, -1, op=1),
    ]
    m = layer_metrics(spans, ops=2)
    assert m["compiler.self_s"] == pytest.approx((1.5 + 1.5) / 2)
    assert m["crbm.eval_s"] == pytest.approx(0.5)
    assert m["compiler.errors"] == pytest.approx(0.5)     # nested call counted once
    assert m["compiler.errors.CapExceeded"] == pytest.approx(0.5)
    assert m["crbm.errors"] == pytest.approx(0.5)
    assert m["sharing.apply_calls"] == pytest.approx(1.0)
    assert m["sharing.accept_ratio"] == pytest.approx(1.0)   # 1 unit / (2 - 1)


def test_tracer_restores_bindings_and_sees_layers():
    import crbmkit.compiler as compiler
    before = (compiler.apply_sharing_log, compiler.CrbmParams, ck.compile_universal)
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        ck.compile_universal(ck.random_conditional(2, 1, 0))
    finally:
        tracer.uninstall()
    assert (compiler.apply_sharing_log, compiler.CrbmParams,
            ck.compile_universal) == before
    names = {s.name for s in tracer.spans}
    assert {"compiler.compile", "compiler.level", "sharing.tilt",
            "sharing.apply", "crbm.append", "crbm.eval"} <= names
    assert sum(s.parent < 0 for s in tracer.spans) == 1


# -- inputs are a function of the seed -------------------------------------

def _input_bytes(ops) -> list[bytes]:
    return [repr((op.kind, op.size)).encode() + op.inputs for op in ops]


@pytest.mark.parametrize("build", [mixes.compile_round, mixes.certify_round,
                                   mixes.mrf_round])
def test_same_seed_same_inputs(build):
    a = _input_bytes(build(ck, 7, 0))
    assert a == _input_bytes(build(ck, 7, 0))
    assert a != _input_bytes(build(ck, 8, 0))
    assert a != _input_bytes(build(ck, 7, 1))


def test_same_seed_same_cli_files(tmp_path):
    schemas = mixes.load_schemas()
    runs = {}
    for d, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / d).mkdir()
        ops = mixes.cli_round(seed, 0, tmp_path / d, None, schemas)
        runs[d] = [op.inputs.replace(str(tmp_path / d).encode(), b"") for op in ops]
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]
