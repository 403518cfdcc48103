"""Every exported pipeline refuses an oversized enumeration at its entry.

The limit is patched down to 4 cells, so each small call below is over it;
spies show that no packing, tau level, sharing step, Younes solve, joint MRF
compile, energy-table transform or rank draw ran first.
"""

import numpy as np
import pytest

from crbmkit import bitspace, compiler, dimension, mrf
from crbmkit.crbm import CrbmParams, conditional_jacobian, conditional_logits
from crbmkit.distributions import ConditionalTable
from crbmkit.errors import CapExceeded
from crbmkit.mrf import compile_mrf_to_rbm
from crbmkit.packing import build_packing

LIMIT = 4


def zero_params(k, n, m):
    """The CRBM with every weight and bias 0."""
    return CrbmParams(k, n, m, np.zeros((m, n)), np.zeros((m, k)),
                      np.zeros(n), np.zeros(m))


def table(k, n, support=None):
    rows = np.full((1 << k, 1 << n), 1.0 / (1 << n))
    if support is not None:
        rows[:] = 0.0
        rows[:, support] = 1.0 / len(support)
    return ConditionalTable(k, n, rows)


def field():
    full = mrf.SimplicialComplex.full(3)
    return mrf.MrfModel(full, {a: 0.5 for a in full.faces if a})


#: built at the real limit: the complex's own price is over the patched one
FIELD = field()


PIPELINES = {
    "conditional_logits": lambda: conditional_logits(zero_params(2, 1, 1)),
    "conditional_jacobian": lambda: conditional_jacobian(zero_params(1, 1, 1)),
    "compile_universal": lambda: compiler.compile_universal(table(2, 1)),
    "compile_common_support": lambda: compiler.compile_common_support(
        table(2, 2, support=[0, 3])),
    "compile_partition": lambda: compiler.compile_partition(table(2, 2), 1),
    "compile_partition_one_block": lambda: compiler.compile_partition(
        table(2, 2), 0),
    "compile_support_points": lambda: compiler.compile_support_points(
        table(2, 1, support=[0])),
    "divergence_witness": lambda: compiler.divergence_witness(table(2, 2), 6),
    # no unit to spend: the single-block partition
    "divergence_witness_no_units": lambda: compiler.divergence_witness(
        table(2, 2), 0),
    "certify_dimension": lambda: dimension.certify_dimension(1, 1, 1),
    "build_packing": lambda: build_packing(3, 1),
    "compile_mrf_to_rbm": lambda: compile_mrf_to_rbm(FIELD),
    "compile_conditional_mrf": lambda: mrf.compile_conditional_mrf(FIELD, 1),
    "mrf_distribution": lambda: mrf.mrf_distribution(FIELD),
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_refuses_at_entry(name, monkeypatch):
    calls = []

    def spy(module, attr):
        fn = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            lambda *a, **kw: calls.append(attr) or fn(*a, **kw))

    spy(compiler, "build_packing")
    spy(compiler, "_Pipeline")  # one per tau level
    spy(compiler, "build_tilted_step")
    spy(mrf, "younes_solve")
    spy(mrf, "compile_mrf_to_rbm")  # no pipeline calls it, the conditional neither
    spy(mrf, "mobius_forward")  # the energy table's, so the joint correction's
    spy(dimension, "numeric_rank")
    monkeypatch.setattr(bitspace, "MAX_CELLS", LIMIT)
    with pytest.raises(CapExceeded) as exc:
        PIPELINES[name]()
    assert f"above the limit MAX_CELLS = {LIMIT}" in str(exc.value)
    assert calls == []


def test_certify_refuses_at_entry_once_its_certificate_is_cached(monkeypatch):
    # the tropical certificate is kept per (k, n, m); the limit is not
    dimension.certify_dimension(1, 1, 1)
    assert dimension._certificate.cache_info().currsize >= 1
    calls = []
    rank = dimension.numeric_rank
    monkeypatch.setattr(dimension, "numeric_rank",
                        lambda *a: calls.append(a) or rank(*a))
    monkeypatch.setattr(bitspace, "MAX_CELLS", LIMIT)
    with pytest.raises(CapExceeded) as exc:
        dimension.certify_dimension(1, 1, 1)
    assert f"above the limit MAX_CELLS = {LIMIT}" in str(exc.value)
    assert calls == []
