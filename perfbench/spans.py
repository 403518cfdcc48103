"""Spans around crbmkit's public functions, recorded from outside the package.

``Tracer.install`` replaces a function where a calling module binds it
(``crbmkit.compiler.apply_sharing_log``, ``crbmkit.dimension.numeric_rank``,
...) with a wrapper that records one span per call: its name, start, end,
parent span, the op it belongs to, and the exception that left it, if any.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded and strictly nested, so children never
overlap each other and lie inside their parent.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

#: (module, attribute, span name): the bindings the benchmark reaches.
#: A module's own binding is patched, so calls made by that module are seen.
BINDINGS = [
    # public entry points as the benchmark binds them (via the package)
    ("crbmkit", "compile_universal", "compiler.compile"),
    ("crbmkit", "compile_common_support", "compiler.compile"),
    ("crbmkit", "compile_partition", "compiler.compile"),
    ("crbmkit", "compile_support_points", "compiler.compile"),
    ("crbmkit", "divergence_witness", "compiler.compile"),
    ("crbmkit", "certify_dimension", "dimension.certify"),
    ("crbmkit", "compile_mrf_to_rbm", "mrf.compile"),
    ("crbmkit", "compile_conditional_mrf", "mrf.compile"),
    # the same entry points as the CLI binds them
    ("crbmkit.cli", "compile_universal", "compiler.compile"),
    ("crbmkit.cli", "compile_common_support", "compiler.compile"),
    ("crbmkit.cli", "compile_partition", "compiler.compile"),
    ("crbmkit.cli", "compile_support_points", "compiler.compile"),
    ("crbmkit.cli", "divergence_witness", "compiler.compile"),
    ("crbmkit.cli", "certify_dimension", "dimension.certify"),
    ("crbmkit.cli", "compile_mrf_to_rbm", "mrf.compile"),
    ("crbmkit.cli", "compile_conditional_mrf", "mrf.compile"),
    ("crbmkit.cli", "eval_conditional", "crbm.eval"),
    # compiler -> sharing, crbm, packing
    ("crbmkit.compiler", "compile_partition", "compiler.compile"),
    ("crbmkit.compiler", "build_tilted_step", "sharing.tilt"),
    ("crbmkit.compiler", "apply_sharing_log", "sharing.apply"),
    ("crbmkit.compiler", "hidden_unit_from_log", "sharing.unit"),
    ("crbmkit.compiler", "mixture_weight_profile", "sharing.profile"),
    ("crbmkit.compiler", "append_hidden_unit", "crbm.append"),
    ("crbmkit.compiler", "eval_conditional", "crbm.eval"),
    ("crbmkit.compiler", "build_packing", "packing.build"),
    # dimension -> crbm, bounds
    ("crbmkit.dimension", "numeric_rank", "dimension.numeric"),
    ("crbmkit.dimension", "tropical_rank_mod_inputs", "dimension.tropical"),
    ("crbmkit.dimension", "conditional_jacobian", "crbm.jacobian"),
    ("crbmkit.dimension", "expected_dim", "bounds.expected"),
    ("crbmkit.bounds", "code_A_exact", "bounds.code"),
    ("crbmkit.bounds", "code_K_exact", "bounds.code"),
    # mrf internals
    ("crbmkit.mrf", "compile_mrf_to_rbm", "mrf.compile"),
    ("crbmkit.mrf", "younes_solve", "mrf.solve"),
    ("crbmkit.mrf", "mobius_coefficients", "mrf.mobius"),
    # packing and crbm as the CLI reaches them (module attribute lookups)
    ("crbmkit.packing", "build_packing", "packing.build"),
    ("crbmkit.packing", "validate_packing", "packing.validate"),
    ("crbmkit.crbm", "eval_joint_rbm", "crbm.eval"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    op: int              # the op the span belongs to, -1 outside ops
    error: str | None = None
    rows: int = 0        # enumeration rows, recorded for the tropical rank


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count_rows = name == "dimension.tropical"   # (k, n, m, slicings)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            if count_rows:
                span.rows = 1 << (args[0] + args[1])
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Wrap every binding whose module has already been imported.

        Also counts the compiler's tau levels: each level starts a fresh
        bias-only model, so the compiler's ``CrbmParams`` binding is replaced
        by a subclass whose ``bias_only`` records a ``compiler.level`` span.
        """
        for mod_name, attr, span_name in bindings:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span_name, fn))
        compiler = sys.modules["crbmkit.compiler"]
        base = compiler.CrbmParams
        counted = type("CrbmParams", (base,), {
            "bias_only": staticmethod(self.wrap("compiler.level", base.bias_only))})
        self._saved.append((compiler, "CrbmParams", base))
        compiler.CrbmParams = counted

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-op layer figures over the spans that belong to one of ``ops`` ops.

    ``*_s`` are self seconds per op, ``*_calls`` calls per op, ``errors``
    exceptions per op that left the layer's outermost span.  Spans recorded
    outside ops (``op == -1``, e.g. during warm-up) are skipped.
    """
    own = self_times(spans)
    tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    rows = 0
    for s, t in zip(spans, own):
        if s.op < 0:
            continue
        tot[s.name] = tot.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        rows += s.rows
        outer = s.parent < 0 or spans[s.parent].name.split(".")[0] != s.name.split(".")[0]
        if s.error is not None and outer:
            layer = s.name.split(".")[0]
            errors[layer] = errors.get(layer, 0) + 1
            key = f"{layer}.errors.{s.error}"
            errors[key] = errors.get(key, 0) + 1
    per = 1.0 / max(ops, 1)
    appended = calls.get("crbm.append", 0)
    trials = calls.get("sharing.apply", 0) - appended
    return {
        "sharing.tilt_s": tot.get("sharing.tilt", 0.0) * per,
        "sharing.tilt_calls": calls.get("sharing.tilt", 0) * per,
        "sharing.apply_s": tot.get("sharing.apply", 0.0) * per,
        "sharing.apply_calls": calls.get("sharing.apply", 0) * per,
        "sharing.unit_s": tot.get("sharing.unit", 0.0) * per,
        "sharing.accept_ratio": appended / trials if trials > 0 else 0.0,
        "compiler.self_s": tot.get("compiler.compile", 0.0) * per,
        "compiler.tau_levels": calls.get("compiler.level", 0) * per,
        "compiler.errors": errors.get("compiler", 0) * per,
        "compiler.errors.BudgetExceeded":
            errors.get("compiler.errors.BudgetExceeded", 0) * per,
        "compiler.errors.CapExceeded":
            errors.get("compiler.errors.CapExceeded", 0) * per,
        "crbm.append_s": tot.get("crbm.append", 0.0) * per,
        "crbm.eval_s": tot.get("crbm.eval", 0.0) * per,
        "crbm.eval_calls": calls.get("crbm.eval", 0) * per,
        "crbm.errors": errors.get("crbm", 0) * per,
        "crbm.jacobian_s": tot.get("crbm.jacobian", 0.0) * per,
        "dimension.tropical_s": tot.get("dimension.tropical", 0.0) * per,
        "dimension.tropical_rows": rows * per,
        "dimension.numeric_s": tot.get("dimension.numeric", 0.0) * per,
        "packing.build_s": tot.get("packing.build", 0.0) * per,
        "packing.validate_s": tot.get("packing.validate", 0.0) * per,
        "mrf.solve_s": tot.get("mrf.solve", 0.0) * per,
        "mrf.solve_calls": calls.get("mrf.solve", 0) * per,
        "mrf.mobius_s": tot.get("mrf.mobius", 0.0) * per,
        "mrf.self_s": tot.get("mrf.compile", 0.0) * per,
        "mrf.errors": errors.get("mrf", 0) * per,
    }


def code_seconds(spans: list[Span]) -> float:
    """Self seconds in the bounds module's code-size solvers, warm-up included."""
    return sum(t for s, t in zip(spans, self_times(spans)) if s.name == "bounds.code")


def code_cache_misses() -> int:
    """``cache_info()`` misses of ``code_A_exact`` and ``code_K_exact`` in this
    process; 0 once they are no longer cached functions."""
    bounds = sys.modules.get("crbmkit.bounds")
    total = 0
    for name in ("code_A_exact", "code_K_exact"):
        fn = getattr(bounds, name, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            total += fn.cache_info().misses
    return total
