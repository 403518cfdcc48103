"""Constructive compilation and certification toolkit for conditional RBMs.

The package turns constructive existence arguments about conditional
restricted Boltzmann machines into executable procedures: compiling target
conditional tables into explicit weights, certifying model dimension,
evaluating divergence bounds, and compiling Markov random fields and
threshold networks into (C)RBM parameters, with every construction checked
against brute-force oracles at desk scale.

``import crbmkit`` loads no submodule: each public name below is imported
from its defining module on first use (PEP 562) and kept here after that.
"""

from importlib import import_module

#: the public names by the submodule that defines them: the package's one
#: list of them.  The CLI resolves the library names it calls by this map,
#: and every exported function has a caller in another library module.
_EXPORTS = {
    "bitspace": ("ball_members", "check_cells", "cylinder_members",
                 "star_cylinder", "star_members"),
    "bounds": ("BoundsReport", "deterministic_m_bounds", "divergence_upper",
               "expected_dim", "universal_m_table"),
    "compiler": ("CompileReport", "compile_common_support", "compile_partition",
                 "compile_support_points", "compile_universal",
                 "divergence_witness"),
    "crbm": ("CrbmParams", "append_hidden_unit", "conditional_jacobian",
             "eval_cells", "eval_conditional", "eval_joint_rbm"),
    "dimension": ("DimensionReport", "certify_dimension"),
    "distributions": ("ConditionalTable", "Dist", "conditional_of_joint",
                      "kl_conditional", "random_conditional",
                      "tv_row_distance"),
    "ltn": ("ThresholdNet", "check_deter_fixed_point", "embed_ltn_in_crbm",
            "embed_sigmoid_output", "ltn_table", "parity_net"),
    "mrf": ("MrfModel", "SimplicialComplex", "compile_conditional_mrf",
            "compile_mrf_to_rbm", "conditional_budget", "mrf_distribution"),
    "packing": ("PackingSequence", "build_packing", "s_value", "seq_values",
                "star_count", "validate_packing"),
    "sharing": ("SharingStep", "cylinders", "make_reset_step"),
    "verify": ("verify_all",),
}

#: the submodule that defines each public name
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
