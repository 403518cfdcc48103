"""Constructive compilation and certification toolkit for conditional RBMs.

The package turns constructive existence arguments about conditional
restricted Boltzmann machines into executable procedures: compiling target
conditional tables into explicit weights, certifying model dimension,
evaluating divergence bounds, and compiling Markov random fields and
threshold networks into (C)RBM parameters, with every construction checked
against brute-force oracles at desk scale.
"""

from .bitspace import ball_members, cylinder_members, star_members
from .bounds import (
    BoundsReport,
    code_A_exact,
    code_A_lower,
    code_K_exact,
    code_K_upper,
    deterministic_m_bounds,
    divergence_upper,
    expected_dim,
    universal_m_table,
)
from .compiler import (
    CompileReport,
    compile_common_support,
    compile_partition,
    compile_support_points,
    compile_universal,
    divergence_witness,
)
from .crbm import (
    CrbmParams,
    append_hidden_unit,
    conditional_jacobian,
    eval_conditional,
    eval_joint_rbm,
)
from .dimension import (
    DimensionReport,
    certify_dimension,
    crbm_dimension_estimate,
    numeric_rank,
    tropical_rank_mod_inputs,
)
from .distributions import (
    ConditionalTable,
    Dist,
    conditional_of_joint,
    hadamard,
    kl_conditional,
    kl_dist,
    random_conditional,
    tv_row_distance,
)
from .ltn import (
    ThresholdNet,
    check_deter_fixed_point,
    embed_ltn_in_crbm,
    embed_sigmoid_output,
    parity_net,
)
from .mrf import (
    MrfModel,
    SimplicialComplex,
    compile_conditional_mrf,
    compile_mrf_to_rbm,
    mrf_distribution,
    younes_solve,
)
from .packing import (
    PackingSequence,
    build_packing,
    seq_values,
    validate_packing,
)
from .sharing import SharingStep, make_reset_step
from .verify import verify_all

__version__ = "0.1.0"
