"""Sub-extendability hierarchy and matrix-valued Martin-boundary toolkit."""

from .linalg import (
    Functional,
    LeggedOperator,
    contract_legs,
    eig_hermitian,
    hs_inner,
    is_psd,
    loewner_leq,
    min_eig,
    partial_transpose,
    psd_project,
    tensor,
    tensor_power,
)
from .symmetry import (
    LegPermutation,
    Partition,
    Symmetrizer,
    isotypic_projector,
    partitions_of,
    permute_legs,
    schur_weyl_table,
    sym_group_character,
    symmetrize,
)
from .hierarchy import (
    FeasibilityReport,
    SeparabilityReport,
    SolverOptions,
    SymSequence,
    ValidationReport,
    bell_projector,
    compress_chain,
    ppt_min_eig,
    product_probe,
    separability_verdict,
    sub_extension_feasibility,
    validate_k_prefix,
    werner_element,
)
from .boundary import (
    ExponentialReport,
    GroupLike,
    block_compression,
    determinant_twist,
    e_rho_value,
    exponential_test,
    grouplike_sequence,
    p_map,
    recover_block,
    separable_image_check,
    subharmonic_check,
)

__version__ = "0.1.0"
