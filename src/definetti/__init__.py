"""Sub-extendability hierarchy and matrix-valued Martin-boundary toolkit."""

from .linalg import (
    Functional,
    LeggedOperator,
    contract_legs,
    is_psd,
    loewner_leq,
    min_eig,
    partial_transpose,
    tensor,
)
from .symmetry import (
    Partition,
    Symmetrizer,
    isotypic_projector,
    partitions_of,
    schur_weyl_table,
)
from .hierarchy import (
    FeasibilityReport,
    SeparabilityReport,
    SolverOptions,
    SymSequence,
    ValidationReport,
    bell_projector,
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
    e_rho_value,
    exponential_test,
    grouplike_sequence,
    p_map,
    recover_block,
    separable_image_check,
    subharmonic_check,
)

__version__ = "0.1.0"
