"""Entanglement certification for two-mode bosonic states in truncated Fock space.

The package builds states over a two-mode number basis, evaluates
normal-ordered operator moments exactly within the truncation, and runs a
family of separability witnesses: variance-based second-order tests,
higher-order-moment tests built from partially transposed uncertainty
relations, and the exact partial-transpose spectrum test.
"""

from .algebra import (
    Monomial,
    OperatorPoly,
    QUADRATURES,
    expectation_poly,
    moment,
    quadrature_poly,
    variance,
)
from .criteria import (
    CriterionReport,
    bell_closed_forms,
    duan_mancini_relation,
    duan_witness,
    mancini_witness,
    ppt_witness,
    su2_pt_witness,
    su11_pt_witness,
)
from .errors import (
    DegenerateStateError,
    DimensionError,
    DslError,
    EntcertError,
    HermiticityError,
    LexError,
    NormalizationError,
    ParseError,
    PowerGuardError,
    TruncationError,
)
from .fock import (
    Cutoff,
    DensityOperator,
    PureState,
    embed,
    expectation,
    hermitian_eigenvalues,
    lowering_matrix,
    partial_transpose_b,
    partial_transpose_matrix,
)
from .states import (
    TruncationReport,
    bell_xp_state,
    density_from_pure,
    photon_subtracted_tmsv,
    product_coherent,
    two_mode_squeezed_vacuum,
)

__version__ = "0.1.0"

__all__ = [
    "Cutoff",
    "PureState",
    "DensityOperator",
    "TruncationReport",
    "CriterionReport",
    "Monomial",
    "OperatorPoly",
    "QUADRATURES",
    "lowering_matrix",
    "embed",
    "partial_transpose_b",
    "partial_transpose_matrix",
    "hermitian_eigenvalues",
    "expectation",
    "bell_xp_state",
    "two_mode_squeezed_vacuum",
    "photon_subtracted_tmsv",
    "product_coherent",
    "density_from_pure",
    "quadrature_poly",
    "moment",
    "expectation_poly",
    "variance",
    "mancini_witness",
    "duan_witness",
    "duan_mancini_relation",
    "su2_pt_witness",
    "su11_pt_witness",
    "ppt_witness",
    "bell_closed_forms",
    "EntcertError",
    "DimensionError",
    "NormalizationError",
    "HermiticityError",
    "TruncationError",
    "PowerGuardError",
    "DegenerateStateError",
    "DslError",
    "LexError",
    "ParseError",
    "__version__",
]
