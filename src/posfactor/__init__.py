"""posfactor: products of positive definite matrices, constructively.

Factor complex square matrices with real positive determinant into finite
products of positive definite factors via commutator product formulas, and
measure the determinant/trace obstructions when no such factorization can
exist.
"""

from .config import DEFAULT_TOLERANCES, Tolerances, tolerances
from .errors import (
    BlockNotInvertible,
    BudgetExceeded,
    DeterminantObstruction,
    IllConditioned,
    InsufficientPoints,
    MathematicalObstruction,
    NotInvertible,
    PosfactorError,
    TraceObstruction,
)
from .factorlab import (
    DEFAULT_SCHEDULE,
    TRIVIAL_SCHEDULE,
    CommutatorDecomposition,
    FactorizationSchedule,
    FiniteSpectrumAdjustment,
    PositiveFactorization,
    TorusCorrection,
    commutator_exp_factors,
    conjugate_positive_as_two,
    direct_sum_factorization,
    eps_dense_correction,
    factorization_from_wire,
    factorization_to_wire,
    finite_spectrum_adjust,
    hermitian_pair_split,
    invariant_report,
    is_eps_dense,
    matrix_to_positive_factors,
    minimal_root_order,
    shoda_commutator,
    trotter_factors,
    two_positive_split,
    unitary_to_positive_factors,
    zero_diagonal_commutators,
)
from .matcore import (
    PolarParts,
    SpectralDecomposition,
    TracelessLog,
    approximate_invertible,
    block_invertible_decomposition,
    chain_product,
    hermitian_eig,
    matrix_exp,
    matrix_from_wire,
    matrix_to_wire,
    normal_eig,
    operator_norm,
    polar_decompose,
    positive_log,
    traceless_unitary_log,
)
from .obstruction import (
    DEFAULT_BUDGET_LADDER,
    DeterminantResidue,
    ObstructionReport,
    TraceFunctional,
    TraceIdentityRecord,
    det_nonneg_check,
    dhs_residue_of_exponential,
    estimate_group_G,
    normalized_trace,
    scalar_obstruction_distance,
    standard_trace,
    unitary_product_trace_identity,
    verify_factorization,
)

__version__ = "0.1.0"
