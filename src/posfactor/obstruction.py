"""Determinant and trace obstructions to positive-definite factorizations.

The determinant of a product of positive (semi)definite matrices is real and
nonnegative; on unitary products the summed trace-logarithms vanish.  Both
facts become checkable certificates here, and the scalar landscape routine
measures how far unimodular scalars sit from the factorizable set.  The
certificates read the one factor pass of :mod:`posfactor.factorlab.types`,
which owns certification; none of them decomposes a factor or multiplies the
product itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import BudgetExceeded
from .factorlab.factorization import matrix_to_positive_factors
from .factorlab.types import (
    FactorizationSchedule,
    PositiveFactorization,
    _factor_pass,
    _FactorPass,
    _invariant_checks,
)
from .matcore import _unitarity_defect, as_square_matrix, operator_norm

__all__ = [
    "TraceFunctional",
    "DeterminantResidue",
    "TraceIdentityRecord",
    "ObstructionReport",
    "DEFAULT_BUDGET_LADDER",
    "standard_trace",
    "normalized_trace",
    "dhs_residue_of_exponential",
    "unitary_product_trace_identity",
    "det_nonneg_check",
    "scalar_obstruction_distance",
    "estimate_group_G",
    "verify_factorization",
]


DEFAULT_BUDGET_LADDER = (
    FactorizationSchedule(4, 4),
    FactorizationSchedule(8, 8),
    FactorizationSchedule(16, 16),
)


# ---------------------------------------------------------------------------
# trace functionals and the determinant residue


@dataclass(frozen=True)
class TraceFunctional:
    """Standard or normalized matrix trace with its image lattice."""

    kind: str  # "standard" | "normalized"
    n: int

    def __post_init__(self):
        if self.kind not in ("standard", "normalized"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    def value(self, m: np.ndarray) -> complex:
        m = as_square_matrix(m, "m")
        if m.shape[0] != self.n:
            raise ValueError(f"expected {self.n} x {self.n} input")
        t = complex(np.trace(m))
        return t / self.n if self.kind == "normalized" else t

    @property
    def lattice_spacing(self) -> float:
        """Spacing of the integer image lattice: 1 or 1/n."""
        return 1.0 / self.n if self.kind == "normalized" else 1.0


def standard_trace(n: int) -> TraceFunctional:
    return TraceFunctional(kind="standard", n=n)


def normalized_trace(n: int) -> TraceFunctional:
    return TraceFunctional(kind="normalized", n=n)


@dataclass(frozen=True)
class DeterminantResidue:
    """tau(c) / (2 pi i) reduced modulo the trace lattice."""

    value: float
    spacing: float
    residue: float


def dhs_residue_of_exponential(c, trace: TraceFunctional) -> DeterminantResidue:
    """Lattice residue of the determinant phase of exp(c).

    value = Re(tau(c) / (2 pi i)) — for c = 2 pi i a with a Hermitian this is
    exactly tau(a).  The residue is value mod the lattice spacing, in
    [0, spacing).
    """
    c = as_square_matrix(c, "c")
    raw = trace.value(c) / (2j * np.pi)
    value = float(raw.real)
    spacing = trace.lattice_spacing
    residue = value % spacing
    if residue >= spacing:  # float wrap at the boundary
        residue = 0.0
    return DeterminantResidue(value=value, spacing=spacing, residue=float(residue))


# ---------------------------------------------------------------------------
# product certificates


@dataclass(frozen=True)
class TraceIdentityRecord:
    """Summed trace-logs of positive factors whose product is near-unitary."""

    s: float                 # sum of tr log b_k (real)
    delta: float             # declared unitarity defect bound
    defect: float            # measured ||P* P - 1||
    bound: float             # n * delta / (2 (1 - delta)) + numerical floor
    det: complex             # determinant of the product


def _checked_factor_pass(factors) -> _FactorPass:
    """Factor pass over raw input, each factor validated as a square matrix."""
    mats = [as_square_matrix(f, "factor") for f in factors]
    if not mats:
        raise ValueError("need at least one factor")
    return _factor_pass(mats, mats[0].shape[0])


def _trace_identity(fp: _FactorPass, delta: float | None) -> TraceIdentityRecord:
    """The trace-identity certificate of a factor pass; raises ValueError on failure."""
    tol = tolerances()
    if fp.worst_hermitian > tol.hermitian:
        raise ValueError("factor is not Hermitian within tolerance")
    if fp.log_det is None:
        raise ValueError("factor is not positive definite within tolerance")
    n = fp.product.shape[0]
    defect = _unitarity_defect(fp.product)
    delta = defect if delta is None else float(delta)
    if defect > delta * (1.0 + tol.exact) + tol.exact / 1000:
        raise ValueError(f"product is not unitary within delta: defect {defect:.3e} > {delta:.3e}")
    if delta >= 1.0:
        raise ValueError(
            f"product is not unitary within any admissible delta < 1 (delta {delta:.3e})"
        )
    s = fp.log_det
    bound = n * delta / (2.0 * (1.0 - delta)) + tol.trace
    if abs(s) > bound:
        raise ValueError(f"trace identity violated: |s| = {abs(s):.3e} exceeds bound {bound:.3e}")
    return TraceIdentityRecord(s=s, delta=delta, defect=defect, bound=bound, det=fp.det)


def unitary_product_trace_identity(factors, delta: float | None = None) -> TraceIdentityRecord:
    """Check sum tr log b_k against the unitary-product bound.

    For positive definite b_k with ||P* P - 1|| <= delta < 1 (P the ordered
    product), |sum tr log b_k| = |log|det P|| <= n/2 |log(1 - delta)|
    <= n delta / (2 (1 - delta)).  The sum is taken over the factors'
    log-eigenvalues.  An absolute floor tol.trace absorbs the trace-log
    roundoff as delta -> 0.  Raises for a factor that is not Hermitian or not
    positive definite, when the product is farther from unitary than delta
    (delta >= 1 means no bound exists at all), or (numerically impossible for
    valid input) when the bound itself fails.
    """
    return _trace_identity(_checked_factor_pass(factors), delta)


def det_nonneg_check(factors) -> tuple[bool, complex]:
    """Determinant certificate for a product of positive semidefinite factors.

    Returns (ok, det): ok when the imaginary part is within the pack's
    determinant tolerance of |det| and the real part is not below minus that
    tolerance times the product of factor norms.
    """
    tol = tolerances()
    fp = _checked_factor_pass(factors)
    if fp.worst_hermitian > tol.hermitian:
        raise ValueError("factor is not Hermitian within tolerance")
    if fp.min_relative_eigenvalue < -tol.hermitian:
        raise ValueError("factors must be positive semidefinite")
    # not _real_positive_det: semidefinite factors may make det exactly 0
    imag_ok = abs(fp.det.imag) <= tol.determinant * abs(fp.det)
    real_ok = fp.det.real >= -tol.determinant * fp.norm_product
    return bool(imag_ok and real_ok), fp.det


# ---------------------------------------------------------------------------
# scalar obstruction landscape


@dataclass(frozen=True, eq=False)
class ObstructionReport:
    """Distance of a unimodular scalar target from the factorizable set."""

    lam: complex
    n: int
    best_distance: float
    in_group: bool
    budget: FactorizationSchedule
    ladder: tuple[tuple[FactorizationSchedule, float | None], ...] = ()


def _det_constrained_distance(lam: complex, n: int) -> float:
    """Numerical distance from lam * I to {X : det X real nonnegative}.

    Starts from the closed-form equal-phase-split candidate (feasible by
    construction) and refines with SLSQP under the determinant constraints;
    only verified-feasible iterates are reported.
    """
    import scipy.optimize  # lazy: the oracle is its only user
    tol = tolerances()
    eye = np.eye(n, dtype=complex)
    target = lam * eye
    theta = np.angle(lam)
    delta_star = -n * theta
    delta_star = np.angle(np.exp(1j * delta_star))  # representative in (-pi, pi]
    candidates: list[np.ndarray] = [
        np.exp(1j * delta_star / n) * target,          # spread over all eigenvalues
        lam * np.diag(np.exp(1j * delta_star * (np.arange(n) == n - 1))),  # single spin
    ]

    def unpack(z: np.ndarray) -> np.ndarray:
        return z[: n * n].reshape(n, n) + 1j * z[n * n :].reshape(n, n)

    def objective(z: np.ndarray) -> float:
        e = unpack(z) - target
        return float(np.sum(np.abs(e) ** 2))

    def det_parts(z: np.ndarray) -> complex:
        return complex(np.linalg.det(unpack(z)))

    constraints = (
        {"type": "eq", "fun": lambda z: det_parts(z).imag},
        {"type": "ineq", "fun": lambda z: det_parts(z).real},
    )
    best = np.inf
    for x0_mat in candidates:
        z0 = np.concatenate([x0_mat.real.ravel(), x0_mat.imag.ravel()])
        result = scipy.optimize.minimize(
            objective, z0, method="SLSQP", constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-14},
        )
        for z in (result.x, z0):
            x_mat = unpack(np.asarray(z, dtype=float))
            det = complex(np.linalg.det(x_mat))
            # feasible for the closure {det real >= 0}, not the open real-positive set
            imag_ok = abs(det.imag) <= tol.determinant / 10 * max(abs(det), 1.0)
            if imag_ok and det.real >= -tol.exact:
                best = min(best, operator_norm(x_mat - target))
    return float(best)


def scalar_obstruction_distance(
    lam: complex, n: int, budgets=DEFAULT_BUDGET_LADDER
) -> ObstructionReport:
    """Best factorization distance for the scalar target lam * I_n.

    Scalars whose n-th power is 1 run the constructive pipeline over the
    budget ladder (budget overflows are recorded, not fatal); all others are
    measured against the determinant constraint set by the independent
    minimization oracle.
    """
    lam = complex(lam)
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    tol = tolerances()
    if abs(abs(lam) - 1.0) > tol.unitary:
        raise ValueError(f"lambda must be unimodular, got |lambda| = {abs(lam)}")
    budgets = tuple(budgets)
    if not budgets:
        raise ValueError("need at least one budget")
    # not _real_positive_det: membership keeps the reconstruction bound the landscape tests pin
    in_group = abs(lam**n - 1.0) <= tol.reconstruction

    if not in_group:
        distance = _det_constrained_distance(lam, n)
        return ObstructionReport(
            lam=lam, n=n, best_distance=distance, in_group=False,
            budget=budgets[-1], ladder=tuple((b, None) for b in budgets),
        )

    target = lam * np.eye(n, dtype=complex)
    ladder: list[tuple[FactorizationSchedule, float | None]] = []
    best = np.inf
    used = budgets[-1]
    for sched in budgets:
        try:
            err = matrix_to_positive_factors(target, sched).error
        except BudgetExceeded:
            ladder.append((sched, None))
            continue
        ladder.append((sched, float(err)))
        used = sched
        best = min(best, float(err))
    return ObstructionReport(
        lam=lam, n=n, best_distance=float(best), in_group=True,
        budget=used, ladder=tuple(ladder),
    )


def estimate_group_G(
    n: int, grid: int | None = None, budgets=DEFAULT_BUDGET_LADDER
) -> list[ObstructionReport]:
    """Obstruction reports over a roots-of-unity grid, sorted by phase."""
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if grid is None:
        grid = 4 * n
    grid = int(grid)
    if grid < 4 * n:
        raise ValueError(f"grid must be at least 4 n = {4 * n}, got {grid}")
    reports = []
    for k in range(grid):
        lam = complex(np.exp(2j * np.pi * k / grid))
        reports.append(scalar_obstruction_distance(lam, n, budgets))
    return reports


# ---------------------------------------------------------------------------
# factorization verification


def verify_factorization(pf: PositiveFactorization) -> list[tuple[str, bool, str]]:
    """Full invariant check list for a stored factorization.

    Extends the structural checks with the trace-log certificate whenever the
    target itself is (numerically) unitary; both read one factor pass.
    """
    tol = tolerances()
    fp = _factor_pass(pf.block_factors(), pf.n, pf.word)
    checks = _invariant_checks(pf, fp)
    if _unitarity_defect(pf.target) <= 1e4 * tol.unitary:
        defect = _unitarity_defect(fp.product)
        try:
            record = _trace_identity(fp, delta=defect * 1.01 + tol.exact / 100)
            checks.append(("trace-identity", True,
                           f"|s| = {abs(record.s):.3e} within bound {record.bound:.3e}"))
        except ValueError as exc:
            checks.append(("trace-identity", False, str(exc)))
    return checks
