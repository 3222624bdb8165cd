"""Result types for positive-definite factorizations and commutator splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import tolerances
from ..errors import BudgetExceeded
from ..matcore import (
    chain_product,
    hermitian_defect,
    matrix_from_wire,
    matrix_to_wire,
    operator_norm,
)

__all__ = [
    "FactorizationSchedule",
    "PositiveFactorization",
    "CommutatorDecomposition",
    "DEFAULT_SCHEDULE",
    "TRIVIAL_SCHEDULE",
    "factorization_to_wire",
    "factorization_from_wire",
    "invariant_report",
]


@dataclass(frozen=True)
class FactorizationSchedule:
    """Resolution knobs: product-formula steps, commutator steps, factor cap."""

    trotter_steps: int = 8
    commutator_steps: int = 8
    max_factors: int = 100_000

    def __post_init__(self):
        if self.trotter_steps < 1 or self.commutator_steps < 1:
            raise ValueError("schedule steps must be >= 1")
        if self.max_factors < 1:
            raise ValueError("max_factors must be >= 1")

    def predicted_factors(self, pairs: int) -> int:
        """Closed-form factor count for a pipeline run over ``pairs`` pairs."""
        return self.trotter_steps * pairs * 3 * self.commutator_steps**2 + 1

    def require_budget(self, pairs: int) -> None:
        predicted = self.predicted_factors(pairs)
        if predicted > self.max_factors:
            raise BudgetExceeded(
                f"schedule predicts {predicted} factors for {pairs} pair(s), "
                f"cap is {self.max_factors}"
            )


DEFAULT_SCHEDULE = FactorizationSchedule()
TRIVIAL_SCHEDULE = FactorizationSchedule(trotter_steps=1, commutator_steps=1)


@dataclass(frozen=True, eq=False)
class PositiveFactorization:
    """A target matrix together with an ordered list of positive factors.

    ``error`` is the operator-norm residual ``||target - product||`` where the
    product is always evaluated through :func:`posfactor.matcore.chain_product`
    (the canonical association), so re-verification reproduces it exactly.
    """

    target: np.ndarray
    factors: tuple[np.ndarray, ...]
    error: float
    method: str
    schedule: FactorizationSchedule = field(default=DEFAULT_SCHEDULE)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def product(self) -> np.ndarray:
        return chain_product(self.factors, self.n)

    def recomputed_error(self) -> float:
        return operator_norm(self.target - self.product())


@dataclass(frozen=True, eq=False)
class CommutatorDecomposition:
    """Pairs (x_i, y_i), each y_i Hermitian, with sum of commutators = target."""

    target: np.ndarray
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    residual: float

    def commutator_sum(self) -> np.ndarray:
        n = self.target.shape[0]
        acc = np.zeros((n, n), dtype=complex)
        for x, y in self.pairs:
            acc += x @ y - y @ x
        return acc


# ---------------------------------------------------------------------------
# wire format


def _schedule_to_wire(s: FactorizationSchedule) -> dict:
    return {
        "trotter": s.trotter_steps,
        "commutator": s.commutator_steps,
        "maxFactors": s.max_factors,
    }


def _schedule_from_wire(obj) -> FactorizationSchedule:
    return FactorizationSchedule(
        trotter_steps=int(obj["trotter"]),
        commutator_steps=int(obj["commutator"]),
        max_factors=int(obj["maxFactors"]),
    )


def factorization_to_wire(pf: PositiveFactorization) -> dict:
    """JSON-ready dictionary for a factorization."""
    return {
        "target": matrix_to_wire(pf.target),
        "factors": [matrix_to_wire(f) for f in pf.factors],
        "error": float(pf.error),
        "method": pf.method,
        "schedule": _schedule_to_wire(pf.schedule),
    }


def factorization_from_wire(obj) -> PositiveFactorization:
    """Parse a factorization dictionary; values are taken as stored."""
    if not isinstance(obj, dict):
        raise ValueError("factorization object must be a dictionary")
    for key in ("target", "factors", "error", "method", "schedule"):
        if key not in obj:
            raise ValueError(f"factorization object is missing {key!r}")
    return PositiveFactorization(
        target=matrix_from_wire(obj["target"]),
        factors=tuple(matrix_from_wire(f) for f in obj["factors"]),
        error=float(obj["error"]),
        method=str(obj["method"]),
        schedule=_schedule_from_wire(obj["schedule"]),
    )


# ---------------------------------------------------------------------------
# invariant checks


def invariant_report(pf: PositiveFactorization) -> list[tuple[str, bool, str]]:
    """Check the stored factorization against its structural invariants.

    Returns (name, passed, detail) triples; no exception is raised so a
    verifier can report every failure at once.
    """
    tol = tolerances()
    checks: list[tuple[str, bool, str]] = []

    worst_herm = 0.0
    worst_min_eig = np.inf
    for f in pf.factors:
        scale = operator_norm(f)
        defect = hermitian_defect(f) / (scale if scale > 0 else 1.0)
        worst_herm = max(worst_herm, defect)
        eigs = np.linalg.eigvalsh((f + f.conj().T) / 2.0)
        worst_min_eig = min(worst_min_eig, float(eigs[0]))
    checks.append(
        (
            "factors-hermitian",
            worst_herm <= tol.hermitian,
            f"worst relative defect {worst_herm:.3e}",
        )
    )
    checks.append(
        (
            "factors-positive",
            bool(worst_min_eig > 0.0),
            f"smallest factor eigenvalue {worst_min_eig:.6e}",
        )
    )

    product = pf.product()
    recomputed = operator_norm(pf.target - product)
    drift = abs(recomputed - pf.error)
    checks.append(
        (
            "error-recompute",
            drift <= tol.exact,
            f"stored {pf.error!r}, recomputed {recomputed!r}",
        )
    )

    det = complex(np.linalg.det(product))
    mag = abs(det)
    det_ok = det.real > 0 and abs(det.imag) <= tol.determinant * (mag if mag > 0 else 1.0)
    checks.append(("determinant-positive", det_ok, f"det(product) = {det:.6g}"))

    count = len(pf.factors)
    checks.append(
        (
            "factor-count",
            count <= pf.schedule.max_factors,
            f"{count} factors, cap {pf.schedule.max_factors}",
        )
    )
    return checks
