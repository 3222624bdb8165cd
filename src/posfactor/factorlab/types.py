"""Result types for positive-definite factorizations and commutator splits.

This module also owns certification: what a factorization's error is
(``||target - chain_product(factors)||``, one expression for every
constructor and every re-check) and the one pass over a factor list that
every certificate reads, here and in :mod:`posfactor.obstruction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import tolerances
from ..errors import BudgetExceeded
from ..matcore import (
    chain_product,
    _clears_floor,
    _real_positive_det,
    hermitian_defect,
    hermitian_part,
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
    Constructors build through :meth:`measured`, which evaluates it.
    """

    target: np.ndarray
    factors: tuple[np.ndarray, ...]
    error: float
    method: str
    schedule: FactorizationSchedule = field(default=DEFAULT_SCHEDULE)

    @classmethod
    def measured(cls, target, factors, method, schedule) -> PositiveFactorization:
        """The factorization of ``target`` by ``factors``, its error evaluated here."""
        product = chain_product(factors, target.shape[0])
        return cls(target=target, factors=factors, error=_residual(target, product),
                   method=method, schedule=schedule)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def product(self) -> np.ndarray:
        return chain_product(self.factors, self.n)

    def recomputed_error(self) -> float:
        return _residual(self.target, self.product())


def _residual(target: np.ndarray, product: np.ndarray) -> float:
    """A factorization's error: the operator norm of target minus product."""
    return operator_norm(target - product)


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
    target = matrix_from_wire(obj["target"])
    factors = tuple(matrix_from_wire(f) for f in obj["factors"])
    for k, f in enumerate(factors):
        if f.shape != target.shape:
            raise ValueError(f"factor {k} has shape {f.shape}, target has shape {target.shape}")
    return PositiveFactorization(
        target=target,
        factors=factors,
        error=float(obj["error"]),
        method=str(obj["method"]),
        schedule=_schedule_from_wire(obj["schedule"]),
    )


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True, eq=False)
class _FactorPass:
    """What one pass over a factor list and its one product establish."""

    worst_hermitian: float     # largest ||f - f*|| / ||f||
    min_eigenvalue: float      # smallest eigenvalue of any factor's Hermitian part
    min_relative_eigenvalue: float  # the same, each over max(||f||, 1)
    norm_product: float        # product of the factor norms
    log_det: float | None      # summed log-eigenvalues; None if a factor misses the floor
    product: np.ndarray        # chain_product of the factors
    det: complex               # its determinant
    cond: float                # and its condition number


def _factor_pass(factors, n: int) -> _FactorPass:
    """Check each factor once and multiply the product once."""
    worst_herm = 0.0
    min_eig = min_rel = np.inf
    norm_product = 1.0
    log_det = 0.0
    for f in factors:
        scale = operator_norm(f)
        worst_herm = max(worst_herm, hermitian_defect(f) / (scale if scale > 0 else 1.0))
        eigs = np.linalg.eigvalsh(hermitian_part(f))
        low = float(eigs[0])
        min_eig = min(min_eig, low)
        min_rel = min(min_rel, low / max(scale, 1.0))
        norm_product *= scale
        definite = log_det is not None and _clears_floor(low, eigs[-1])
        log_det = log_det + float(np.sum(np.log(eigs))) if definite else None
    product = chain_product(factors, n)
    return _FactorPass(
        worst_hermitian=worst_herm, min_eigenvalue=min_eig, min_relative_eigenvalue=min_rel,
        norm_product=norm_product, log_det=log_det, product=product,
        det=complex(np.linalg.det(product)), cond=float(np.linalg.cond(product)),
    )


def _invariant_checks(pf: PositiveFactorization, fp: _FactorPass) -> list[tuple[str, bool, str]]:
    """The structural checks of ``pf``, read from its factor pass ``fp``."""
    tol = tolerances()
    recomputed = _residual(pf.target, fp.product)
    count, cap = len(pf.factors), pf.schedule.max_factors
    return [
        ("factors-hermitian", fp.worst_hermitian <= tol.hermitian,
         f"worst relative defect {fp.worst_hermitian:.3e}"),
        ("factors-positive", fp.log_det is not None,
         f"smallest factor eigenvalue {fp.min_eigenvalue:.6e}"),
        ("error-recompute", abs(recomputed - pf.error) <= tol.exact,
         f"stored {pf.error!r}, recomputed {recomputed!r}"),
        ("determinant-positive", _real_positive_det(fp.det, pf.n, fp.cond),
         f"det(product) = {fp.det:.6g}"),
        ("factor-count", count <= cap, f"{count} factors, cap {cap}"),
    ]


def invariant_report(pf: PositiveFactorization) -> list[tuple[str, bool, str]]:
    """Check the stored factorization against its structural invariants.

    Returns (name, passed, detail) triples; no exception is raised so a
    verifier can report every failure at once.
    """
    return _invariant_checks(pf, _factor_pass(pf.factors, pf.n))
