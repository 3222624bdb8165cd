"""Result types for positive-definite factorizations and commutator splits.

A factorization stores its factors as a *word*: the run structure
``((block_length, repeat), ...)`` over ``factors``, evaluated by
:func:`posfactor.matcore.chain_product` (each block once, raised to its
repeat by repeated squaring).  This module also owns certification: what a
factorization's error is (``||target - product()||``, one expression for
every constructor and every re-check) and the one pass over the stored block
factors that every certificate reads, here and in :mod:`posfactor.obstruction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import tolerances
from ..errors import BudgetExceeded
from ..matcore import (
    chain_product,
    _clears_floor,
    _flat_word,
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

    ``factors`` is the flat ordered list; ``word`` is its run structure
    ``((block_length, repeat), ...)``: the first block's factors repeated,
    then the next block's, and so on.  The default word is one flat block.
    ``error`` is the operator-norm residual ``||target - product()||``, the
    product evaluated through :func:`posfactor.matcore.chain_product` over
    :meth:`block_factors` and the word (the canonical association), so
    re-verification reproduces it exactly.  Constructors build through
    :meth:`measured`, which evaluates it.
    """

    target: np.ndarray
    factors: tuple[np.ndarray, ...]
    error: float
    method: str
    schedule: FactorizationSchedule = field(default=DEFAULT_SCHEDULE)
    word: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.word is None:
            object.__setattr__(self, "word", _flat_word(len(self.factors)))

    @classmethod
    def measured(cls, target, blocks, method, schedule, word=None) -> PositiveFactorization:
        """The factorization of ``target`` by ``word`` over ``blocks``, its error evaluated here.

        ``blocks`` holds each block's factors once; the default word is flat.
        """
        word = _flat_word(len(blocks)) if word is None else word
        product = chain_product(blocks, target.shape[0], word)
        return cls(target=target, factors=_spelled(blocks, word), error=_residual(target, product),
                   method=method, schedule=schedule, word=word)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def block_factors(self) -> tuple[np.ndarray, ...]:
        """Each block's factors once, block after block: what the word repeats."""
        if sum(length * repeat for length, repeat in self.word) != len(self.factors):
            raise ValueError(f"word does not spell the {len(self.factors)} factors")
        blocks, start = [], 0
        for length, repeat in self.word:
            blocks.extend(self.factors[start:start + length])
            start += length * repeat
        return tuple(blocks)

    def product(self) -> np.ndarray:
        return chain_product(self.block_factors(), self.n, self.word)

    def recomputed_error(self) -> float:
        return _residual(self.target, self.product())


def _spelled(blocks, word) -> tuple[np.ndarray, ...]:
    """The flat factor tuple that ``word`` spells over ``blocks``."""
    factors, start = (), 0
    for length, repeat in word:
        factors += tuple(blocks[start:start + length]) * repeat
        start += length
    return factors


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


def _positive_int(value, what: str) -> int:
    """``value`` from the wire if it is a positive integer, else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def _schedule_from_wire(obj) -> FactorizationSchedule:
    keys = ("trotter", "commutator", "maxFactors")
    if not isinstance(obj, dict):
        raise ValueError("schedule must be an object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"schedule is missing {key!r}")
    return FactorizationSchedule(*(_positive_int(obj[key], f"schedule {key!r}") for key in keys))


def _word_from_wire(obj, stored: int, cap: int) -> tuple[tuple[int, int], ...]:
    """A wire word over ``stored`` factors; it may repeat them up to the cap."""
    if not isinstance(obj, list) or not all(isinstance(e, list) and len(e) == 2 for e in obj):
        raise ValueError("word must be a list of [block_length, repeat] pairs")
    word = tuple((_positive_int(length, f"word block {k} length"),
                  _positive_int(repeat, f"word block {k} repeat"))
                 for k, (length, repeat) in enumerate(obj))
    total = sum(length for length, _ in word)
    if total != stored:
        raise ValueError(f"word block lengths sum to {total}, but {stored} factors are stored")
    spelled = sum(length * repeat for length, repeat in word)
    if spelled > max(stored, cap):
        raise ValueError(f"word spells {spelled} factors, over the schedule cap {cap}")
    return word


def factorization_to_wire(pf: PositiveFactorization) -> dict:
    """JSON-ready dictionary for a factorization: each block factor once, plus the word."""
    return {
        "target": matrix_to_wire(pf.target),
        "factors": [matrix_to_wire(f) for f in pf.block_factors()],
        "word": [[length, repeat] for length, repeat in pf.word],
        "error": float(pf.error),
        "method": pf.method,
        "schedule": _schedule_to_wire(pf.schedule),
    }


def factorization_from_wire(obj) -> PositiveFactorization:
    """Parse a factorization dictionary; values are taken as stored.

    A dictionary without ``"word"`` stores every factor: one flat block.
    """
    if not isinstance(obj, dict):
        raise ValueError("factorization object must be a dictionary")
    for key in ("target", "factors", "error", "method", "schedule"):
        if key not in obj:
            raise ValueError(f"factorization object is missing {key!r}")
    target = matrix_from_wire(obj["target"])
    stored = tuple(matrix_from_wire(f) for f in obj["factors"])
    for k, f in enumerate(stored):
        if f.shape != target.shape:
            raise ValueError(f"factor {k} has shape {f.shape}, target has shape {target.shape}")
    schedule = _schedule_from_wire(obj["schedule"])
    word = (_word_from_wire(obj["word"], len(stored), schedule.max_factors) if "word" in obj
            else _flat_word(len(stored)))
    return PositiveFactorization(
        target=target,
        factors=_spelled(stored, word),
        error=float(obj["error"]),
        method=str(obj["method"]),
        schedule=schedule,
        word=word,
    )


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True, eq=False)
class _FactorPass:
    """What one pass over a factor word and its one product establish."""

    worst_hermitian: float     # largest ||f - f*|| / ||f||
    min_eigenvalue: float      # smallest eigenvalue of any factor's Hermitian part
    min_relative_eigenvalue: float  # the same, each over max(||f||, 1)
    norm_product: float        # product of the factor norms, each to its repeat
    log_det: float | None      # summed log-eigenvalues, each times its repeat; None if a
                               # factor misses the floor
    product: np.ndarray        # chain_product of the word
    det: complex               # its determinant
    cond: float                # and its condition number


def _factor_pass(factors, n: int, word=None) -> _FactorPass:
    """Check each stored factor once and multiply the product once.

    ``factors`` and ``word`` are as in :func:`chain_product`; a factor counts
    in the norm product and the log-determinant once per repeat of its block.
    """
    worst_herm = 0.0
    min_eig = min_rel = np.inf
    norm_product = 1.0
    log_det = 0.0
    repeats = [repeat for length, repeat in word or _flat_word(len(factors)) for _ in range(length)]
    for f, repeat in zip(factors, repeats):
        scale = operator_norm(f)
        worst_herm = max(worst_herm, hermitian_defect(f) / (scale if scale > 0 else 1.0))
        eigs = np.linalg.eigvalsh(hermitian_part(f))
        low = float(eigs[0])
        min_eig = min(min_eig, low)
        min_rel = min(min_rel, low / max(scale, 1.0))
        with np.errstate(over="ignore"):  # past the float range the norm product is inf
            norm_product *= np.float64(scale) ** repeat
        definite = log_det is not None and _clears_floor(low, eigs[-1])
        log_det = log_det + repeat * float(np.sum(np.log(eigs))) if definite else None
    product = chain_product(factors, n, word)
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
    return _invariant_checks(pf, _factor_pass(pf.block_factors(), pf.n, pf.word))
