"""Constructive factorizations into products of positive definite matrices.

The workhorse is the commutator pipeline, which runs one pair: a
determinant-one unitary is exp of one commutator [x, y] with x and y Hermitian,
approximated by one three-factor group-commutator block repeated t * c^2
times.  A general invertible matrix with real positive determinant appends its
polar positive part, for a predicted count of trotter * 3 * commutator^2 + 1.
The pipeline records that run structure as the word ((3, t * c^2), (1, 1)),
so the block is multiplied, checked and stored once.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..config import tolerances
from ..errors import DeterminantObstruction
from ..matcore import (
    _block_power,
    _real_positive_det,
    _traceless_log,
    as_square_matrix,
    hermitian_defect,
    hermitian_part,
    is_positive_definite,
    matrix_exp,
    operator_norm,
    polar_decompose,
    require_hermitian,
    require_invertible,
    traceless_unitary_log,
)
from .commutators import shoda_commutator
from .types import (
    DEFAULT_SCHEDULE,
    TRIVIAL_SCHEDULE,
    FactorizationSchedule,
    PositiveFactorization,
)

__all__ = [
    "two_positive_split",
    "conjugate_positive_as_two",
    "trotter_factors",
    "commutator_exp_factors",
    "unitary_to_positive_factors",
    "matrix_to_positive_factors",
    "direct_sum_factorization",
]


def two_positive_split(x, s) -> PositiveFactorization:
    """Split x = S D S^{-1} (D positive diagonal) into two positive factors.

    D is recovered from the witness as S^{-1} x S and must come out positive
    diagonal.  The factors are S S* and S^{-*} D S^{-1}; their product
    telescopes to S D S^{-1} = x exactly.
    """
    x = as_square_matrix(x, "x")
    s = as_square_matrix(s, "s")
    tol = tolerances()
    if s.shape != x.shape:
        raise ValueError("x and s must share one shape")
    cond = require_invertible(s, np.linalg.svd(s, compute_uv=False), "witness s")
    s_inv = np.linalg.inv(s)
    d = s_inv @ x @ s
    scale = max(operator_norm(x), 1.0)
    witness_tol = tol.reconstruction * scale * cond
    if hermitian_defect(d) > witness_tol or not is_positive_definite(hermitian_part(d)):
        raise ValueError("witness s does not expose a positive form for x")
    d = hermitian_part(d)
    f1 = hermitian_part(s @ s.conj().T)
    f2 = hermitian_part(s_inv.conj().T @ d @ s_inv)
    pf = PositiveFactorization.measured(x, (f1, f2), "two_positive_split", TRIVIAL_SCHEDULE)
    if pf.error > tol.reconstruction * scale * cond:
        raise ValueError("witness too ill-conditioned to reach the target residual")
    return pf


def conjugate_positive_as_two(v, p) -> PositiveFactorization:
    """Write v p v^{-1} as a product of two positive definite factors.

    With the polar split v = u q the factors are u (q p q) u* and u q^{-2} u*;
    their product is algebraically identical to v p v^{-1}.
    """
    v = as_square_matrix(v, "v")
    p = as_square_matrix(p, "p")
    if v.shape != p.shape:
        raise ValueError("v and p must have matching shapes")
    if not is_positive_definite(p):
        raise ValueError("p must be positive definite within tolerance")
    return PositiveFactorization.measured(
        v @ p @ np.linalg.inv(v), _conjugated_pair(v, p),
        "conjugate_positive_as_two", TRIVIAL_SCHEDULE,
    )


def trotter_factors(a, b, n: int) -> list[np.ndarray]:
    """2n-factor product-formula approximation of exp(a + b).

    Returns [exp(a/n), exp(b/n)] repeated n times; the ordered product
    converges to exp(a + b) at first order in 1/n.
    """
    a = as_square_matrix(a, "a")
    b = as_square_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError("a and b must have matching shapes")
    n = int(n)
    if n < 1:
        raise ValueError("step count must be >= 1")
    ea = matrix_exp(a / n)
    eb = matrix_exp(b / n)
    return [ea, eb] * n


def _conjugated_pair(v: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive (u q p q u*, u q^{-2} u*) with product v p v^{-1}, for v = u q polar."""
    parts = polar_decompose(v)
    u, q = parts.unitary, parts.positive
    w, z = np.linalg.eigh(q)
    q_inv2 = (z * w**-2.0) @ z.conj().T
    f1 = hermitian_part(u @ (q @ p @ q) @ u.conj().T)
    f2 = hermitian_part(u @ q_inv2 @ u.conj().T)
    return f1, f2


def _block_triple(a_step: np.ndarray, b_step: np.ndarray) -> list[np.ndarray]:
    """Three positive factors whose product is exp(-a) exp(-b) exp(a) exp(b).

    a_step/b_step are the already-divided exponents (a/n, b/n).  The group
    commutator block v e^{-b} v^{-1} e^{b} with v = e^{-a} expands through
    the polar split v = u q into (u q e^{-b} q u*)(u q^{-2} u*)(e^{b}).
    """
    f1, f2 = _conjugated_pair(matrix_exp(-a_step), matrix_exp(-b_step))
    return [f1, f2, matrix_exp(b_step)]


def commutator_exp_factors(a, b, n: int) -> PositiveFactorization:
    """3 n^2 positive factors approximating exp([a, b]) (b Hermitian).

    The group-commutator approximant (e^{-a/n} e^{-b/n} e^{a/n} e^{b/n})^{n^2}
    converges to exp([a, b]) at first order in 1/n; each of the n^2 blocks
    contributes three positive definite factors.
    """
    a = as_square_matrix(a, "a")
    b = as_square_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError("a and b must have matching shapes")
    n = int(n)
    if n < 1:
        raise ValueError("step count must be >= 1")
    require_hermitian(b, "b")
    b = hermitian_part(b)
    target = matrix_exp(a @ b - b @ a)
    triple = _block_triple(a / n, b / n)
    schedule = FactorizationSchedule(
        trotter_steps=1,
        commutator_steps=n,
        max_factors=max(DEFAULT_SCHEDULE.max_factors, 3 * n * n + 1),
    )
    return PositiveFactorization.measured(target, triple, "commutator_exp", schedule,
                                          ((3, n * n),))


def _scaled_triple(x: np.ndarray, y: np.ndarray, schedule: FactorizationSchedule):
    """Block triple for exp([x, y]/trotter) with a tuned splitting scale.

    The scale s (from the deterministic grid s0 * 2^k, k in -2..2, with
    s0 = sqrt(trotter * ||x|| / ||y||)) replaces (x, y) by (x/s, s y) — the
    commutator is unchanged but the measured block error varies; the smallest
    measured error wins, ties to the smaller exponent.
    """
    t_steps, c_steps = schedule.trotter_steps, schedule.commutator_steps
    piece_target = matrix_exp((x @ y - y @ x) / t_steps)
    s0 = np.sqrt(t_steps * operator_norm(x) / operator_norm(y))
    best_err, best_triple = np.inf, None
    for k in (-2, -1, 0, 1, 2):
        s = s0 * 2.0**k
        triple = _block_triple(x / (s * c_steps), (s * y) / (t_steps * c_steps))
        piece = _block_power(triple, c_steps * c_steps)
        err = operator_norm(piece - piece_target)
        if err < best_err:
            best_err, best_triple = err, triple
    return best_triple


def _unitary_factors(u: np.ndarray, a: np.ndarray, schedule: FactorizationSchedule):
    """Block factors and word of a det-one unitary with traceless log a, empty for the identity."""
    tol = tolerances()
    n = u.shape[0]
    if operator_norm(a) <= tol.exact / 10:
        # a global phase has a zero traceless log; an identity factor records it
        if operator_norm(u - np.eye(n)) <= tol.unitary:
            return (), ()
        return (np.eye(n, dtype=complex),), ((1, 1),)
    schedule.require_budget(1)
    x, y = shoda_commutator(2j * np.pi * a)  # exp(2 pi i a) = u
    x = x - (np.trace(x) / n) * np.eye(n)  # free recentering
    triple = _scaled_triple(x, y, schedule)
    return tuple(triple), ((3, schedule.trotter_steps * schedule.commutator_steps**2),)


def unitary_to_positive_factors(
    u, schedule: FactorizationSchedule = DEFAULT_SCHEDULE
) -> PositiveFactorization:
    """Factor a determinant-one unitary into positive definite matrices.

    Pipeline: traceless logarithm -> one Hermitian commutator pair -> t * c^2
    copies of a scaled three-factor block.  Raises DeterminantObstruction when
    det(u) is not 1 and BudgetExceeded when the predicted count overflows the
    schedule cap.
    """
    u = as_square_matrix(u, "u")
    a = traceless_unitary_log(u).hermitian  # validates unitarity and det(u) = 1
    blocks, word = _unitary_factors(u, a, schedule)
    if not blocks:
        blocks, word = (np.eye(u.shape[0], dtype=complex),), ((1, 1),)
    return PositiveFactorization.measured(u, blocks, "unitary_commutator_pipeline", schedule, word)


def matrix_to_positive_factors(
    x, schedule: FactorizationSchedule = DEFAULT_SCHEDULE
) -> PositiveFactorization:
    """Factor an invertible matrix with real positive determinant.

    Positive definite inputs come back as themselves (single factor, zero
    error); otherwise the polar positive part is appended to the pipeline
    factors of the unitary polar factor.  Raises NotInvertible for a singular
    x, IllConditioned when x is too ill-conditioned for the tolerance pack, and
    DeterminantObstruction when det(x) is not real positive beyond the phase
    defect that rounding explains at x's conditioning.
    """
    x = as_square_matrix(x, "x")
    parts = polar_decompose(x)  # validates invertibility
    if is_positive_definite(x):
        return PositiveFactorization.measured(x, (x.copy(),), "positive_definite", schedule)
    det = complex(np.linalg.det(x))
    if not _real_positive_det(det, x.shape[0], parts.cond):  # det(u) has det(x)'s phase
        raise DeterminantObstruction(
            f"det = {det:.6g} is not real positive; "
            "no positive-definite factorization exists"
        )
    u = parts.unitary
    blocks, word = _unitary_factors(u, _traceless_log(u).hermitian, schedule)
    return PositiveFactorization.measured(x, blocks + (parts.positive,), "polar_pipeline",
                                          schedule, word + ((1, 1),))


def direct_sum_factorization(blocks) -> PositiveFactorization:
    """Factor a block-diagonal target from factorizations of its blocks.

    Shorter factor lists are padded with identities; the combined error
    equals the worst block error up to roundoff.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    if len(blocks) == 1:
        return blocks[0]
    longest = max(len(b.factors) for b in blocks)
    dims = [b.n for b in blocks]
    factors = []
    for k in range(longest):
        parts = [
            b.factors[k] if k < len(b.factors) else np.eye(d, dtype=complex)
            for b, d in zip(blocks, dims)
        ]
        factors.append(scipy.linalg.block_diag(*parts).astype(complex))
    target = scipy.linalg.block_diag(*[b.target for b in blocks]).astype(complex)
    return PositiveFactorization.measured(target, tuple(factors), "direct_sum", blocks[0].schedule)

