"""Commutator representations of traceless matrices.

A traceless matrix is similar to one with zero diagonal; in that frame
``c' = [x', y']`` holds for ``x' = diag(1, ..., n)`` and
``y'_{ij} = c'_{ij} / (i - j)``.  When ``c`` is Hermitian or skew-Hermitian
the zero-diagonalizing similarity can be made unitary, which transports a
Hermitian ``y'`` to a Hermitian ``y`` — downstream this is what keeps the
pair count at one.
"""

from __future__ import annotations

import numpy as np

from ..config import tolerances
from ..errors import TraceObstruction
from ..matcore import as_square_matrix, hermitian_part, is_hermitian, operator_norm
from .types import CommutatorDecomposition

__all__ = [
    "shoda_commutator",
    "hermitian_pair_split",
    "zero_diagonal_commutators",
]


def _unitary_zero_diagonalizer(h: np.ndarray) -> np.ndarray:
    """Unitary w with (w* h w) zero on the diagonal, for traceless Hermitian h.

    Plane-rotation deflation: at step k pick the trailing entry with the most
    opposite sign, rotate the (k, j) plane so position k lands on zero.  The
    rotation angle solves  cos^2 t * h_kk + sin^2 t * h_jj = 0  after the
    cross term is phased away.
    """
    n = h.shape[0]
    w = np.eye(n, dtype=complex)
    work = h.astype(complex).copy()
    scale = operator_norm(h)
    if scale == 0.0:
        return w
    tiny = 1e3 * np.finfo(float).eps * scale
    for k in range(n - 1):
        alpha = work[k, k].real
        if abs(alpha) <= tiny:
            continue
        tail = work[k + 1 :, k + 1 :].diagonal().real
        j_rel = int(np.argmin(tail)) if alpha > 0 else int(np.argmax(tail))
        gamma = tail[j_rel]
        j = k + 1 + j_rel
        if alpha * gamma >= 0:
            # trailing trace compensates alpha, so this only happens at noise level
            continue
        beta = work[k, j]
        psi = np.pi / 2.0 - (np.angle(beta) if beta != 0 else 0.0)
        theta = np.arctan(np.sqrt(-alpha / gamma))
        ct, st = np.cos(theta), np.sin(theta)
        g = np.eye(n, dtype=complex)
        g[k, k] = ct
        g[j, k] = st * np.exp(1j * psi)
        g[k, j] = -st * np.exp(-1j * psi)
        g[j, j] = ct
        work = g.conj().T @ work @ g
        w = w @ g
    return w


def _candidate_vectors(n: int) -> list[np.ndarray]:
    eye = np.eye(n, dtype=complex)
    cands = [eye[:, i] for i in range(n)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            for coef in (1.0, -1.0, 1j, -1j):
                cands.append((eye[:, i] + coef * eye[:, j]) * inv_sqrt2)
    return cands


def _similarity_zero_diagonalizer(c: np.ndarray) -> np.ndarray:
    """Invertible s with (s^{-1} c s) zero on the diagonal, c traceless.

    Deflation: pick v maximizing the component of c v orthogonal to v, take
    the basis (v, c v / ||c v||, orthonormal completion); in it the leading
    diagonal entry vanishes, and the trailing compression is again traceless.
    Callers pass c normalized to unit norm so the noise floor is absolute.
    """
    n = c.shape[0]
    if n == 1 or operator_norm(c) <= tolerances().exact / 10:
        return np.eye(n, dtype=complex)
    best_score, best_v = -1.0, None
    for v in _candidate_vectors(n):
        cv = c @ v
        rest = cv - (np.vdot(v, cv)) * v
        score = float(np.linalg.norm(rest))
        if score > best_score + 1e-15:
            best_score, best_v = score, v
    v = best_v
    cv = c @ v
    u2 = cv - np.vdot(v, cv) * v
    u2 = u2 / np.linalg.norm(u2)
    # basis: v, then c v (normalized) so the (1,1) entry of the conjugated
    # matrix is exactly a multiple of e_2, then a completion of span{v, u2}
    basis = np.zeros((n, n), dtype=complex)
    basis[:, 0] = v
    basis[:, 1] = cv / np.linalg.norm(cv)
    if n > 2:
        proj = np.outer(v, v.conj()) + np.outer(u2, u2.conj())
        w_p, vecs = np.linalg.eigh(np.eye(n, dtype=complex) - proj)
        basis[:, 2:] = vecs[:, w_p > 0.5]
    inner = np.linalg.solve(basis, c @ basis)
    tail = _similarity_zero_diagonalizer(inner[1:, 1:])
    full_tail = np.eye(n, dtype=complex)
    full_tail[1:, 1:] = tail
    return basis @ full_tail


def shoda_commutator(c) -> tuple[np.ndarray, np.ndarray]:
    """Single pair (x, y) with x y - y x = c, for traceless c.

    Raises TraceObstruction when |tr c| exceeds tol.trace * ||c||.  Hermitian and
    skew-Hermitian inputs go through a unitary frame, so both x and y come
    back Hermitian; general inputs use a well-conditioned similarity.
    """
    c = as_square_matrix(c, "c")
    tol = tolerances()
    n = c.shape[0]
    scale = operator_norm(c)
    trace = complex(np.trace(c))
    if abs(trace) > tol.trace * (scale if scale > 0 else 1.0):
        raise TraceObstruction(
            f"trace {trace:.6g} is nonzero relative to ||c|| = {scale:.6g}; "
            "commutators are traceless"
        )
    c = c - (trace / n) * np.eye(n)  # exact zero trace for the frame search
    scale = operator_norm(c)

    x_frame = np.diag(np.arange(1, n + 1)).astype(complex)
    if scale == 0.0:
        return hermitian_part(x_frame), np.zeros((n, n), dtype=complex)
    herm = is_hermitian(c)
    skew = is_hermitian(1j * c)
    if herm or skew:
        h = hermitian_part(c) if herm else hermitian_part(-1j * c)
        w = _unitary_zero_diagonalizer(h)
        inner = w.conj().T @ c @ w
        y_frame = _divided_offdiagonal(inner)
        x = w @ x_frame @ w.conj().T
        y = w @ y_frame @ w.conj().T
        # dividing a skew-Hermitian frame by (i - j) lands on a Hermitian y,
        # a Hermitian frame on a skew-Hermitian y; pin the symmetry exactly
        y = hermitian_part(y) if skew else (y - y.conj().T) / 2.0
        return hermitian_part(x), y
    s = _similarity_zero_diagonalizer(c / scale)
    inner = np.linalg.solve(s, c @ s)
    y_frame = _divided_offdiagonal(inner)
    s_inv = np.linalg.inv(s)
    return s @ x_frame @ s_inv, s @ y_frame @ s_inv


def _divided_offdiagonal(inner: np.ndarray) -> np.ndarray:
    """y with y_ij = inner_ij / (i - j) off the diagonal, zeros on it."""
    n = inner.shape[0]
    idx = np.arange(1, n + 1)
    denom = idx[:, None] - idx[None, :]
    np.fill_diagonal(denom, 1)
    y = inner / denom
    np.fill_diagonal(y, 0.0)
    return y


def hermitian_pair_split(x, y) -> CommutatorDecomposition:
    """Rewrite [x, y] as commutators with Hermitian second slots.

    [x, y] = [x, y1] + [i x, y2] for the Hermitian split y = y1 + i y2; this
    holds exactly for any x.  A slot whose y-part is numerically zero is
    dropped (a Hermitian y collapses to the single pair (x, y1)).
    """
    x = as_square_matrix(x, "x")
    y = as_square_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError("x and y must have matching shapes")
    tol = tolerances()
    target = x @ y - y @ x
    y1 = hermitian_part(y)
    y2 = hermitian_part((y - y.conj().T) / 2j)
    scale = max(operator_norm(y), 1.0)
    pairs = []
    if operator_norm(y1) > tol.exact * scale:
        pairs.append((x.copy(), y1))
    if operator_norm(y2) > tol.exact * scale:
        pairs.append((1j * x, y2))
    dec = CommutatorDecomposition(target=target, pairs=tuple(pairs), residual=0.0)
    residual = operator_norm(dec.commutator_sum() - target)
    return CommutatorDecomposition(target=target, pairs=tuple(pairs), residual=float(residual))


def zero_diagonal_commutators(a, block_size: int = 1) -> CommutatorDecomposition:
    """Exact commutator pairs for a block matrix with zero diagonal blocks.

    For each nonzero block a_{ij} (i != j) the pair is (E_ij (x) a_{ij},
    E_jj (x) 1): the first carries the block, the second is a diagonal
    projection, and their commutator reproduces exactly that block of a.
    """
    a = as_square_matrix(a, "a")
    tol = tolerances()
    nk = a.shape[0]
    k = int(block_size)
    if k < 1 or nk % k != 0:
        raise ValueError(f"block size {k} does not divide matrix size {nk}")
    n = nk // k
    scale = operator_norm(a)
    for i in range(n):
        blk = a[i * k : (i + 1) * k, i * k : (i + 1) * k]
        if operator_norm(blk) > tol.exact * max(scale, 1.0):
            raise ValueError(f"diagonal block {i} is not zero within tolerance")
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            blk = a[i * k : (i + 1) * k, j * k : (j + 1) * k]
            if not np.any(blk):
                continue
            x = np.zeros((nk, nk), dtype=complex)
            x[i * k : (i + 1) * k, j * k : (j + 1) * k] = blk
            y = np.zeros((nk, nk), dtype=complex)
            y[j * k : (j + 1) * k, j * k : (j + 1) * k] = np.eye(k)
            pairs.append((x, y))
    dec = CommutatorDecomposition(target=a, pairs=tuple(pairs), residual=0.0)
    residual = operator_norm(dec.commutator_sum() - a)
    return CommutatorDecomposition(target=a, pairs=tuple(pairs), residual=float(residual))
