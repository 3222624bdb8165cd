"""Dense complex matrix kernels: spectral, polar, exp/log, block pivoting.

Every routine is pure (no mutation of inputs) and validates its preconditions
against the active tolerance pack.  Norms are operator norms (largest
singular value) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import tolerances
from .errors import BlockNotInvertible, DeterminantObstruction, IllConditioned, NotInvertible

__all__ = [
    "SpectralDecomposition",
    "PolarParts",
    "TracelessLog",
    "as_square_matrix",
    "operator_norm",
    "hermitian_defect",
    "hermitian_part",
    "is_hermitian",
    "require_hermitian",
    "is_positive_definite",
    "require_invertible",
    "chain_product",
    "hermitian_eig",
    "normal_eig",
    "polar_decompose",
    "matrix_exp",
    "positive_log",
    "traceless_unitary_log",
    "block_invertible_decomposition",
    "approximate_invertible",
    "matrix_to_wire",
    "matrix_from_wire",
]


# ---------------------------------------------------------------------------
# basic plumbing


def as_square_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square complex128 copy of ``x``."""
    a = np.array(x, dtype=complex, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return a


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(x, 2))


def hermitian_defect(x: np.ndarray) -> float:
    """||x - x*|| in operator norm."""
    return operator_norm(x - x.conj().T)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x*) / 2 — exactly Hermitian."""
    return (x + x.conj().T) / 2.0


def is_hermitian(x: np.ndarray) -> bool:
    """||x - x*|| is within the pack's relative Hermitian tolerance of ||x||."""
    scale = operator_norm(x)
    return hermitian_defect(x) <= tolerances().hermitian * (scale if scale > 0 else 1.0)


def require_hermitian(x: np.ndarray, name: str = "matrix") -> None:
    """Raise ValueError unless :func:`is_hermitian` holds."""
    if not is_hermitian(x):
        raise ValueError(f"{name} is not Hermitian within tolerance")


def _clears_floor(smallest: float, largest: float) -> bool:
    """Invertibility (singular values) or definiteness (eigenvalues) floor."""
    return largest > 0 and smallest > tolerances().positivity * largest


def _real_positive_det(det: complex, n: int, cond: float) -> bool:
    """Re det > 0, its phase within the rounding of an n x n det at condition cond."""
    slack = max(tolerances().determinant, n * np.finfo(float).eps * cond)
    return bool(det.real > 0 and abs(det.imag) <= slack * abs(det))


def is_positive_definite(p: np.ndarray) -> bool:
    """Hermitian within tolerance, every eigenvalue above the positivity floor."""
    if not is_hermitian(p):
        return False
    w = np.linalg.eigvalsh(hermitian_part(p))
    return _clears_floor(w[0], w[-1])


def require_invertible(x: np.ndarray, s: np.ndarray, name: str = "matrix") -> float:
    """Condition number of x (descending singular values s) if it clears the floor.

    Raises NotInvertible only for a zero singular value or an exactly zero
    determinant; a merely ill-conditioned x raises IllConditioned.
    """
    if _clears_floor(s[-1], s[0]):
        return float(s[0] / s[-1])
    if s[-1] == 0.0 or np.linalg.det(x) == 0.0:
        raise NotInvertible(f"{name} is singular")
    raise IllConditioned(
        f"{name} is too ill-conditioned for the tolerance pack (cond = {s[0] / s[-1]:.3e})"
    )


def _unitarity_defect(u: np.ndarray) -> float:
    return operator_norm(u.conj().T @ u - np.eye(u.shape[0]))


def chain_product(factors, n: int | None = None, word=None) -> np.ndarray:
    """Ordered product of a factor word under the canonical association.

    ``word`` is the run structure ``((block_length, repeat), ...)`` of the
    product, and ``factors`` hold each block's factors once, block after
    block; the default word is one flat block of all of them.  Each block is
    evaluated as a balanced pairwise tree (neighbours multiplied in place,
    the odd element, if any, carried to the next pass), raised to its repeat
    by repeated squaring, and the blocks are multiplied left to right.
    This is the package-wide *definition* of a chain product — stored
    residuals and verification recompute through this same routine, so the
    two always agree.
    """
    mats = [np.asarray(f, dtype=complex) for f in factors]
    if word is None:
        word = _flat_word(len(mats))
    if sum(length for length, _ in word) != len(mats):
        raise ValueError(f"word block lengths do not sum to the {len(mats)} factors given")
    if not mats:
        if n is None:
            raise ValueError("empty factor list needs an explicit dimension")
        return np.eye(int(n), dtype=complex)
    product, start = None, 0
    for length, repeat in word:
        block = _block_power(mats[start:start + length], repeat)
        product = block if product is None else product @ block
        start += length
    return product


def _flat_word(count: int) -> tuple[tuple[int, int], ...]:
    """The word of ``count`` factors taken once each, in one block."""
    return ((count, 1),) if count else ()


def _block_power(mats, repeat: int) -> np.ndarray:
    """One block of :func:`chain_product`: its balanced tree to the power ``repeat``.

    Always a fresh array, never one of the inputs.
    """
    if len(mats) == 1:
        return np.linalg.matrix_power(mats[0].copy(), repeat)
    arr = np.stack(mats)
    while arr.shape[0] > 1:
        m = arr.shape[0]
        paired = np.matmul(arr[0 : m - (m % 2) : 2], arr[1::2])
        if m % 2:
            paired = np.concatenate([paired, arr[-1:]], axis=0)
        arr = paired
    return np.linalg.matrix_power(arr[0], repeat)


# ---------------------------------------------------------------------------
# spectral and polar decompositions


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with a matching orthonormal column basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class PolarParts:
    """Polar factors: ``unitary @ positive`` recovers the input of condition ``cond``."""

    unitary: np.ndarray
    positive: np.ndarray
    cond: float


@dataclass(frozen=True)
class TracelessLog:
    """Traceless Hermitian ``a`` with ``exp(2 pi i a) = u`` and its branch shifts."""

    hermitian: np.ndarray
    branch_shifts: tuple[int, ...]


def hermitian_eig(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = as_square_matrix(h, "h")
    require_hermitian(h, "h")
    w, v = np.linalg.eigh(hermitian_part(h))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def normal_eig(x) -> SpectralDecomposition:
    """Eigendecomposition of a normal matrix via the complex Schur form.

    Eigenvalues are sorted by principal phase in [0, 2 pi), ties broken by
    modulus and then by Schur position, so the ordering is deterministic.
    """
    x = as_square_matrix(x, "x")
    tol = tolerances()
    t, q = scipy.linalg.schur(x, output="complex")
    w = np.diagonal(t).copy()
    off = operator_norm(t - np.diag(w))
    scale = operator_norm(x)
    if off > max(tol.reconstruction * (scale if scale > 0 else 1.0), 10 * np.finfo(float).eps * scale):
        raise ValueError("matrix is not normal within tolerance")
    phases = np.mod(np.angle(w), 2.0 * np.pi)
    order = np.lexsort((np.arange(len(w)), np.abs(w), phases))
    return SpectralDecomposition(eigenvalues=w[order], eigenvectors=q[:, order])


def polar_decompose(x) -> PolarParts:
    """Left polar decomposition x = u p with u unitary and p = (x* x)^(1/2)."""
    x = as_square_matrix(x, "x")
    u_svd, s, vh = np.linalg.svd(x)
    cond = require_invertible(x, s)
    unitary = u_svd @ vh
    positive = hermitian_part(vh.conj().T @ (s[:, None] * vh))
    return PolarParts(unitary=unitary, positive=positive, cond=cond)


# ---------------------------------------------------------------------------
# exponential and logarithms


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential.

    Hermitian and skew-Hermitian inputs go through their spectral form (so a
    Hermitian input yields an exactly Hermitian positive definite result and
    a skew-Hermitian input a numerically unitary one); everything else falls
    back to the general Pade evaluation.
    """
    x = as_square_matrix(x, "x")
    if is_hermitian(x):
        w, v = np.linalg.eigh(hermitian_part(x))
        return hermitian_part((v * np.exp(w)) @ v.conj().T)
    if is_hermitian(1j * x):  # x = i h, h Hermitian
        h = hermitian_part(-1j * x)
        w, v = np.linalg.eigh(h)
        return (v * np.exp(1j * w)) @ v.conj().T
    return scipy.linalg.expm(x)


def positive_log(p) -> np.ndarray:
    """Hermitian logarithm of a positive definite matrix."""
    p = as_square_matrix(p, "p")
    require_hermitian(p, "p")
    w, v = np.linalg.eigh(hermitian_part(p))
    if not _clears_floor(w[0], w[-1]):
        raise ValueError("p is not positive definite within tolerance")
    return hermitian_part((v * np.log(w)) @ v.conj().T)


def traceless_unitary_log(u) -> TracelessLog:
    """Traceless Hermitian a with exp(2 pi i a) = u, for det(u) = 1 unitaries.

    Eigenvalue phases are taken in [0, 1); their sum is an integer k (the
    winding of det u), and the k largest phases are shifted down by one to
    land the trace on zero.  Ties pick the lowest phase index.  The residual
    phase deficit (nonzero only when det u is merely close to 1) is spread
    evenly so the trace vanishes exactly.
    """
    u = as_square_matrix(u, "u")
    if _unitarity_defect(u) > tolerances().unitary:
        raise ValueError("input is not unitary within tolerance")
    det = complex(np.linalg.det(u))
    if not _real_positive_det(det, u.shape[0], 1.0):  # |det u| = 1: real positive is 1
        raise DeterminantObstruction(
            f"det(u) = {det:.6g} is not 1; no traceless logarithm exists"
        )
    return _traceless_log(u)


def _traceless_log(u: np.ndarray) -> TracelessLog:
    """:func:`traceless_unitary_log` of a unitary whose determinant the caller judged."""
    n = u.shape[0]
    spec = normal_eig(u)
    phases = np.mod(np.angle(spec.eigenvalues) / (2.0 * np.pi), 1.0)
    total = float(np.sum(phases))
    k = int(round(total))
    shifts = np.zeros(n, dtype=int)
    if k > 0:
        order = np.lexsort((np.arange(n), -phases))
        shifts[order[:k]] = -1
    alpha = phases + shifts
    alpha = alpha - (total - k) / n  # exact zero trace
    v = spec.eigenvectors
    a = hermitian_part((v * alpha) @ v.conj().T)
    return TracelessLog(hermitian=a, branch_shifts=tuple(int(s) for s in shifts))


# ---------------------------------------------------------------------------
# block pivoting and regularization


def block_invertible_decomposition(x, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split x into L @ M @ R with unit-triangular L, R and block-diagonal M.

    The trailing k x k block d of x must be invertible; M = diag(y, d) with
    y the pivot complement a - b d^{-1} c.
    """
    x = as_square_matrix(x, "x")
    n = x.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"block size k must lie in [1, {n}], got {k}")
    m = n - k
    a, b = x[:m, :m], x[:m, m:]
    c, d = x[m:, :m], x[m:, m:]
    sd = np.linalg.svd(d, compute_uv=False)
    if not _clears_floor(sd[-1], sd[0]):
        raise BlockNotInvertible(f"trailing {k}x{k} block is singular to working precision")
    b_dinv = np.linalg.solve(d.conj().T, b.conj().T).conj().T  # b d^{-1}
    dinv_c = np.linalg.solve(d, c)
    left = np.eye(n, dtype=complex)
    left[:m, m:] = b_dinv
    right = np.eye(n, dtype=complex)
    right[m:, :m] = dinv_c
    middle = np.zeros((n, n), dtype=complex)
    middle[:m, :m] = a - b_dinv @ c
    middle[m:, m:] = d
    return left, middle, right


def approximate_invertible(x, eps: float) -> np.ndarray:
    """Nearest-in-spirit invertible neighbour within distance eps.

    Inputs that clear the pack's conditioning floor come back unchanged;
    otherwise singular values are floored at eps/2 in the SVD frame.
    """
    x = as_square_matrix(x, "x")
    eps = float(eps)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    u, s, vh = np.linalg.svd(x)
    if _clears_floor(s[-1], s[0]):
        return x
    floored = np.maximum(s, eps / 2.0)
    return (u * floored) @ vh


# ---------------------------------------------------------------------------
# wire format


def matrix_to_wire(x) -> dict:
    """JSON-ready form: {"n": n, "entries": [[re, im], ...]} in row-major order."""
    x = as_square_matrix(x, "x")
    n = x.shape[0]
    flat = x.reshape(-1)
    return {"n": n, "entries": [[float(z.real), float(z.imag)] for z in flat]}


def matrix_from_wire(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_wire`, with shape/finiteness validation."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix object must carry 'n' and 'entries'")
    n = int(obj["n"])
    entries = obj["entries"]
    if n < 1 or len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries for n = {n}, got {len(entries)}")
    flat = np.empty(n * n, dtype=complex)
    for i, pair in enumerate(entries):
        re, im = float(pair[0]), float(pair[1])
        flat[i] = complex(re, im)
    return as_square_matrix(flat.reshape(n, n), "matrix")
