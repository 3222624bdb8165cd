"""Dense corrections on the unit circle.

Given enough unimodular points, a small reassignment makes the collection
eps-dense on the circle while pinning the total product to exactly 1: the
m = m(eps) lowest-index points of the most crowded arc are moved onto the
m-th roots of unity, and the remaining points onto one common root chosen so
the full product telescopes to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import tolerances
from ..errors import InsufficientPoints

__all__ = [
    "minimal_root_order",
    "eps_dense_correction",
    "is_eps_dense",
    "TorusCorrection",
]


def minimal_root_order(eps: float) -> tuple[int, int]:
    """Smallest m >= 2 with |exp(2 pi i / m) - 1| < eps / 2, and N = m^2."""
    eps = float(eps)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = 2
    while not abs(np.exp(2j * np.pi / m) - 1.0) < eps / 2.0:
        m += 1
    return m, m * m


@dataclass(frozen=True, eq=False)
class TorusCorrection:
    """Reassigned unimodular points: eps-dense, product exactly one."""

    eps: float
    m: int
    required: int            # N = m^2, minimum input length
    mus: np.ndarray          # corrected points, same length/order as input
    head_indices: tuple[int, ...]   # inputs moved onto the m-th roots
    arc_index: int           # which of the m arcs was most crowded

    @property
    def zeta(self) -> complex:
        return complex(np.exp(2j * np.pi / self.m))

    def product_deviation(self) -> float:
        return float(abs(np.prod(self.mus) - 1.0))


def eps_dense_correction(lambdas, eps: float) -> TorusCorrection:
    """Correct unimodular points so they are eps-dense with unit product.

    Needs at least N = m(eps)^2 points (InsufficientPoints reports N).  The
    circle is cut into m equal arcs; by pigeonhole the most crowded arc
    (ties -> lowest arc index) holds at least m points, and its m lowest
    input indices are reassigned to 1, zeta, ..., zeta^{m-1}.  Every other
    point is set to the principal (len - m)-th root of zeta^{-m(m-1)/2},
    which cancels the head product exactly.
    """
    lam = np.asarray(lambdas, dtype=complex).reshape(-1)
    m, required = minimal_root_order(eps)
    if lam.size < required:
        raise InsufficientPoints(required=required, given=lam.size)
    if lam.size and np.max(np.abs(np.abs(lam) - 1.0)) > 1e2 * tolerances().unitary:
        raise ValueError("input points must lie on the unit circle")

    arc = np.floor(np.mod(np.angle(lam), 2.0 * np.pi) / (2.0 * np.pi / m)).astype(int)
    arc = np.clip(arc, 0, m - 1)
    counts = np.bincount(arc, minlength=m)
    arc_index = int(np.argmax(counts))  # argmax takes the lowest index on ties
    members = np.flatnonzero(arc == arc_index)
    heads = members[:m]

    n_total = lam.size
    mus = np.empty(n_total, dtype=complex)
    # tail value: principal (n - m)-th root of zeta^{-m(m-1)/2} = (-1)^(m-1)
    tail_count = n_total - m
    head_product_phase = np.pi * (m - 1)  # arg of zeta^{m(m-1)/2}
    tail_phase = (-head_product_phase) % (2.0 * np.pi)
    mus[:] = np.exp(1j * tail_phase / tail_count)
    mus[heads] = np.exp(2j * np.pi * np.arange(m) / m)
    return TorusCorrection(
        eps=float(eps), m=m, required=required, mus=mus,
        head_indices=tuple(int(i) for i in heads), arc_index=arc_index,
    )


def is_eps_dense(points, eps: float, grid_divisor: int = 10) -> bool:
    """Brute scan: every circle point of an (eps/divisor)-grid near some point."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    eps = float(eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    count = int(np.ceil(2.0 * np.pi / (eps / grid_divisor))) + 1
    grid = np.exp(2j * np.pi * np.arange(count) / count)
    dists = np.abs(grid[:, None] - pts[None, :]).min(axis=1)
    return bool(dists.max() <= eps)
