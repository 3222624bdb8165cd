"""Numerical tolerance pack shared by every module.

All comparisons in the package go through the thresholds collected here.  The
whole pack can be rescaled at runtime through the ``POSFACTOR_TOL``
environment variable: its value replaces the 1e-10 reference scale, i.e.
``POSFACTOR_TOL=1e-8`` multiplies every tolerance by 100.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

_REFERENCE = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Bundle of comparison thresholds (operator-norm based unless noted)."""

    reconstruction: float = 1e-10  # relative residual of reconstructions
    hermitian: float = 1e-10      # Hermitian symmetry defect, relative
    unitary: float = 1e-10        # unitarity defect ||u*u - 1||
    trace: float = 1e-10          # trace identities, relative
    determinant: float = 1e-8     # determinant phase defects, relative
    exact: float = 1e-12          # "exact" algebraic identities, absolute-ish
    positivity: float = 1e-12     # relative singular/eigenvalue floor: invertible, definite

    def scaled(self, reference: float) -> "Tolerances":
        """Return a copy with every threshold multiplied by reference/1e-10."""
        ratio = reference / _REFERENCE
        return Tolerances(**{f.name: getattr(self, f.name) * ratio for f in fields(self)})


DEFAULT_TOLERANCES = Tolerances()


def tolerances() -> Tolerances:
    """Active tolerance pack, honoring the POSFACTOR_TOL override."""
    raw = os.environ.get("POSFACTOR_TOL")
    if raw is None:
        return DEFAULT_TOLERANCES
    try:
        reference = float(raw)
    except ValueError as exc:
        raise ValueError(f"POSFACTOR_TOL must parse as a float, got {raw!r}") from exc
    if not reference > 0:
        raise ValueError(f"POSFACTOR_TOL must be positive, got {reference}")
    return DEFAULT_TOLERANCES.scaled(reference)
