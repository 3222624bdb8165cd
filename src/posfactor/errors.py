"""Exception types raised by the factorization and obstruction routines."""

from __future__ import annotations


class PosfactorError(Exception):
    """Base class for all package-specific errors."""


class MathematicalObstruction(PosfactorError):
    """A genuine mathematical obstruction: the requested object cannot exist."""


class NotInvertible(MathematicalObstruction):
    """Input matrix is singular: a zero singular value or an exactly zero determinant."""


class IllConditioned(PosfactorError):
    """Invertible input too ill-conditioned for the tolerance pack: a precision limit."""


class DeterminantObstruction(MathematicalObstruction):
    """Determinant lies outside the admissible set (not real positive / not 1)."""


class TraceObstruction(MathematicalObstruction):
    """Input has nonzero trace and therefore is not a commutator."""


class BlockNotInvertible(PosfactorError):
    """The trailing block pivot of a block decomposition is singular."""


class BudgetExceeded(PosfactorError):
    """Predicted factor count exceeds the schedule's maxFactors cap."""


class InsufficientPoints(PosfactorError):
    """Fewer spectrum points than the density construction requires."""

    def __init__(self, required: int, given: int):
        self.required = int(required)
        self.given = int(given)
        super().__init__(
            f"need at least {self.required} points for this tolerance, got {self.given}"
        )
