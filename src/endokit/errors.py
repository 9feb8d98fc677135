"""Exception hierarchy for exact-arithmetic and bookkeeping failures."""

from __future__ import annotations


class EndokitError(Exception):
    """Base class for all library errors."""


class NotCommensurable(EndokitError):
    """Two lattices or diagonalizable groups do not have a common finite-index core."""


class AmbientMismatch(EndokitError):
    """Operands live in ambients of different rank."""


class NotNested(EndokitError):
    """A subspace argument is not contained where required."""


class LayoutMismatch(EndokitError):
    """A coordinate layout does not cover the group it is paired with."""


class InvariantViolation(EndokitError):
    """Input data violates a structural invariant (parity, closure, ...)."""


class MatchingFailure(EndokitError):
    """Internal factor matching failed; indicates a bug, not bad user input."""


class UnsupportedFactor(EndokitError):
    """An operation was asked to handle a factor type outside its scope."""


class UnsupportedPairing(EndokitError):
    """Two group types cannot be matched factor-by-factor."""


class ScenarioValidationError(EndokitError):
    """A descent scenario failed validation; carries the full violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
