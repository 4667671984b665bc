"""Exception types shared across the package."""

from __future__ import annotations


class BaystowError(Exception):
    """Base class for all package-specific errors."""


class CapacityExceeded(BaystowError):
    """More containers than the bay has cells."""


class CellEmpty(BaystowError):
    """An operation that needs an occupied cell was given an empty one."""


class ShapeMismatch(BaystowError):
    """Two arrangements do not share dimensions or occupancy."""


class EmptyPopulation(BaystowError):
    """Selection was asked to draw from an empty population."""


class NonPositiveDate(BaystowError):
    """Delivery dates must be strictly positive."""


class TooLarge(BaystowError):
    """Instance exceeds the exhaustive-search size bound."""


class InvalidSpec(BaystowError):
    """A generator or sweep specification violates one of its bounds."""


class ParseError(BaystowError):
    """A document could not be parsed; the message carries field or line context."""


class InvalidArrangement(BaystowError):
    """An arrangement failed constraint validation."""

    def __init__(self, violations) -> None:
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid arrangement: {shown}{more}")
