"""Exception types shared across the package, and the one integer check that raises them."""

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


class TooLarge(BaystowError):
    """Instance exceeds the exhaustive-search size bound."""


class InvalidSpec(BaystowError, ValueError):
    """A value breaks a bound of the type that owns it (a constructor or the CLI parser).

    A `ValueError` too; the file readers turn it into `ParseError`.
    """


class NonPositiveDate(InvalidSpec):
    """Delivery dates must be strictly positive."""


class ParseError(BaystowError):
    """A document could not be parsed; the message carries field or line context."""


class InvalidArrangement(BaystowError):
    """An arrangement failed constraint validation."""

    def __init__(self, violations) -> None:
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid arrangement: {shown}{more}")


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidSpec unless `value` is a builtin int (not a bool) and >= `least`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise InvalidSpec(f"{name} must be an integer >= {least}, got {value!r}")
