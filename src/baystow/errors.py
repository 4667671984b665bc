"""Exception types shared across the package, and the integer and real-number checks that raise them.

Each class means one thing: `InvalidSpec`, a constructor or the CLI parser
rejected an outside value; `ParseError`, a file could not be read;
`ShapeMismatch`, an arrangement does not match its instance or the other
parent; `InvalidArrangement`, validation found violations, which it carries.
A library caller who breaks a function's precondition gets a `ValueError`.
"""

from __future__ import annotations

from numbers import Real


class BaystowError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(BaystowError):
    """An arrangement does not match its instance or the other parent."""


class InvalidSpec(BaystowError, ValueError):
    """A rejected outside value; a `ValueError` too, re-raised by the file readers as `ParseError`."""


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


def require_real(name: str, value) -> None:
    """Raise InvalidSpec unless `value` is a real number (not a bool)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise InvalidSpec(f"{name} must be a real number, got {value!r}")
