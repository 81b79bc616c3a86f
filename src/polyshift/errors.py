"""Exception hierarchy shared by all polyshift modules."""

from __future__ import annotations


class PolyshiftError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(PolyshiftError):
    """Operands live in polynomial rings with different variable counts."""


class DegreeMismatchError(PolyshiftError):
    """An operation defined only for equal total degrees was given unequal ones."""


class ZeroIdealError(PolyshiftError):
    """The zero ideal was passed to an operation that requires generators."""


class SupportError(PolyshiftError):
    """The ideal does not involve every ambient variable; restrict it first."""


class LinearityError(PolyshiftError):
    """The ideal has no linear resolution, so the socle is undefined."""


class PreconditionError(PolyshiftError):
    """A documented operation precondition does not hold for this input."""


class ResourceCapError(PolyshiftError):
    """A configured cap (subsets, lattice points, trees, product pairs) was exceeded."""


class FamilySpecError(PolyshiftError):
    """A family specification violates its structural invariants."""


class UnsupportedFamilyError(PolyshiftError):
    """No closed form is known for this family; fall back to the direct route."""


class NotStronglyStableError(PolyshiftError):
    """The ideal is not strongly stable, so the stable-ideal formulas do not apply."""


class RouteDisagreementError(PolyshiftError):
    """Two independent computation routes produced different answers (internal bug)."""


class ParseError(PolyshiftError):
    """Malformed textual input; a document's errors carry the 1-based line
    and column, a command-line value's carry none."""

    def __init__(
        self, message: str, line: int | None = None, column: int | None = None
    ):
        where = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + where)
        self.reason = message
        self.line = line
        self.column = column
