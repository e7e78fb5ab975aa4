"""Exception types shared across the package."""

from __future__ import annotations


class QdetLabError(Exception):
    """Base class for all qdet-lab errors."""


class ParseError(QdetLabError, ValueError):
    """Malformed scalar string; ``position`` is the 0-based offset of the defect."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PoleError(QdetLabError, ArithmeticError):
    """A structurally forbidden denominator factor vanished during evaluation.

    ``location`` names the offending factor (parameter and index) so that a
    degenerate sample can be reported precisely.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{message} [{location}]")
        self.location = location


class NonTerminatingSeriesError(QdetLabError, ValueError):
    """A series that does not terminate where declared: no numerator q**(-order)
    for a basic series, no nonpositive-integer numerator for a classical one."""


class DegenerateSampleError(QdetLabError, RuntimeError):
    """The rejection sampler failed to find a non-degenerate point."""


class UsageError(QdetLabError, ValueError):
    """A request that cannot run: unknown input, no trials, nothing selected,
    a malformed SOURCE_DATE_EPOCH, or a report path that cannot be written."""
