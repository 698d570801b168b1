"""Exception types shared across the package.

Every error raised by the public API derives from BonnesenError, so callers
can catch one base class. Names mirror the failure they signal rather than
where they occur.
"""

from __future__ import annotations


class BonnesenError(Exception):
    """Base class for all package errors."""


class EmptyInput(BonnesenError):
    """An angle list or parameter set was empty."""


class SumMismatch(BonnesenError):
    """Angle values do not add up to the declared total."""


class OutOfDomain(BonnesenError):
    """A coordinate left the open interval it must stay inside.

    Carries the offending index when one coordinate is to blame.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DomainViolation(BonnesenError):
    """A derived quantity (mean angle, margin window) is infeasible."""


class InvalidN(BonnesenError):
    """Polygon side count below the geometric minimum of 3."""


class RejectionBudgetExceeded(BonnesenError):
    """Rejection sampling exhausted its draw budget; the margin is too tight."""


class TotalsDiffer(BonnesenError):
    """Paired angle vectors must share the same coordinate sum."""


class MissingMu(BonnesenError):
    """Function family lacks the differential-constraint constant mu."""


class KindMismatch(DomainViolation):
    """Catalog entry does not apply to the polygon's kind."""


class ParamOutOfDomain(BonnesenError):
    """(alpha, k) pair lies outside the entry's legal parameter set."""


class UnknownId(BonnesenError):
    """No catalog entry with the requested identifier."""


class BudgetExceeded(BonnesenError):
    """Grid enumeration would exceed the evaluation point cap."""


class NonFiniteValue(BonnesenError):
    """A slack or a report value is inf or nan; it left the float range."""


class UsageError(BonnesenError):
    """Invalid command-line or config-file input (exit code 2)."""
