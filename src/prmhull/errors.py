"""Exception types shared across the package."""

from __future__ import annotations


class PrmHullError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(PrmHullError):
    """The requested field size is not a prime power in the supported range."""


class DivisionByZero(PrmHullError):
    """Multiplicative inverse of the zero element was requested."""


class FieldMismatch(PrmHullError):
    """Operands belong to different fields."""


class DimensionMismatch(PrmHullError):
    """Matrix or vector shapes are incompatible."""


class InternalInconsistency(PrmHullError):
    """Two independent computations of the same quantity disagreed.

    This signals a bug in the linear algebra, never bad user input.
    """


class OutOfRange(PrmHullError):
    """A parameter lies outside the range where the requested formula holds."""


class BudgetExceeded(PrmHullError):
    """An exhaustive enumeration would exceed the allowed message count."""


class UsageError(PrmHullError):
    """A request that cannot run as given, such as an empty sweep grid.

    The command-line tool reports it with exit code 64.
    """
