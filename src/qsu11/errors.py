"""Exception types shared across the package.

Every domain failure raised by the numerical layers derives from
:class:`QSU11Error` so callers can catch one base type.  The concrete
subclasses distinguish the failure modes that the evaluators detect
before (or during) summation.
"""

from __future__ import annotations

__all__ = [
    "QSU11Error",
    "InvalidArgumentError",
    "PoleInCError",
    "PoleGuardError",
    "DivergentSeriesError",
    "PathOutsideDomainError",
    "QuadratureUnderResolvedError",
]


class QSU11Error(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(QSU11Error, ValueError):
    """An argument is outside the documented domain of the operation."""


class PoleInCError(QSU11Error):
    """The lower parameter of a basic hypergeometric series sits on a pole.

    Raised when c is within the pole tolerance of base**(-j) for some
    integer j >= 0, where the term denominators (c; base)_k vanish.
    """


class PoleGuardError(QSU11Error):
    """A continued evaluation was requested too close to its pole set.

    The two-term continuation has simple poles where lambda**2 hits an
    even power of the deformation parameter; evaluation inside the guard
    band around that set is refused rather than returned inaccurately.
    """


class DivergentSeriesError(QSU11Error):
    """A non-terminating series was requested at |z| >= 1.

    The direct sum only converges on the open unit disc; callers that
    need values outside it must go through a continuation formula.
    """


class PathOutsideDomainError(QSU11Error):
    """A contour node left the domain where the integrand is defined."""


class QuadratureUnderResolvedError(QSU11Error):
    """A quadrature cannot certify its value within the budget.

    Raised when the truncated Gaussian tail, the node-doubling change or
    the smoothed value's certificate exceeds the budget, or when the
    integrand's series at a node comes back uncertified.
    """
