"""q-Pochhammer products, a theta-product identity, and 2phi1 evaluators.

All operations work at a fixed real deformation parameter in (0, 1).
Series and products return a :class:`SeriesEval` carrying the value
together with an a-posteriori tail bound, so callers can propagate
honest accuracy estimates instead of trusting a black box.

Conventions
-----------
* ``(a; b)_k``   : finite product of ``(1 - a b^i)`` for ``i < k``.
* ``(a; b)_inf`` : the infinite product, truncated once the remaining
  factors are provably within the requested relative tolerance.
* ``2phi1(a, b; c; base, z)`` : sum over k >= 0 of
  ``(a; base)_k (b; base)_k / ((c; base)_k (base; base)_k) * z^k``.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import lru_cache
from typing import Callable, Sequence, Union

from ._kernels import (_U, euler_table, phi21_kernel, phi21_window_kernel,
                       qpoch_finite_kernel, qpoch_infinite_kernel)
from .errors import (
    DivergentSeriesError,
    InvalidArgumentError,
    PoleGuardError,
    PoleInCError,
)

__all__ = [
    "EPS_POLE",
    "QBase",
    "SeriesEval",
    "ThetaPair",
    "qpoch_finite",
    "qpoch_signed",
    "qpoch_infinite",
    "qpoch_multi",
    "theta_pair",
    "phi21_direct",
    "phi21_continued",
    "phi21_heine",
]

#: Relative half-width of the guard band around pole sets: parameters this
#: close to a pole are refused, never evaluated "nearby".  Only
#: :func:`phi21_direct` and :func:`phi21_heine` snap onto a terminating value.
EPS_POLE = 1e-9

#: Floor used when normalising residuals of near-zero quantities.
_RESIDUAL_FLOOR = 1e-300

#: Hard cap on the factors of a product multiplied out, whatever the
#: tolerance.
_MAX_FACTORS = 2_000_000

_LOG4 = math.log(4.0)

#: Bases below this sum a product's tail by Euler's series, the others by
#: the log series (:func:`_plan`).  Near 1 Euler's needs ever more factors
#: multiplied out first (its rho is 0.7 (1 - base)); on |a| log-uniform in
#: [0.03, 5] whole products cost the same at about 0.915 (2-core x86-64,
#: Python 3.11), and at 0.5 Euler's take 30% less time.
_EULER_BELOW = 0.92

#: ``-log`` of the largest split point rho of the log series' tail:
#: with ``r <= exp(-1/32)`` its log series stops within 24,000 terms
#: (``32 (log(4/tol) + log(1/(1 - base)) + log(32.5))``, and
#: ``tol (1 - base) / 4 >= 2**-1074``).
_MIN_LOG_RHO = 1.0 / 32.0

BaseLike = Union["QBase", float]


def _base_value(base: BaseLike) -> float:
    q = base.q if isinstance(base, QBase) else float(base)
    if not (0.0 < q < 1.0):
        raise InvalidArgumentError(f"base must lie in (0, 1), got {q!r}")
    return q


@dataclass(frozen=True)
class QBase:
    """A deformation parameter with its derived constants.

    Attributes
    ----------
    q : float
        The deformation parameter, strictly between 0 and 1, and large
        enough that ``q * q`` does not underflow to 0.
    log_q : float
        Natural logarithm of ``q`` (negative).
    cq : float
        The positive normalisation constant defined by
        ``cq**(-2) = 2 q^2 (q^2; q^2)_inf^2 (-q^2; q^2)_inf^2``,
        i.e. ``cq = 1 / (sqrt(2) q (q^2; q^2)_inf (-q^2; q^2)_inf)``.
    """

    q: float
    log_q: float = field(init=False, repr=False)
    cq: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        q2 = self.q * self.q
        if not (0.0 < self.q < 1.0 and q2 > 0.0):
            raise InvalidArgumentError(
                f"q must lie in (0, 1), its square above 0, got {self.q!r}")
        object.__setattr__(self, "log_q", math.log(self.q))
        p1, p2 = (_qpoch_infinite(complex(a), q2, 1e-16).value.real
                  for a in (q2, -q2))
        object.__setattr__(self, "cq", 1.0 / (math.sqrt(2.0) * self.q * p1 * p2))

    @property
    def period(self) -> float:
        """Imaginary period ``2 pi / |log q|`` of the spectral maps."""
        return 2.0 * math.pi / abs(self.log_q)


def _frozen_slots(cls: type) -> tuple:
    """Make every assignment to and deletion from an instance of the frozen
    slotted dataclass ``cls`` raise ``FrozenInstanceError``, and return the
    ``__set__`` of the slot of each of its fields, in field order.

    An ``__init__`` that stores its fields through these skips the frozen
    ``__setattr__`` (``object.__setattr__`` per field, as a frozen
    dataclass's own ``__init__`` does): about half the cost of one
    construction.  Frozen dataclasses without slots refuse every name;
    with slots, the generated ``__setattr__`` and ``__delattr__`` raise
    ``TypeError`` for a name that is not a field, so they are replaced.
    """
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


def _refuse_assignment(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True, slots=True)
class SeriesEval:
    """Value of a truncated series or product with accuracy metadata.

    Frozen and slotted (no ``__dict__``); ``__init__`` stores the fields
    through their slots, as one is built for every coefficient, product
    and operator result.

    Attributes
    ----------
    value : complex
        The computed value.
    terms_used : int
        Number of series terms, product factors and log-series terms
        consumed.  At least 1 whenever the series is nonempty.
    tail_bound : float
        Upper bound on the modulus of the error (absolute, not
        relative): the discarded remainder and the evaluator's own
        rounding.  ``math.inf`` signals that the evaluator ran out of
        terms before certifying convergence, or a value past the float
        range.
    degenerate : bool
        True when the value is exactly zero with no truncation error, as
        when a product factor vanished exactly.

    Arithmetic
    ----------
    ``a * b``, ``a / b``, ``a + b`` (``*`` and ``+`` also with an exact
    scalar) and ``a.sqrt()`` apply the operation to the values, add up
    ``terms_used`` and propagate ``tail_bound``, in relative terms
    ``r = tail_bound / |value|``: ``ra + rb + ra rb`` for a product,
    ``(ra + rb) / (1 - rb)`` for a quotient (``inf`` once ``rb >= 1``;
    a zero or degenerate divisor raises :class:`PoleGuardError`) and
    ``r / (1 + sqrt(1 - r))`` for a root (``inf`` once the error disc
    reaches the branch cut); sums add the bounds.  Each adds its own
    rounding, ``_OP_ROUNDING |result|`` (``u |result|`` for ``+``, u =
    2**-53).  An uncertified operand, or a value that overflows to nan,
    gives ``inf``.  Each rule is one function on plain values and bounds
    (``_mul``, ``_div``, ``_root``, ``_add``), which the operators call
    and so do the evaluators that build one ``SeriesEval`` per result.
    """

    value: complex
    terms_used: int
    tail_bound: float
    degenerate: bool = False

    def __init__(self, value: complex, terms_used: int, tail_bound: float,
                 degenerate: bool = False) -> None:
        _set_value(self, value)
        _set_terms_used(self, terms_used)
        _set_tail_bound(self, tail_bound)
        _set_degenerate(self, degenerate)

    @property
    def rel_bound(self) -> float:
        """``tail_bound / |value|``; ``inf`` when uncertified or inexactly 0."""
        return _rel_bound(self.value, self.tail_bound)

    def _scaled(self, x: complex, rel: float = 0.0) -> "SeriesEval":
        """``self * x`` for a scalar x known to within ``rel``, relative."""
        value, tail = _mul(self.value, self.tail_bound, x, rel)
        return _from_tail(value, self.terms_used, tail)

    def __mul__(self, other):
        if not isinstance(other, SeriesEval):  # an exact scalar
            return self._scaled(other)
        value, tail = _mul(self.value, self.tail_bound, other.value,
                           _rel_bound(other.value, other.tail_bound))
        return _from_tail(value, self.terms_used + other.terms_used, tail)

    def __truediv__(self, other):
        if not isinstance(other, SeriesEval):
            return NotImplemented
        value, tail = _div(self.value, self.tail_bound, other.value, other.tail_bound)
        return _from_tail(value, self.terms_used + other.terms_used, tail)

    def __add__(self, other):
        if not isinstance(other, SeriesEval):  # an exact scalar
            value, tail = _add(self.value, self.tail_bound, other, 0.0)
            return SeriesEval(value, self.terms_used, tail)
        value, tail = _add(self.value, self.tail_bound, other.value, other.tail_bound)
        return SeriesEval(value, self.terms_used + other.terms_used, tail)

    # Complex * and + commute bit for bit, so ``s * a`` and ``0 + a`` (the
    # start of ``sum``) round exactly as ``a * s`` and ``a + 0``.
    __rmul__ = __mul__
    __radd__ = __add__

    def sqrt(self) -> "SeriesEval":
        """Principal square root (``cmath.sqrt``) with its propagated bound."""
        value, tail = _root(self.value, self.tail_bound)
        return _from_tail(value, self.terms_used, tail)


_set_value, _set_terms_used, _set_tail_bound, _set_degenerate = \
    _frozen_slots(SeriesEval)

#: Relative rounding of a complex product (sqrt(5) u; Brent, Percival and
#: Zimmermann, 2007), quotient (5 u, Smith's algorithm) or root, rounded up.
_OP_ROUNDING = 6.0 * _U


def _rel_bound(value: complex, tail_bound: float) -> float:
    """:attr:`SeriesEval.rel_bound` of a value and its bound, also for a
    pair not (yet) held in a :class:`SeriesEval`."""
    if tail_bound == 0.0:
        return 0.0
    if value == 0:
        return math.inf
    try:
        return tail_bound / abs(value)
    except OverflowError:  # finite parts, modulus past the float range
        return math.inf


def _compound(ra: float, rb: float) -> float:
    """Relative bound of a product whose factors have relative bounds ra, rb."""
    return ra + rb + ra * rb


def _quotient_rel(ra: float, rb: float) -> float:
    """Relative bound of a quotient whose numerator and denominator have
    relative bounds ra, rb (``inf`` once ``rb >= 1``)."""
    return (ra + rb) / (1.0 - rb) if rb < 1.0 else math.inf


def _tail(value: complex, rel: float) -> float:
    """The absolute bound ``|value| rel`` of a value known to within ``rel``,
    relative; ``inf`` (uncertified) where that is not a finite float."""
    # ``rel`` is nan when an uncertified factor met an exact one (0 * inf),
    # and ``value`` when a product overflowed (inf - inf).
    try:
        tail = abs(value) * rel
    except OverflowError:  # finite parts, modulus past the float range
        return math.inf
    return tail if tail < math.inf else math.inf


def _from_tail(value: complex, terms_used: int, tail: float) -> SeriesEval:
    """Result with bound ``tail``; an exact zero is degenerate."""
    return SeriesEval(value, terms_used, tail, value == 0 and tail == 0.0)


# The rules of SeriesEval's operators on plain floats: each takes and
# returns values with their absolute bounds, and the operators and the
# evaluators that build one SeriesEval per result call them alike.

def _mul(value: complex, tail: float, x: complex, rel: float) -> tuple[complex, float]:
    """``value * x`` and its bound, ``value`` within ``tail`` and ``x`` within
    ``rel``, relative: the rule of ``*``."""
    product = value * x
    return product, _tail(product, _compound(_rel_bound(value, tail), rel)
                          + _OP_ROUNDING)


def _div(value: complex, tail: float, d: complex, d_tail: float) -> tuple[complex, float]:
    """``value / d`` and its bound: the rule of ``/``.  A ``d`` of 0 raises
    :class:`PoleGuardError`."""
    if d == 0:
        raise PoleGuardError("division by a series value that vanished")
    quotient = value / d
    return quotient, _tail(quotient, _quotient_rel(_rel_bound(value, tail),
                                                   _rel_bound(d, d_tail))
                           + _OP_ROUNDING)


def _root(value: complex, tail: float) -> tuple[complex, float]:
    """The principal square root of ``value`` and its bound: the rule of
    :meth:`SeriesEval.sqrt`."""
    r = _rel_bound(value, tail)
    cut = r > 1.0 or (r > 0.0 and value.real < 0.0 and abs(value.imag) <= r * abs(value))
    root = cmath.sqrt(value)
    return root, _tail(root, (math.inf if cut else r / (1.0 + math.sqrt(1.0 - r)))
                       + _OP_ROUNDING)


def _add(value: complex, tail: float, x: complex, x_tail: float) -> tuple[complex, float]:
    """``value + x`` and its bound: the rule of ``+``."""
    total = value + x
    tail = tail + x_tail + _U * (abs(total.real) + abs(total.imag))  # >= u |total|
    return total, (tail if tail < math.inf else math.inf)


@dataclass(frozen=True, slots=True)
class ThetaPair:
    """Both sides of the theta-product shift identity plus their residual.

    ``residual`` is relative (normalised by the larger modulus) unless
    ``absolute`` is set, which happens when the parameter sits inside
    the guard band around a zero of both sides; there the relative
    residual is ill-conditioned and the plain difference is reported.
    Frozen and slotted, built as :class:`SeriesEval` is.
    """

    lhs: complex
    rhs: complex
    residual: float
    absolute: bool = False

    def __init__(self, lhs: complex, rhs: complex, residual: float,
                 absolute: bool = False) -> None:
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_residual(self, residual)
        _set_absolute(self, absolute)


_set_lhs, _set_rhs, _set_residual, _set_absolute = _frozen_slots(ThetaPair)


def _modulus(x: complex) -> float:
    """``abs(x)``, or ``inf`` where ``x`` has finite parts whose modulus
    exceeds the float range (``abs`` raises ``OverflowError`` there)."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


def _finite_modulus(x: complex) -> float:
    """``abs(x)``, refusing with :class:`InvalidArgumentError` when it is not
    a finite float (a non-finite ``x``, or finite parts whose modulus
    exceeds the float range, where ``abs`` raises ``OverflowError``)."""
    try:
        r = abs(x)
    except OverflowError:
        r = math.inf
    if not math.isfinite(r):
        raise InvalidArgumentError(f"parameter {x!r} has no finite modulus")
    return r


def _power(base: float, n: int) -> float:
    """``base**n``, refused with :class:`InvalidArgumentError` past the float
    range (a power that underflows is returned as it rounds)."""
    try:
        return base ** n
    except OverflowError:
        raise InvalidArgumentError(f"{base!r}**{n} is past the float range") from None


def _integer(name: str, x: int) -> int:
    """``x`` as an ``int`` (``operator.index``); anything else, a float of
    integral value included, raises :class:`InvalidArgumentError`."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, not {x!r}") from None


def _near_power(x: complex, base: float, eps: float = EPS_POLE,
                lo: int | None = None, hi: int | None = None) -> int | None:
    """Return integer j with |x - base**j| <= eps * base**j, else None.

    A match puts ``|x| / base**j`` within ``s = eps + 1e-12 + 2e-322/|x|``
    of 1 (eps, and the rounding of the test, of t below and, the last
    term, of a subnormal ``base**j``), so j lies within
    ``s / ((1 - s) |log(base)|)`` of ``t = log|x| / log(base)``.  Unless
    ``base`` is within about ``2 eps`` of 1 or ``x`` is subnormal, that is
    below 1/2, and the one exponent that can match, ``round(t)``, is
    tested.  Otherwise several can, and ``floor(t)``, ``ceil(t)``,
    ``floor(t) - 1`` and ``ceil(t) + 1`` are tested in that order, the
    first match returned.  ``lo``/``hi`` optionally restrict the
    admissible exponent range (inclusive).  An ``x`` without a finite
    modulus raises :class:`InvalidArgumentError`.
    """
    r = _finite_modulus(x)
    if r == 0:
        return None
    log_base = math.log(base)
    t = math.log(r) / log_base
    s = eps + 1e-12 + 2e-322 / r
    if 2.0 * s < (1.0 - s) * abs(log_base):  # one candidate: no loop
        j = round(t)
        if (lo is not None and j < lo) or (hi is not None and j > hi):
            return None
        try:
            p = base ** j
            return j if abs(x - p) <= eps * p else None
        except OverflowError:  # base**j or x - base**j is past the float range
            return None
    f, c = math.floor(t), math.ceil(t)
    for j in (f, c, f - 1, c + 1):
        if (lo is not None and j < lo) or (hi is not None and j > hi):
            continue
        try:
            p = base ** j
            if abs(x - p) <= eps * p:
                return j
        except OverflowError:  # base**j or x - base**j is past the float range
            continue
    return None


def _power_distance(x: complex, base: float) -> float:
    """``min |x - base**j| / base**j`` over integers j, from the exponent
    nearest ``log|x| / log(base)`` and its neighbours: the relative
    distance of a finite nonzero ``x`` from the lattice ``base**Z``."""
    t = round(math.log(abs(x)) / math.log(base))
    dist = math.inf
    for j in (t - 1, t, t + 1):
        try:
            dist = min(dist, abs(x / base ** j - 1.0))
        except (OverflowError, ZeroDivisionError):  # base**j past the range
            continue
    return dist


def _near_inv_power(x: complex, base: float, eps: float = EPS_POLE) -> int | None:
    """Return n >= 0 with x within eps (relative) of base**(-n), else None."""
    j = _near_power(x, base, eps, hi=0)
    return -j if j is not None else None


def qpoch_finite(a: complex, base: BaseLike, k: int) -> complex:
    """Finite q-Pochhammer product ``(a; base)_k``.

    Parameters
    ----------
    a : complex, with a finite modulus
    base : QBase or float in (0, 1)
    k : int, >= 0 (anything that is not an integer, a float of integral
        value included, raises :class:`InvalidArgumentError`)
    """
    b = _base_value(base)
    k = _integer("k", k)
    if k < 0:
        raise InvalidArgumentError("qpoch_finite requires k >= 0; use qpoch_signed")
    _finite_modulus(a)
    return qpoch_finite_kernel(complex(a), b, k)


def qpoch_signed(a: complex, base: BaseLike, k: int) -> complex:
    """Pochhammer product ``(a; base)_k`` for any integer k.

    Negative indices follow the reciprocal convention
    ``(a; b)_{-n} = 1 / (a b^{-n}; b)_n``; a ``k`` that is not an integer
    and a ``base**k`` past the float range raise
    :class:`InvalidArgumentError`.
    """
    k = _integer("k", k)
    if k >= 0:
        return qpoch_finite(a, base, k)
    b = _base_value(base)
    _finite_modulus(a)
    n = -k
    denom = qpoch_finite_kernel(complex(a) * _power(b, -n), b, n)
    if denom == 0:
        raise PoleGuardError("reciprocal Pochhammer hit a vanishing factor")
    return 1.0 / denom


def qpoch_infinite(a: complex, base: BaseLike, tol: float = 1e-12) -> SeriesEval:
    """Infinite q-Pochhammer product ``(a; base)_inf``.

    The factors ``1 - a base^i`` with ``|a| base^i > rho`` are multiplied
    out; the rest, ``(x; base)_inf`` at ``x = a base^K``, is summed as a
    series, which one depends on the base alone (:func:`_plan`):

    * below 0.92, Euler's series ``sum_n e_n x^n``,
      ``e_n = (-1)^n base^(n(n-1)/2) / (base; base)_n``, with
      ``rho = min(1/2, 0.7 (1 - base))`` (at base 0.25 no factor for
      ``|a| <= 1/2``, two at most up to 8), in one Horner pass to the first N
      whose remainder bound, relative to a lower bound on
      ``|(x; base)_inf|``, is at most ``tol / 4``;
    * from 0.92 on, ``exp(-s)`` with s the log series
      ``sum_{j>=1} x^j / (j (1 - base^j))``, with
      ``rho = exp(-sqrt(log(4/tol) |log base|))`` (at most
      ``exp(-1/32)``), which balances the factors' count against the
      series', to the first J whose remainder bound
      ``r^{J+1} / ((J+1)(1 - base^{J+1})(1 - r))``, ``r = |x|``, is at most
      ``tol / 4``: near 1 Euler's series needs ever more factors first.

    ``terms_used`` is K plus N or J, factors plus series terms, at least 1
    (one term even for ``a = 0``).

    ``tail_bound`` bounds the whole error, absolute: the remainder bound
    (at most ``tol / 4`` relative, comfortably for tol <= 1) compounded
    with a bound on the kernel's own rounding
    (:func:`qsu11._kernels.qpoch_infinite_kernel`), gamma bounds
    ``n u / (1 - n u)`` throughout, which grows as a factor
    ``1 - a base^i`` loses its leading bits.  So ``tail_bound`` is at least
    a few units of 2**-53 relative, whatever ``tol``.  A value past the
    float range has ``tail_bound = inf``; one below the normal range,
    where the relative bound lapses, is bounded absolutely.

    An ``a`` without a finite modulus, a ``tol`` that is not positive (NaN
    included) or so small that ``tol (1 - base) / 4`` underflows to 0,
    more than 2,000,000 factors to multiply out
    (``|a| base^2000000 > rho``, which only bases from 0.92 on reach),
    and a base outside (0, 1) raise :class:`InvalidArgumentError` on every
    call.

    Results are memoised on the exact inputs ``(complex(a), base value,
    float(tol))`` in a least-recently-used cache of 1024 entries, so a
    factor that many callers share (``(q^2; q^2)_inf``, the
    lambda-independent factors of the two-term forms) is computed once and
    its immutable :class:`SeriesEval` shared.  What depends on
    ``(base, tol)`` only, Euler's coefficients included, is computed once
    per pair.
    """
    b = _base_value(base)
    if not (tol > 0):
        raise InvalidArgumentError("tol must be positive")
    _finite_modulus(a)
    return _qpoch_infinite(complex(a), b, float(tol))


@lru_cache(maxsize=1024)
def _qpoch_infinite(a: complex, b: float, tol: float) -> SeriesEval:
    """:func:`qpoch_infinite` on validated arguments, before memoisation.

    ``complex(x, 0.0)`` and ``complex(x, -0.0)`` are one cache key.  The
    kernel returns the same result for both: in Python's float-complex
    arithmetic (up to 3.13) every factor ``1.0 - f`` has imaginary part
    ``+0.0`` whatever the sign of ``f``'s, and so has every step
    ``s * x + e_n`` of Euler's series, which adds a float last; the tests
    check the results on both sides of the switch between the tails.
    """
    lb, ell, rho, euler = _plan(b, tol)
    r = abs(a)
    n_big = n_fac = 0
    if r > rho:
        log_r = math.log(r)
        n_fac = math.ceil((log_r + ell) / lb)
        if r > 4.0:
            n_big = math.floor((log_r - _LOG4) / lb) + 1
    if n_fac > _MAX_FACTORS:
        raise InvalidArgumentError(
            f"(a; {b!r})_inf at |a| = {r!r} needs more than {_MAX_FACTORS} "
            f"factors to reach tol = {tol!r}")
    value, used, tail, degen = qpoch_infinite_kernel(a, b, n_big, n_fac, tol / 4.0,
                                                     euler)
    return SeriesEval(value, used, tail, degen)


@lru_cache(maxsize=64)
def _plan(b: float, tol: float) -> tuple:
    """``(-log b, ell, rho, euler)`` for :func:`_qpoch_infinite` at base ``b``
    and ``tol``, computed once per pair: the factors with ``|a| b^i > rho =
    exp(-ell)`` are multiplied out (the first n_big, ``|a| b^i >= 4``,
    untested), and the rest summed by the tail the base selects.

    Below ``_EULER_BELOW`` it is Euler's series, cheaper there:
    ``rho = min(1/2, 0.7 (1 - b))`` and ``euler`` the tables of
    :func:`qsu11._kernels.euler_table` for the cutoff ``tol / 4``.  From
    there on it is the log series (``euler`` None): ell balances the
    factors' count against the series' (each about
    ``sqrt(log(4/tol) / |log b|)``), so ``qpoch_infinite(0.5, 0.9999)``
    takes 45 series terms and no factor, where Euler's series would first
    multiply out 88,735 factors.
    A ``tol`` whose cutoff ``tol (1 - b) / 4`` underflows raises
    :class:`InvalidArgumentError` (not cached)."""
    if tol * (1.0 - b) / 4.0 == 0:  # below every float: nothing could meet it
        raise InvalidArgumentError(f"tol = {tol!r} underflows the product cutoff")
    lb = -math.log(b)
    if b < _EULER_BELOW:
        rho, euler = euler_table(b, tol / 4.0)
        return lb, -math.log(rho), rho, euler
    ell2 = (_LOG4 - math.log(tol)) * lb
    ell = math.sqrt(ell2) if ell2 > _MIN_LOG_RHO ** 2 else _MIN_LOG_RHO
    return lb, ell, math.exp(-ell), None


def qpoch_multi(args: Sequence[complex], base: BaseLike, tol: float = 1e-12) -> SeriesEval:
    """Product of ``(a; base)_inf`` over all ``a`` in ``args``.

    The tolerance is split evenly across the factors; the relative bounds
    compound by :class:`SeriesEval`'s product rule, with 3 u (u = 2**-53)
    for each product of two values.

    The base and the split tolerance are validated once per list, then
    each argument's modulus, in order; each factor is
    :func:`qpoch_infinite`'s memoised result.  Each refusal is the one
    :func:`qpoch_infinite` raises, in the same order: a base outside
    (0, 1), a split ``tol`` that is not positive (NaN included, also for
    an empty list), then per argument a non-finite ``a``, a cutoff that
    underflows and more than 2,000,000 factors.  The product is formed on
    floats by :func:`_qpoch_product`, which the evaluators that build one
    :class:`SeriesEval` per result call themselves.
    """
    return _from_tail(*_qpoch_product(args, _base_value(base), tol))


#: The previous argument of :func:`_qpoch_product` before its first: an
#: object no argument is.
_NO_ARG = object()


def _qpoch_product(args: Sequence[complex], b: float,
                   tol: float) -> tuple[complex, int, float]:
    """:func:`qpoch_multi` at a valid base value ``b``, on floats: its value
    (exactly 0 when a factor vanished exactly), ``terms_used`` and
    ``tail_bound``, with its refusals after the base's, in its order.

    An argument that *is* the previous argument object (a square passed
    as ``[x, x]``) is checked and looked up once: its factor is the
    previous one again, the same floats.  Equal but distinct objects are
    looked up each (most lists repeat nothing, and an ``==`` test costs
    them more than it saves)."""
    part = tol / max(len(args), 1)
    if not (part > 0):
        raise InvalidArgumentError("tol must be positive")
    part = float(part)
    value = 1.0 + 0.0j
    used = 0
    rel = 3.0 * _U * (len(args) - 1) if len(args) > 1 else 0.0
    degen = False
    prev = _NO_ARG
    for a in args:
        if a is not prev:
            _finite_modulus(a)
            ev = _qpoch_infinite(complex(a), b, part)
            prev = a
        used += ev.terms_used
        degen = degen or ev.degenerate
        rel = _compound(rel, _rel_bound(ev.value, ev.tail_bound))
        value *= ev.value
    if degen:
        value = 0j
    return value, used, _tail(value, rel)


def theta_pair(a: complex, k: int, base: BaseLike, tol: float = 1e-12) -> ThetaPair:
    """Evaluate both sides of the theta-product shift identity.

    lhs = ``(a base^k; base)_inf (base^{1-k}/a; base)_inf`` and
    rhs = ``(-a)^{-k} base^{-k(k-1)/2} (a; base)_inf (base/a; base)_inf``
    agree identically in exact arithmetic for ``a != 0`` and integer k.
    A ``k`` that is not an integer, and one at which a power of ``base``
    or the rhs scale ``(-a)^{-k} base^{-k(k-1)/2}`` leaves the float
    range, raise :class:`InvalidArgumentError`.  Each product is
    :func:`qpoch_multi`'s value, formed on floats (:func:`_qpoch_product`,
    with its refusals), and the rhs is that value times the scale.

    When ``a`` lies inside the guard band around some ``base**j`` both
    sides vanish and the relative residual is meaningless; the pair is
    then returned with ``absolute=True`` and an un-normalised residual.
    """
    b = _base_value(base)
    if a == 0:
        raise InvalidArgumentError("theta_pair requires a != 0")
    k = _integer("k", k)
    try:  # the lattice powers and the rhs scale must be finite
        shifted = [a * b ** k, b ** (1 - k) / a]
        scale = (-a) ** (-k) * b ** (-k * (k - 1) // 2)
    except (OverflowError, ZeroDivisionError):  # (-a)**(-k) at a tiny a
        scale = math.inf
    if not cmath.isfinite(scale):
        raise InvalidArgumentError(
            f"a power of base or the rhs scale is past the float range at k = {k}")
    lhs = _qpoch_product(shifted, b, tol)[0]
    rhs = _qpoch_product([a, b / a], b, tol)[0] * scale
    diff = abs(lhs - rhs)
    if _near_power(a, b) is not None:
        return ThetaPair(lhs, rhs, diff, absolute=True)
    scale = max(abs(lhs), abs(rhs), _RESIDUAL_FLOOR)
    return ThetaPair(lhs, rhs, diff / scale)


def _budget(tol: float, max_terms: int) -> None:
    """The two checks of :func:`phi21_direct` that the package's own series
    (valid base, c and z) can fail: a ``tol`` that is not positive and a
    ``max_terms`` below 1 raise :class:`InvalidArgumentError`."""
    if not (tol > 0):
        raise InvalidArgumentError("tol must be positive")
    if max_terms < 1:
        raise InvalidArgumentError("max_terms must be >= 1")


def phi21_direct(a: complex, b: complex, c: complex, base: BaseLike, z: complex,
                 tol: float = 1e-12, max_terms: int = 200) -> SeriesEval:
    """Direct summation of ``2phi1(a, b; c; base, z)``.

    Behaviour
    ---------
    * A non-finite ``a``, ``b``, ``c`` or ``z`` raises
      :class:`InvalidArgumentError`.
    * If ``c`` is within ``EPS_POLE`` (relative) of ``base**(-j)`` for
      some integer j >= 0, raises :class:`PoleInCError`.
    * If ``a`` or ``b`` is within ``EPS_POLE`` of ``base**(-n)`` for
      some n >= 0, the series terminates: the parameter is treated as
      exactly ``base**(-n)`` and exactly ``n + 1`` terms are summed, with
      no truncation tail (the parameter's own offset from ``base**(-n)``
      is not counted).  This keeps unit cases exact (``a = 1`` gives
      value 1 with ``tail_bound = 0``).
    * Otherwise the series must satisfy ``|z| < 1``; if not, raises
      :class:`DivergentSeriesError`.
    * Convergent sums stop once a geometric envelope certifies the
      remaining tail below ``tol`` relative to the partial sum.  If
      ``max_terms`` is exhausted first, the partial sum is returned with
      ``tail_bound = math.inf`` rather than raising.
    * A sum whose value is not finite while its bound is infinite (a term
      left the float range: ``phi21_direct(0.3, 1e100, 0.25, 0.25, 0.1)``)
      raises :class:`InvalidArgumentError`.
    * ``tail_bound`` covers the truncated tail and the sum's own rounding
      (:func:`qsu11._kernels.phi21_kernel`), not that of the arguments.

    The package's own series (case 1, the coamen and closed-form series)
    have a valid c and z and converge: they make :func:`_budget`'s checks
    only, and are never snapped.
    """
    bb = _base_value(base)
    _budget(tol, max_terms)
    _finite_modulus(z)
    jc = _near_inv_power(c, bb)
    if jc is not None:
        raise PoleInCError(f"c is within {EPS_POLE} of base**(-{jc})")
    na = _near_inv_power(a, bb)
    nb = na if b == a else _near_inv_power(b, bb)
    n_exact = min((n for n in (na, nb) if n is not None), default=-1)
    if n_exact < 0 and abs(z) >= 1.0:
        raise DivergentSeriesError(f"non-terminating series at |z| = {abs(z)!r} >= 1")
    return _direct_sum(a, b, c, bb, z, n_exact, tol, max_terms)


def _direct_sum(a: complex, b: complex, c: complex, bb: float, z: complex,
                n_exact: int, tol: float, max_terms: int) -> SeriesEval:
    """:func:`phi21_direct`'s sum once its guards (and any snap) passed."""
    return SeriesEval(*_direct_terms(a, b, c, bb, z, n_exact, tol, max_terms))


def _direct_terms(a: complex, b: complex, c: complex, bb: float, z: complex,
                  n_exact: int, tol: float,
                  max_terms: int) -> tuple[complex, int, float]:
    """:func:`_direct_sum` on floats: value, ``terms_used``, ``tail_bound``."""
    return _certified(phi21_kernel(complex(a), complex(b), complex(c), bb,
                                   complex(z), n_exact, tol, int(max_terms)))


def _direct_window(a: complex, b: complex, bb: float, zs: Sequence[complex],
                   tol: float, max_terms: int) -> list[tuple]:
    """The series whose c is the base ``bb`` (case 1, the coamen series),
    summed in full at each z of ``zs``, all in the unit disc, in that
    order, after the caller's :func:`_budget`: ``phi21_kernel(a, b, bb,
    bb, z, -1, tol, max_terms)``'s tuples, by that call itself for one z
    and by one :func:`qsu11._kernels.phi21_window_kernel` call, bit for
    bit, for more.  :func:`_certified` makes each into
    :func:`_direct_terms`'s floats, or its refusal, where the caller takes
    it (so in the per-point order).
    """
    a, b, max_terms = complex(a), complex(b), int(max_terms)
    if len(zs) == 1:
        return [phi21_kernel(a, b, bb, bb, complex(zs[0]), -1, tol, max_terms)]
    return phi21_window_kernel(a, b, bb, [complex(z) for z in zs], tol, max_terms)


def _certified(terms: tuple) -> tuple[complex, int, float]:
    """A 2phi1 kernel's ``(value, terms_used, tail_bound)`` as
    :func:`_direct_terms` returns it: ``tail_bound = inf`` when uncertified,
    and then a value that is not finite, because a term left the float
    range (the kernel then sums on to ``max_terms`` and returns nan),
    raises :class:`InvalidArgumentError`."""
    value, used, tail = terms
    if tail == math.inf and not cmath.isfinite(value):
        raise InvalidArgumentError(
            f"a term of the 2phi1 series left the float range: value "
            f"{value!r} after {used} terms")
    return terms


def phi21_continued(lam: complex, kappa: complex, base: QBase,
                    tol: float = 1e-12, max_terms: int = 200) -> SeriesEval:
    """Two-term continuation of the spherical-type series in lambda, kappa.

    Evaluates, for ``q = base.q``, the continuation of
    ``2phi1(q/lam, lam q; q^2; q^2, -q^2/kappa)`` as the symmetric sum
    of two convergent series in the small argument ``-kappa``:

    ``T(lam) + T(1/lam)`` with

    ``T(u) = [(u q, u q, -q^3/(u kappa), -u kappa / q; q^2)_inf /
    (q^2, u^2, -q^2/kappa, -kappa; q^2)_inf]
    * 2phi1(q/u, q/u; q^2/u^2; q^2, -kappa)``.

    Refused, in this order: ``|kappa|`` not in (0, 1)
    (:class:`InvalidArgumentError`); the lam**2 pole guard of
    :func:`_two_term`; ``kappa`` within ``EPS_POLE`` of some ``-q**(2k)``,
    k >= 1, a pole where ``(-q^2/kappa; q^2)_inf`` vanishes
    (:class:`PoleGuardError` naming k, before any product); the rest as
    :func:`_two_term` refuses (``(-q^2/kappa; q^2)_inf`` leaves the float
    range as ``kappa`` shrinks: at q = 0.5, lam = q^0.9, kappa = q^66).

    The sum is :func:`_two_term`'s with ``C_u(kappa) = theta(-u kappa/q) /
    ((q^2; q^2)_inf theta(-kappa))``, ``theta(x) = (x, q^2/x; q^2)_inf``,
    one :func:`qpoch_multi` over another, at every kappa (on the lattice
    too, so a comparison with :func:`qsu11.su11core.spherical_az` checks
    one route against the other).  ``C_u`` also carries ``(6 + k) u / d``
    relative (u = 2**-53), d the relative distance of ``-kappa`` from
    ``q^{2Z}`` and k its nearest exponent: the factor of
    ``(-q^2/kappa; q^2)_inf`` nearest 0 is about d in size, and the
    roundings of ``-q^2/kappa`` and of the base ``q^2`` move it by up to
    (6 + k) u.
    """
    if kappa == 0 or _finite_modulus(kappa) >= 1.0:
        raise InvalidArgumentError("the two-term continuation needs 0 < |kappa| < 1")
    q = base.q
    q2 = q * q

    def coefficient(part_tol: float) -> list:
        k = _near_power(-kappa, q2, lo=1)
        if k is not None:
            raise PoleGuardError(
                f"kappa within {EPS_POLE} of -q**{2 * k} (k = {k}); continuation "
                f"has a pole")
        k = round(math.log(abs(kappa)) / math.log(q2))
        near = (6.0 + k) * _U / _power_distance(-kappa, q2)
        den = qpoch_multi([q2, -q2 / kappa, -kappa], q2, part_tol)
        out = []
        for u in (lam, 1.0 / lam):
            num = qpoch_multi([-q2 * q / (u * kappa), -u * kappa / q], q2, part_tol)
            c = num / den
            out.append((c.value, _tail(c.value, _compound(c.rel_bound, near)),
                        c.terms_used, (num.value, den.value)))
        return out

    return _two_term(lam, q, [-kappa], [0], coefficient, ("kappa", kappa), tol,
                     max_terms)[0]


#: Relative rounding of ``(q/u)**n`` per unit of n: n times that of
#: ``q/u`` (two complex quotients at most), plus that of the power, by
#: repeated squaring up to n = 100 and by ``hypot``, ``pow`` and ``atan2``
#: beyond (the phase n atan2 is off by up to n pi eps).
_POWER_ROUNDING = 16.0 * sys.float_info.epsilon

#: Relative rounding of a part of :func:`_two_term` per unit of 1/d, d
#: the relative distance of lam**2 from q^{2Z}: near it 1/lam, u q and u^2
#: carry 1 to 6 u, which a factor ``1 - f``, f within d/2 of 1, turns into
#: 12 u / d at most a part ((u q; q^2)_inf^2 at u = 1/lam).
_NEAR_LATTICE = 8.0 * sys.float_info.epsilon


def _two_term(lam: complex, q: float, zs: Sequence[complex], shifts: Sequence[int],
              coefficient: Callable[[float], list], label: tuple[str, object],
              tol: float, max_terms: int) -> list[SeriesEval]:
    """PropB2's two-term sum at each series argument ``z = -kappa`` of
    ``zs``, one :class:`SeriesEval` per z:

    sum over u in {lam, 1/lam} of (u q; q^2)_inf^2 / (u^2; q^2)_inf
        * C_u(kappa) * 2phi1(q/u, q/u; q^2/u^2; q^2, z),

    ``C_u(kappa) = c_u (q/u)^n``, n the z's entry of ``shifts`` (the
    theta shift k - 1 of cases 2 and 3, 0 in :func:`phi21_continued`).
    ``coefficient(part_tol)``, called after the lam**2 pole guard, returns
    c_u for u = lam, 1/lam: value, ``tail_bound``, ``terms_used`` and the
    product values it is formed from.

    The products of u run once per u, and per z (q/u)^n and two series
    (:func:`_direct_terms`), all to ``tol / 8``, by :class:`SeriesEval`'s
    rules on floats, once both u's factors passed.  The series converge
    (``|z| < 1``) and are summed in full, never snapped: a ``q/u`` near
    ``q^{-2n}`` puts lam**2 within 2 ``EPS_POLE`` of the lattice, where a
    snap would drop its offset.  Per u, ``(u q; q^2)_inf^2`` is one
    ``u q`` passed twice, one lookup (:func:`_qpoch_product`), and
    ``(u^2; q^2)_inf`` another.
    ``tail_bound`` also holds ``_NEAR_LATTICE sum |part| / d`` for the
    rounding of the arguments, d the relative distance of lam**2 from
    ``q^{2Z}``.  Refused before any series term: a product,
    quotient or ``c_u`` times them past the float range
    (:class:`InvalidArgumentError` naming ``label``), then a
    ``max_terms`` below 1 (:func:`_budget`), or (q/u)^n times them
    (naming k = n + 1).
    """
    _pole_guard(lam, q)
    q2 = q * q
    near = _NEAR_LATTICE / _power_distance(lam * lam, q2)
    part_tol = tol / 8.0
    parts = []
    for u, (c, c_tail, c_used, c_parts) in zip((lam, 1.0 / lam),
                                               coefficient(part_tol)):
        uq = u * q  # one object twice: (uq; q^2)_inf is looked up once
        num, num_used, num_tail = _qpoch_product([uq, uq], q2, part_tol)
        den, den_used, den_tail = _qpoch_product([u * u], q2, part_tol)
        ratio, ratio_tail = _div(num, num_tail, den, den_tail)
        factor, tail = _mul(c, c_tail, ratio, _rel_bound(ratio, ratio_tail))
        if not tail < math.inf:  # uncertified, or past the float range
            _refuse_overflow(*label, *c_parts, c, num, den, factor)
        _budget(part_tol, max_terms)
        a = q / u
        scaled = []
        for n in shifts:
            try:
                power = a ** n
            except OverflowError:  # complex ** int past the float range
                power = complex(math.inf)
            f = _mul(factor, tail, power, _POWER_ROUNDING * n)
            if not math.isfinite(_modulus(f[0])):
                raise InvalidArgumentError(
                    f"the factor (q/u)**{n} of the closed form is past "
                    f"the float range at k = {n + 1}")
            scaled.append(f)
        parts.append((scaled, a, q2 / (u * u), c_used + num_used + den_used))
    out = []
    for i, z in enumerate(zs):
        value, used, tail, size = 0, 0, 0.0, 0.0
        for scaled, a, cu, factor_used in parts:
            series, series_used, series_tail = _direct_terms(
                a, a, cu, q2, z, -1, part_tol, max_terms)
            part, part_tail = _mul(*scaled[i], series, _rel_bound(series, series_tail))
            value, tail = _add(value, tail, part, part_tail)
            used += factor_used + series_used
            size += _modulus(part)
        out.append(SeriesEval(value, used, tail + near * size))
    return out


def _pole_guard(lam: complex, q: float) -> None:
    """Refuse (:class:`PoleGuardError`) a ``lam`` whose square is within
    ``EPS_POLE`` (relatively) of some ``q**(2j)``, j integer, where the
    two-term forms are singular, after :func:`_lam_squared_guard`; a
    ``lam`` without a finite modulus raises :class:`InvalidArgumentError`."""
    lam2 = _lam_squared_guard(lam)
    j = _near_power(lam2, q * q)
    if j is not None:
        raise PoleGuardError(
            f"lam**2 within {EPS_POLE} of q**({2 * j}); continuation is singular"
        )


def _lam_squared_guard(lam: complex) -> complex:
    """``lam**2``, refused (:class:`InvalidArgumentError`) for a ``lam`` of 0
    or whose square underflows below the normal float range (``|lam|``
    below ``2**-511``, where the relative pole guard would test a square
    with fewer than 53 bits)."""
    if lam == 0:
        raise InvalidArgumentError("lam must be nonzero")
    lam2 = lam * lam
    if _modulus(lam2) < sys.float_info.min:
        raise InvalidArgumentError(
            f"lam**2 underflows below the normal float range at lam = {lam!r}")
    return lam2


def _refuse_overflow(name: str, label: object, *values: complex) -> None:
    """Raise :class:`InvalidArgumentError` when one of the product values
    ``values`` at ``name = label`` is past the float range (its modulus is
    not a finite float)."""
    for v in values:
        if not math.isfinite(_modulus(v)):
            raise InvalidArgumentError(
                f"a q-Pochhammer product at {name} = {label!r} is past the "
                f"float range")


def phi21_heine(a: complex, b: complex, c: complex, base: BaseLike, z: complex,
                tol: float = 1e-12, max_terms: int = 200) -> SeriesEval:
    """Continuation of ``2phi1(a, b; c; base, z)`` with small parameter b.

    Uses the classical Heine transformation

    ``2phi1(a, b; c; base, z) = [(b; base)_inf (a z; base)_inf /
    ((c; base)_inf (z; base)_inf)] * 2phi1(c/b, z; a z; base, b)``,

    which converges whenever ``|b| < 1``, extending the series beyond
    ``|z| < 1``.  Refused: ``|b| >= 1`` (:class:`InvalidArgumentError`),
    ``c`` or the transformed lower parameter ``a z`` on the pole lattice
    ``base**(-j)``, j >= 0 (:class:`PoleInCError`), ``z`` there (a zero of
    the denominator product, a genuine pole: :class:`PoleGuardError`), and,
    before the series is summed, a product of the prefactor or their
    quotient past the float range (``(z; base)_inf`` at a large ``|z|``;
    :class:`InvalidArgumentError`).

    The two products are :func:`qpoch_multi`'s, each to ``tol / 8``, and
    the series :func:`phi21_direct`'s, to ``tol / 8`` too, all formed on
    floats; their quotient and product follow :class:`SeriesEval`'s rules
    there, into the one returned :class:`SeriesEval`.  Each parameter is
    scanned against the pole lattice once: c, ``a z`` and z by the
    refusals above, which the series' own guards would repeat (its c is
    ``a z`` and its b is z), then its upper parameter ``c / b`` for the
    terminating snap, four :func:`_near_power` scans in all.
    """
    bb = _base_value(base)
    if abs(b) >= 1.0:
        raise InvalidArgumentError("phi21_heine needs |b| < 1")
    if _near_inv_power(c, bb) is not None:
        raise PoleInCError("c on the pole lattice base**(-j)")
    az = a * z
    if _near_inv_power(az, bb) is not None:
        raise PoleInCError("transformed parameter a*z on the pole lattice")
    jz = _near_inv_power(z, bb)
    if jz is not None:
        raise PoleGuardError(f"z within {EPS_POLE} of base**(-{jz}): continuation pole")

    part_tol = tol / 8.0
    num, num_used, num_tail = _qpoch_product([b, az], bb, part_tol)
    den, den_used, den_tail = _qpoch_product([c, z], bb, part_tol)
    ratio, tail = _div(num, num_tail, den, den_tail)
    if not tail < math.inf:  # uncertified, or past the float range
        _refuse_overflow("z", z, num, den, ratio)
    upper = c / b
    # phi21_direct(upper, z, az, bb, b)'s guards, less those run above:
    # its c (az), the snap of its b (z) and |b| < 1.
    _budget(part_tol, max_terms)
    n_exact = _near_inv_power(upper, bb)
    series, used, s_tail = _direct_terms(upper, z, az, bb, b,
                                         -1 if n_exact is None else n_exact,
                                         part_tol, max_terms)
    value, tail = _mul(ratio, tail, series, _rel_bound(series, s_tail))
    return _from_tail(value, num_used + den_used + used, tail)
