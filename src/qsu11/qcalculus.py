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
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import lru_cache
from typing import Sequence, Union

from ._kernels import _U, phi21_kernel, qpoch_finite_kernel, qpoch_infinite_kernel
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

#: Relative half-width of the guard band around pole sets.  Parameters
#: within this relative distance of a pole (or of a terminating value)
#: are snapped onto it or refused, never evaluated "nearby".
EPS_POLE = 1e-9

#: Floor used when normalising residuals of near-zero quantities.
_RESIDUAL_FLOOR = 1e-300

#: Hard cap on the factors of a product multiplied out, whatever the
#: tolerance.
_MAX_FACTORS = 2_000_000

_LOG4 = math.log(4.0)

#: ``-log`` of the largest split point rho of :func:`qpoch_infinite`:
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
        The deformation parameter, strictly between 0 and 1.
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
        if not (0.0 < self.q < 1.0):
            raise InvalidArgumentError(f"q must lie in (0, 1), got {self.q!r}")
        object.__setattr__(self, "log_q", math.log(self.q))
        q2 = self.q * self.q
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
    gives ``inf``.
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
        if self.tail_bound == 0.0:
            return 0.0
        if self.value == 0:
            return math.inf
        try:
            return self.tail_bound / abs(self.value)
        except OverflowError:  # finite parts, modulus past the float range
            return math.inf

    def _scaled(self, x: complex, rel: float = 0.0) -> "SeriesEval":
        """``self * x`` for a scalar x known to within ``rel``, relative."""
        return _from_rel(self.value * x, self.terms_used,
                         _compound(self.rel_bound, rel) + _OP_ROUNDING)

    def __mul__(self, other):
        if not isinstance(other, SeriesEval):  # an exact scalar
            return self._scaled(other)
        return _from_rel(self.value * other.value,
                         self.terms_used + other.terms_used,
                         _compound(self.rel_bound, other.rel_bound) + _OP_ROUNDING)

    def __truediv__(self, other):
        if not isinstance(other, SeriesEval):
            return NotImplemented
        if other.degenerate or other.value == 0:
            raise PoleGuardError("division by a series value that vanished")
        return _from_rel(self.value / other.value,
                         self.terms_used + other.terms_used,
                         _quotient_rel(self.rel_bound, other.rel_bound)
                         + _OP_ROUNDING)

    def __add__(self, other):
        if not isinstance(other, SeriesEval):  # an exact scalar
            value, used, tail = self.value + other, self.terms_used, self.tail_bound
        else:
            value, used = self.value + other.value, self.terms_used + other.terms_used
            tail = self.tail_bound + other.tail_bound
        tail += _U * (abs(value.real) + abs(value.imag))  # >= u |value|
        return SeriesEval(value, used, tail if tail < math.inf else math.inf)

    # Complex * and + commute bit for bit, so ``s * a`` and ``0 + a`` (the
    # start of ``sum``) round exactly as ``a * s`` and ``a + 0``.
    __rmul__ = __mul__
    __radd__ = __add__

    def sqrt(self) -> "SeriesEval":
        """Principal square root (``cmath.sqrt``) with its propagated bound."""
        v, r = self.value, self.rel_bound
        cut = r > 1.0 or (r > 0.0 and v.real < 0.0 and abs(v.imag) <= r * abs(v))
        rel = math.inf if cut else r / (1.0 + math.sqrt(1.0 - r))
        return _from_rel(cmath.sqrt(v), self.terms_used, rel + _OP_ROUNDING)


_set_value, _set_terms_used, _set_tail_bound, _set_degenerate = \
    _frozen_slots(SeriesEval)

#: Relative rounding of a complex product (sqrt(5) u; Brent, Percival and
#: Zimmermann, 2007), quotient (5 u, Smith's algorithm) or root, rounded up.
_OP_ROUNDING = 6.0 * _U


def _compound(ra: float, rb: float) -> float:
    """Relative bound of a product whose factors have relative bounds ra, rb."""
    return ra + rb + ra * rb


def _quotient_rel(ra: float, rb: float) -> float:
    """Relative bound of a quotient whose numerator and denominator have
    relative bounds ra, rb (``inf`` once ``rb >= 1``)."""
    return (ra + rb) / (1.0 - rb) if rb < 1.0 else math.inf


def _from_rel(value: complex, terms_used: int, rel: float) -> SeriesEval:
    """Result with relative bound ``rel``; an exact zero is degenerate."""
    # ``rel`` is nan when an uncertified factor met an exact one (0 * inf),
    # and ``value`` when a product overflowed (inf - inf).
    try:
        tail = abs(value) * rel
    except OverflowError:  # finite parts, modulus past the float range
        tail = math.inf
    if not tail < math.inf:  # uncertified: inf or nan
        tail = math.inf
    return SeriesEval(value, terms_used, tail, value == 0 and tail == 0.0)


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
    if 2.0 * s < (1.0 - s) * abs(log_base):
        candidates = (round(t),)
    else:
        f, c = math.floor(t), math.ceil(t)
        candidates = (f, c, f - 1, c + 1)
    for j in candidates:
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
    k : int, >= 0
    """
    b = _base_value(base)
    if k < 0:
        raise InvalidArgumentError("qpoch_finite requires k >= 0; use qpoch_signed")
    _finite_modulus(a)
    return qpoch_finite_kernel(complex(a), b, int(k))


def qpoch_signed(a: complex, base: BaseLike, k: int) -> complex:
    """Pochhammer product ``(a; base)_k`` for any integer k.

    Negative indices follow the reciprocal convention
    ``(a; b)_{-n} = 1 / (a b^{-n}; b)_n``; a ``base**k`` past the float
    range raises :class:`InvalidArgumentError`.
    """
    if k >= 0:
        return qpoch_finite(a, base, k)
    b = _base_value(base)
    _finite_modulus(a)
    n = -int(k)
    denom = qpoch_finite_kernel(complex(a) * _power(b, -n), b, n)
    if denom == 0:
        raise PoleGuardError("reciprocal Pochhammer hit a vanishing factor")
    return 1.0 / denom


def qpoch_infinite(a: complex, base: BaseLike, tol: float = 1e-12) -> SeriesEval:
    """Infinite q-Pochhammer product ``(a; base)_inf``.

    The factors ``1 - a base^i`` with ``|a| base^i > rho`` are multiplied
    out, ``rho = exp(-sqrt(log(4/tol) |log base|))`` (at most
    ``exp(-1/32)``), which balances their count against the rest's.  The
    rest, ``(x; base)_inf`` at ``x = a base^K``, is ``exp(-s)`` with s the
    log series ``sum_{j>=1} x^j / (j (1 - base^j))``, summed to the first J
    whose remainder bound ``r^{J+1} / ((J+1)(1 - base^{J+1})(1 - r))``,
    ``r = |x|``, is at most ``tol / 4``.  ``terms_used`` is K + J, factors
    plus series terms, at least 1 (one term even for ``a = 0``).

    ``tail_bound`` bounds the whole error, absolute: ``|value|`` times
    ``expm1`` of that remainder bound (at most ``tol / 4``, comfortably
    for tol <= 1), compounded with a running bound on the kernel's own
    rounding (:func:`qsu11._kernels.qpoch_infinite_kernel`), which grows as
    a factor ``1 - a base^i`` loses its leading bits.  So ``tail_bound``
    is at least a few units of 2**-53 relative, whatever ``tol``.  A value
    past the float range has ``tail_bound = inf``; one below the normal
    range, where the relative bound lapses, is bounded absolutely.

    An ``a`` without a finite modulus, a ``tol`` that is not positive (NaN
    included) or so small that ``tol (1 - base) / 4`` underflows to 0,
    more than 2,000,000 factors to multiply out
    (``|a| base^2000000 > rho``), and a base outside (0, 1) raise
    :class:`InvalidArgumentError` on every call.

    Results are memoised on the exact inputs ``(complex(a), base value,
    float(tol))`` in a least-recently-used cache of 1024 entries, so a
    factor that many callers share (``(q^2; q^2)_inf``, the
    lambda-independent factors of the two-term forms) is computed once and
    its immutable :class:`SeriesEval` shared.  The split's constants depend
    on ``(base, tol)`` only and are computed once per pair.
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
    ``+0.0`` whatever the sign of ``f``'s, and the tests check the results.
    """
    lb, ell = _split(b, tol)
    r = abs(a)
    n_big = n_fac = 0
    if r > 0:
        log_r = math.log(r)
        if log_r + ell > 0:
            n_fac = math.ceil((log_r + ell) / lb)
        if r > 4.0:
            n_big = math.floor((log_r - _LOG4) / lb) + 1
    if n_fac > _MAX_FACTORS:
        raise InvalidArgumentError(
            f"(a; {b!r})_inf at |a| = {r!r} needs more than {_MAX_FACTORS} "
            f"factors to reach tol = {tol!r}")
    value, used, tail, degen = qpoch_infinite_kernel(a, b, n_big, n_fac, tol / 4.0)
    return SeriesEval(value, used, tail, degen)


@lru_cache(maxsize=64)
def _split(b: float, tol: float) -> tuple[float, float]:
    """``(-log b, ell)`` for :func:`_qpoch_infinite` at base ``b`` and ``tol``,
    computed once per pair: the factors with ``|a| b^i > rho = exp(-ell)``
    are multiplied out, where ell balances their count against the log
    series' (each about ``sqrt(log(4/tol) / |log b|)``); the first n_big
    (``|a| b^i >= 4``) untested.  A ``tol`` whose cutoff ``tol (1 - b) / 4``
    underflows raises :class:`InvalidArgumentError` (not cached)."""
    if tol * (1.0 - b) / 4.0 == 0:  # below every float: nothing could meet it
        raise InvalidArgumentError(f"tol = {tol!r} underflows the product cutoff")
    lb = -math.log(b)
    ell2 = (_LOG4 - math.log(tol)) * lb
    return lb, (math.sqrt(ell2) if ell2 > _MIN_LOG_RHO ** 2 else _MIN_LOG_RHO)


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
    underflows and more than 2,000,000 factors.
    """
    b = _base_value(base)
    part = tol / max(len(args), 1)
    if not (part > 0):
        raise InvalidArgumentError("tol must be positive")
    part = float(part)
    value = 1.0 + 0.0j
    used = 0
    rel = 3.0 * _U * (len(args) - 1) if len(args) > 1 else 0.0
    degen = False
    for a in args:
        _finite_modulus(a)
        ev = _qpoch_infinite(complex(a), b, part)
        used += ev.terms_used
        degen = degen or ev.degenerate
        rel = _compound(rel, ev.rel_bound)
        value *= ev.value
    return _from_rel(0j if degen else value, used, rel)


def theta_pair(a: complex, k: int, base: BaseLike, tol: float = 1e-12) -> ThetaPair:
    """Evaluate both sides of the theta-product shift identity.

    lhs = ``(a base^k; base)_inf (base^{1-k}/a; base)_inf`` and
    rhs = ``(-a)^{-k} base^{-k(k-1)/2} (a; base)_inf (base/a; base)_inf``
    agree identically in exact arithmetic for ``a != 0`` and integer k.
    A ``k`` at which a power of ``base`` or the rhs scale
    ``(-a)^{-k} base^{-k(k-1)/2}`` leaves the float range raises
    :class:`InvalidArgumentError`.

    When ``a`` lies inside the guard band around some ``base**j`` both
    sides vanish and the relative residual is meaningless; the pair is
    then returned with ``absolute=True`` and an un-normalised residual.
    """
    b = _base_value(base)
    if a == 0:
        raise InvalidArgumentError("theta_pair requires a != 0")
    k = int(k)
    try:  # the lattice powers and the rhs scale must be finite
        shifted = [a * b ** k, b ** (1 - k) / a]
        scale = (-a) ** (-k) * b ** (-k * (k - 1) // 2)
    except (OverflowError, ZeroDivisionError):  # (-a)**(-k) at a tiny a
        scale = math.inf
    if not cmath.isfinite(scale):
        raise InvalidArgumentError(
            f"a power of base or the rhs scale is past the float range at k = {k}")
    lhs = qpoch_multi(shifted, b, tol)
    rhs = (scale * qpoch_multi([a, b / a], b, tol)).value
    diff = abs(lhs.value - rhs)
    if _near_power(a, b) is not None:
        return ThetaPair(lhs.value, rhs, diff, absolute=True)
    scale = max(abs(lhs.value), abs(rhs), _RESIDUAL_FLOOR)
    return ThetaPair(lhs.value, rhs, diff / scale)


def _direct_guards(c: complex, z: complex, base: BaseLike, tol: float,
                   max_terms: int) -> float:
    """Argument checks shared by the direct sums; returns the base value.

    A non-finite ``c`` is refused by the pole check's :func:`_near_power`.
    """
    bb = _base_value(base)
    if not (tol > 0):
        raise InvalidArgumentError("tol must be positive")
    if max_terms < 1:
        raise InvalidArgumentError("max_terms must be >= 1")
    _finite_modulus(z)
    jc = _near_inv_power(c, bb)
    if jc is not None:
        raise PoleInCError(f"c is within {EPS_POLE} of base**(-{jc})")
    return bb


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
    * ``tail_bound`` covers the truncated tail and the sum's own rounding
      (:func:`qsu11._kernels.phi21_kernel`), not that of the arguments.
    """
    bb, n_exact = _direct_setup(a, b, c, base, z, tol, max_terms)
    return _direct_sum(a, b, c, bb, z, n_exact, tol, max_terms)


def _direct_setup(a: complex, b: complex, c: complex, base: BaseLike,
                  z: complex, tol: float, max_terms: int) -> tuple[float, int]:
    """The guards and snaps of :func:`phi21_direct`: returns the base value
    and the snapped terminating index (-1 when the series does not
    terminate), or raises as :func:`phi21_direct` does."""
    bb = _direct_guards(c, z, base, tol, max_terms)
    na = _near_inv_power(a, bb)
    nb = na if b == a else _near_inv_power(b, bb)
    if na is not None and nb is not None:
        n_exact = min(na, nb)
    elif na is not None:
        n_exact = na
    elif nb is not None:
        n_exact = nb
    else:
        n_exact = -1
        if abs(z) >= 1.0:
            raise DivergentSeriesError(
                f"non-terminating series at |z| = {abs(z)!r} >= 1"
            )
    return bb, n_exact


def _direct_sum(a: complex, b: complex, c: complex, bb: float, z: complex,
                n_exact: int, tol: float, max_terms: int) -> SeriesEval:
    """The sum of :func:`phi21_direct` once :func:`_direct_setup` passed."""
    value, used, tail, status = phi21_kernel(
        complex(a), complex(b), complex(c), bb, complex(z),
        n_exact, tol, int(max_terms),
    )
    return SeriesEval(value, used, tail if status == 0 else math.inf)


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

    Preconditions: ``0 < |kappa| < 1`` (else :class:`InvalidArgumentError`);
    ``lam**2`` nonzero (else :class:`InvalidArgumentError`) and at least
    ``EPS_POLE`` away (relatively) from every ``q**(2j)``, j integer, the
    expression's simple poles (else :class:`PoleGuardError`); ``kappa`` at
    least ``EPS_POLE`` away from every ``-q**(2k)``, k >= 1, where
    ``(-q^2/kappa; q^2)_inf`` vanishes, a pole of the continuation (else
    :class:`PoleGuardError` naming k, before any product); every product
    of ``T(u)`` and each quotient within the float range (else
    :class:`InvalidArgumentError`, before any series term).
    ``(-q^3/(u kappa); q^2)_inf`` and ``(-q^2/kappa; q^2)_inf`` leave it
    as ``kappa`` shrinks (at q = 0.5, lam = q^0.9: kappa = q^66).

    Each quotient is one :func:`qpoch_multi` over another, its factors
    summed to ``tol / 32`` each, times one :func:`phi21_direct` sum to
    ``tol / 8``, in :class:`SeriesEval` arithmetic.  Each quotient also
    carries ``(6 + k) u / d`` relative (u = 2**-53), d the relative
    distance of ``-kappa`` from ``q^{2Z}`` and k its nearest exponent: the
    factor of ``(-q^2/kappa; q^2)_inf`` nearest 0 is about d in size, and
    the roundings of ``-q^2/kappa`` and of the base ``q^2`` move it by up
    to (6 + k) u.  On the lattice ``kappa = +-q^{2k}`` the spherical
    coefficients do not use this form: :func:`qsu11.su11core.spherical_az`
    takes its products out of k.
    """
    if kappa == 0 or _finite_modulus(kappa) >= 1.0:
        raise InvalidArgumentError("the two-term continuation needs 0 < |kappa| < 1")
    q = base.q
    _pole_guard(lam, q)
    q2 = q * q
    k = _near_power(-kappa, q2, lo=1)
    if k is not None:
        raise PoleGuardError(
            f"kappa within {EPS_POLE} of -q**{2 * k} (k = {k}); continuation "
            f"has a pole")
    k = round(math.log(abs(kappa)) / math.log(q2))
    near = (6.0 + k) * _U / _power_distance(-kappa, q2)
    part_tol = tol / 8.0
    parts = []
    for u in (lam, 1.0 / lam):
        num = qpoch_multi([u * q, u * q, -q2 * q / (u * kappa), -u * kappa / q],
                          q2, part_tol)
        den = qpoch_multi([q2, u * u, -q2 / kappa, -kappa], q2, part_tol)
        ratio = num / den
        if not ratio.tail_bound < math.inf:  # uncertified, or past the float range
            _refuse_overflow("kappa", kappa, num.value, den.value, ratio.value)
        ratio = _from_rel(ratio.value, ratio.terms_used,
                          _compound(ratio.rel_bound, near))
        parts.append((ratio, q / u, q2 / (u * u)))
    return sum(ratio * phi21_direct(a, a, c, q2, -kappa, tol=part_tol,
                                    max_terms=max_terms)
               for ratio, a, c in parts)


def _pole_guard(lam: complex, q: float) -> None:
    """Refuse (:class:`PoleGuardError`) a ``lam`` whose square is within
    ``EPS_POLE`` (relatively) of some ``q**(2j)``, j integer, where the
    two-term forms are singular; a ``lam`` of 0, without a finite modulus
    or whose square underflows below the normal float range (``|lam|``
    below ``2**-511``, where the relative guard would test a square with
    fewer than 53 bits) raises :class:`InvalidArgumentError`."""
    if lam == 0:
        raise InvalidArgumentError("lam must be nonzero")
    lam2 = lam * lam
    if _modulus(lam2) < sys.float_info.min:
        raise InvalidArgumentError(
            f"lam**2 underflows below the normal float range at lam = {lam!r}")
    j = _near_power(lam2, q * q)
    if j is not None:
        raise PoleGuardError(
            f"lam**2 within {EPS_POLE} of q**({2 * j}); continuation is singular"
        )


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
    num = qpoch_multi([b, az], bb, part_tol)
    den = qpoch_multi([c, z], bb, part_tol)
    ratio = num / den
    if not ratio.tail_bound < math.inf:  # uncertified, or past the float range
        _refuse_overflow("z", z, num.value, den.value, ratio.value)
    return ratio * phi21_direct(c / b, z, az, bb, b, tol=part_tol,
                                max_terms=max_terms)
