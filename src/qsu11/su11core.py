"""Spherical-type coefficient families on a two-sided geometric lattice.

The objects here live on the discrete set ``{+q^k : k integer} union
{-q^k : k >= 1}``.  The module provides the structural maps on that
set, the spectral parametrisation ``z -> lam = q^z``, the spherical
coefficient ``a_z`` at each point, and the averaged coefficient
families whose limits the verification suites check.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import qcalculus
from .errors import InvalidArgumentError
from .qcalculus import (
    QBase,
    SeriesEval,
    _add,
    _budget,
    _certified,
    _direct_sum,
    _direct_window,
    _div,
    _from_tail,
    _frozen_slots,
    _integer,
    _lam_squared_guard,
    _modulus,
    _mul,
    _power,
    _qpoch_infinite,
    _refuse_overflow,
    _rel_bound,
    _root,
    _two_term,
    _U,
    phi21_heine,
    qpoch_finite_kernel,
)

__all__ = [
    "IqPoint",
    "StructuralMaps",
    "SpectralParam",
    "structural_maps",
    "spherical_az",
    "spherical_window",
    "coamen_coeff",
    "averaged_coamen",
]


#: Largest ``|log |lam||`` for which ``lam`` and ``1/lam`` are finite.
_LOG_MAX = math.log(sys.float_info.max)

_EPS = sys.float_info.epsilon

@dataclass(frozen=True, slots=True)
class IqPoint:
    """A classical point ``sign * q**exponent`` of the disc spectrum.

    ``sign`` is +1 or -1 and ``exponent`` an integer (anything else, a
    float of integral value included, raises
    :class:`InvalidArgumentError`); negative points require
    ``exponent >= 1`` (the negative branch starts at ``-q``).  Frozen and
    slotted; the arguments are checked before any field is stored.
    """

    sign: int
    exponent: int

    def __init__(self, sign: int, exponent: int) -> None:
        if sign not in (1, -1):
            raise InvalidArgumentError("sign must be +1 or -1")
        if type(exponent) is not int:  # checked; an int passes as it is
            exponent = _integer("exponent", exponent)
        if sign < 0 and exponent < 1:
            raise InvalidArgumentError("negative points require exponent >= 1")
        _set_sign(self, sign)
        _set_exponent(self, exponent)

    @classmethod
    def positive(cls, exponent: int) -> "IqPoint":
        return cls(1, exponent)

    @classmethod
    def negative(cls, exponent: int) -> "IqPoint":
        return cls(-1, exponent)

    def value(self, base: QBase) -> float:
        return self.sign * _power(base.q, self.exponent)

    def shifted(self, steps: int) -> "IqPoint":
        """The point with exponent increased by ``steps`` (same sign)."""
        return IqPoint(self.sign, self.exponent + steps)


_set_sign, _set_exponent = _frozen_slots(IqPoint)


@dataclass(frozen=True)
class StructuralMaps:
    """Values of the structural maps at one point.

    ``kappa = sign * q**(2 exponent)`` (signed square), ``chi`` is the
    integer exponent itself, and ``nu = q**((chi-1)(chi-2)/2)``.
    """

    value: float
    kappa: float
    chi: int
    nu: float


def nu_exponent(k: int) -> int:
    """Integer exponent of ``nu`` at ``+-q^k``: (k-1)(k-2)/2 exactly."""
    return (k - 1) * (k - 2) // 2


def structural_maps(p: IqPoint, base: QBase) -> StructuralMaps:
    """Evaluate value, kappa, chi, nu at ``p`` with exact exponent arithmetic.

    A power of q past the float range raises :class:`InvalidArgumentError`.
    """
    q = base.q
    k = p.exponent
    return StructuralMaps(
        value=p.sign * _power(q, k),
        kappa=p.sign * _power(q, 2 * k),
        chi=k,
        nu=q ** nu_exponent(k),
    )


@dataclass(frozen=True, slots=True)
class SpectralParam:
    """Spectral parameter ``z`` with its derived quantities.

    ``lam = q**z`` computed after reducing ``Im z`` modulo the imaginary
    period ``2 pi / |log q|`` (so equal-by-period parameters produce
    bit-identical values), and ``x = (lam + 1/lam) / 2``.  ``from_z``
    raises :class:`InvalidArgumentError` when ``z`` is not finite or
    ``|lam|`` would overflow or underflow (``|Re z log q|`` past the
    float exponent range).  Frozen and slotted.
    """

    z: complex
    lam: complex
    x: complex

    def __init__(self, z: complex, lam: complex, x: complex) -> None:
        _set_z(self, z)
        _set_lam(self, lam)
        _set_x(self, x)

    @classmethod
    def from_z(cls, z: complex, base: QBase) -> "SpectralParam":
        zc = complex(z)
        log_mag = zc.real * base.log_q
        if not (cmath.isfinite(zc) and abs(log_mag) < _LOG_MAX):
            raise InvalidArgumentError(f"q**z is not a finite nonzero number "
                                       f"at z = {zc!r}")
        y = math.remainder(zc.imag, base.period)
        mag = math.exp(log_mag)
        theta = y * base.log_q
        lam = complex(mag * math.cos(theta), mag * math.sin(theta))
        return cls(zc, lam, (lam + 1.0 / lam) / 2.0)


_set_z, _set_lam, _set_x = _frozen_slots(SpectralParam)


def spherical_az(base: QBase, zp: SpectralParam, p0: IqPoint,
                 tol: float = 1e-12, max_terms: int = 200) -> SeriesEval:
    """Spherical coefficient ``a_z(p0)`` of the averaged vector states.

    Dispatch by the location of ``p0``:

    * ``p0 = +q^k, k <= 0``: convergent series
      ``2phi1(q/lam, lam q; q^2; q^2, -q^{2-2k})``.
    * ``p0 = +-q^k, k >= 1`` (cases 2 and 3): one closed form,

      ``q^{k-1} theta(-q lam) / ((q^2; q^2)_inf theta(-q^2)) * sum over
      u in {lam, 1/lam} of u^{1-k} (u q; q^2)_inf^2 / (u^2; q^2)_inf
      * 2phi1(q/u, q/u; q^2/u^2; q^2, -+q^{2k})``

      with ``theta(x) = (x, q^2/x; q^2)_inf``: PropB2's two-term sum, as
      :func:`qsu11.qcalculus.phi21_continued` evaluates it, with its
      coefficient formed by the theta shift (:func:`_closed_form`).

    The continued cases are refused as that sum refuses (a lam**2 in the
    guard band around ``q**(2 Z)``: :class:`PoleGuardError`; case 1 is
    not), and with :class:`InvalidArgumentError`, before any series term,
    when ``kappa = +-q^{2k}`` underflows to 0 (q = 0.5: from k = 538), or
    ``lam**2`` to below the normal float range (Re z above 511), or when
    their products (at large ``|Re z|``), or ``(q/u)^{k-1}`` times them
    (q = 0.5, z = -3.3: from k = 445, where the value does) leave the
    float range.  A series whose value is not finite, because a term left
    the float range (case 1 at q = 0.5, z = -100, k = 0), raises
    :class:`InvalidArgumentError`.  This is the one-exponent window
    (:func:`spherical_window`).
    """
    return _coefficients(base, zp.lam, p0.sign, [p0.exponent], tol,
                         max_terms)[0]


def spherical_window(base: QBase, zp: SpectralParam, sign: int,
                     ks: Sequence[int], tol: float = 1e-12,
                     max_terms: int = 200) -> list[SeriesEval]:
    """``spherical_az(base, zp, IqPoint(sign, k), tol, max_terms)`` for each
    k of ``ks``, consecutive ascending exponents, in that order, each
    with its own certificate.

    Work that does not depend on k is done once.  Case 1 (``sign = +1``,
    k <= 0) checks ``tol`` and ``max_terms`` once
    (:func:`qsu11.qcalculus._budget`: its c is the base, no pole), then sums
    its series in full, never snapped, at every k
    (:func:`qsu11.qcalculus._direct_window`), :func:`spherical_az`'s
    values bit for bit; a sum whose value is not finite (a term past the
    float range) raises :class:`InvalidArgumentError`, the first such k's
    error.  In a window of two or more exponents
    reaching k >= 1, the refusal of a lam**2 below the normal float range,
    made before any series is summed, is followed by the three-term
    recurrence in k (:func:`_recurrence`), seeded by the case-1 values
    a(-1), a(0) (positive branch) or the case-3 value a(-q) (negative).
    Each recurrence value carries a running bound on its whole error, the
    seeds' ``tail_bound`` included; ``terms_used`` is the seeds' count
    plus one per step.  From the first k whose bound exceeds
    ``tol * max(1, |a|)`` the rest of the window goes through the closed
    form (:func:`_closed_form`), its products summed once for the run,
    :func:`spherical_az`'s values bit for bit.

    The lam**2 pole guard (the refusal of :func:`spherical_az` at k >= 1)
    is the closed form's: it refuses the negative seed and the fallback,
    not the positive branch's recurrence, which has no pole there.  So a
    positive window at or near lam**2 on ``q^{2Z}`` (z = 0, z = 1) is
    evaluated where the recurrence certifies it.  A one-exponent window
    is :func:`spherical_az`; recurrence values differ from the pointwise
    ones by at most the two certificates.  A refusal of the closed form at
    an exponent it evaluates refuses the whole window.  An empty ``ks``
    gives ``[]``; exponents that are not consecutive and ascending, or a
    negative window reaching k < 1, raise :class:`InvalidArgumentError`.
    """
    ks = list(ks)
    if not ks:
        return []
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise InvalidArgumentError("ks must be consecutive ascending exponents")
    IqPoint(sign, ks[0])  # validates sign and the negative branch
    return _coefficients(base, zp.lam, sign, ks, tol, max_terms)


def _coefficients(base: QBase, lam: complex, sign: int, ks: list[int],
                  tol: float, max_terms: int) -> list[SeriesEval]:
    """The case dispatch of :func:`spherical_az` over a run of valid
    consecutive ascending exponents ``ks`` of one sign, as
    :func:`spherical_window` describes it."""
    if lam == 0:
        raise InvalidArgumentError("lam must be nonzero")
    q = base.q
    n1 = max(0, min(len(ks), 1 - ks[0])) if sign > 0 else 0  # case 1
    recur = len(ks) > max(n1, 1)  # exponents k >= 1 in a longer window
    if recur:  # before any series term; the closed form guards the poles
        _lam_squared_guard(lam)
    out = []
    if n1:
        _budget(tol, max_terms)
        zs = [-q ** (2 - 2 * k) for k in ks[:n1]]
        out += [SeriesEval(*_certified(t)) for t in _direct_window(
            q / lam, lam * q, q * q, zs, tol, max_terms)]
    if recur:
        out += _recurrence(base, lam, sign, ks[n1], ks[-1], tol, max_terms)
    rest = ks[len(out):]
    if rest:
        out += _closed_form(base, lam, sign, rest, tol, max_terms)
    return out


def _closed_form(base: QBase, lam: complex, sign: int, ks: list[int],
                 tol: float, max_terms: int) -> list[SeriesEval]:
    """Cases 2 and 3 at the exponents ``ks`` (all >= 1) by one closed form,

    a_z(sign q^k) = q^{k-1} theta(-q lam) / ((q^2; q^2)_inf theta(-q^2))
        * sum over u in {lam, 1/lam} of u^{1-k} (u q; q^2)_inf^2
          / (u^2; q^2)_inf * 2phi1(q/u, q/u; q^2/u^2; q^2, -sign q^{2k}),

    with theta(x) = (x, q^2/x; q^2)_inf: PropB2's T(lam) + T(1/lam) at
    kappa = sign q^{2k}, whose k-dependent products are theta products at
    x q^{2(k-1)}, where theta(x q^2) = -theta(x)/x takes k out (Gasper and
    Rahman, *Basic Hypergeometric Series*, ch. 1).  Case 3's prefactor and
    the (q^{2k}; q^2)_inf it cancels fold into the same constant, as
    cq^-2 = 2 q^2 (q^2; q^2)_inf^2 (-q^2; q^2)_inf^2 and theta(-q^2) =
    2 (-q^2; q^2)_inf^2 (overall sign +: the source's minus sign for case
    3 contradicts its own limit value).

    The sum is :func:`qsu11.qcalculus._two_term`'s, with this lattice
    coefficient, formed first, and the theta shift (q/u)^{k-1}: per k
    there remain (q/u)^{k-1} and two series, so a value does not depend
    on the other exponents of ``ks``, bit for bit.  Of the coefficient's
    products, the lam-free ``2 (q^2, -q^2, -q^2; q^2)_inf`` is formed
    once per ``(q^2, tol)`` (:func:`_normaliser`), after the theta
    product, so an evaluation looks up the theta product's two factors
    and, in the sum, each u's ``u q`` and ``u^2``: each distinct
    lam-factor once.  A ``q^{2k}`` that underflows to 0 is refused first
    (:class:`InvalidArgumentError`), then as that sum refuses.
    """
    q = base.q
    q2 = q * q
    zs = [-sign * q ** (2 * k) for k in ks]
    if zs[-1] == 0:
        raise InvalidArgumentError(
            f"kappa = q**{2 * ks[-1]} underflows to 0 at k = {ks[-1]}")

    def coefficient(part_tol: float) -> list:
        product = qcalculus._qpoch_product  # looked up here: tests replace it
        theta, theta_used, theta_tail = product([-q * lam, -q / lam], q2, part_tol)
        norm, norm_used, norm_tail = _normaliser(q2, part_tol)
        const, const_tail = _div(theta, theta_tail, norm, norm_tail)
        return [(const, const_tail, theta_used + norm_used, (theta,))] * 2

    return _two_term(lam, q, zs, [k - 1 for k in ks], coefficient, ("lam", lam), tol,
                     max_terms)


@lru_cache(maxsize=16)
def _normaliser(q2: float, part_tol: float) -> tuple[complex, int, float]:
    """``2 (q^2, -q^2, -q^2; q^2)_inf`` of :func:`_closed_form`'s
    coefficient, each product to ``part_tol``: value, ``terms_used`` and
    ``tail_bound``, as :func:`qsu11.qcalculus._qpoch_product` returns
    them.  It does not depend on lam, so it is formed once per ``(q^2,
    part_tol)``, bit for bit as :class:`SeriesEval`'s rules form it; a
    refusal is not cached, and is raised again at every call."""
    mq2 = -q2  # one object twice: (-q^2; q^2)_inf is looked up once
    norm, used, tail = qcalculus._qpoch_product([q2, mq2, mq2], q2, part_tol)
    norm, tail = _mul(norm, tail, 2.0, 0.0)
    return norm, used, tail


#: The seeds of the recurrence are summed to these fractions of the
#: window's ``tol``, so that their truncation leaves the budget to the
#: propagated rounding.
_SEED_TOL = {1: 1e-3, -1: 1e-2}


def _recurrence(base: QBase, lam: complex, sign: int, k_first: int,
                k_last: int, tol: float, max_terms: int) -> list[SeriesEval]:
    """``a_z(sign q^k)`` for k = k_first, ..., up to k_last (1 <= k_first),
    from the three-term recurrence in k, each value certified by a
    running bound; the list stops before the first k whose bound exceeds
    ``tol * max(1, |a|)``.

    Case 1 is ``2phi1(a, b; q^2; q^2, z_k)`` with ``a = q/lam``,
    ``b = lam q`` and ``z_k = -q^{2-2k}``, and a 2phi1 whose c is its base
    satisfies ``(1 - z_k) a(k) - (2 - q s z_k) a(k-1) + (1 - q^2 z_k) a(k-2)
    = 0`` with ``s = lam + 1/lam`` (Gasper and Rahman, *Basic
    Hypergeometric Series*, sec. 1.10).  Cases 2 and 3 continue it: the
    positive branch satisfies it with ``z_k = -q^{2-2k}`` and the negative
    branch with ``z_k = +q^{2-2k}``.  In ``w = 1/z_k`` the step is
    ``a(k) = c1 a(k-1) + c2 a(k-2)``, ``c1 = (q s - 2w)/(1 - w)``,
    ``c2 = (w - q^2)/(1 - w)``.

    Seeds: on the positive branch the case-1 values a(-1) and a(0), two
    one-point sums in full (:func:`qsu11.qcalculus._direct_sum`) to
    ``tol / 1000``; on the negative branch the one closed-form value
    a(-q) (:func:`_closed_form` at k = 1, where ``(q/u)^{k-1} = 1``), to
    ``tol / 100`` (at k = 2 the coefficient of a(0) is
    ``1 - q^2 z_2 = 0``).  A seed's error is its ``tail_bound``;
    near the pole lattice of the two-term form that of a(-q) grows like
    1/d, and the negative branch falls back to the closed form sooner.  A
    seed that is refused (a seed tolerance that underflows) gives ``[]``.

    Certificate (Gautschi, "Computational aspects of three-term
    recurrence relations", SIAM Rev. 9, 1967; Wimp, *Computation with
    Recurrence Relations*, 1984): the error is linear in its sources,
    ``e_k = sum_j G(k, j) delta_j`` with ``G(., j)`` the solution of the
    recurrence from source j's start.  Each source is one row holding its
    bound and its two latest values of G: the seed a(k0-2), bounded by its
    ``tail_bound``, starts at (1, 0); the seed a(k0-1) at (0, 1); and the
    rounding of step k at (0, 1) when step k runs, bounded by ``delta_k =
    rho1' (|a(k-1)| + e_{k-1}) + rho2' (|a(k-2)| + e_{k-2})``, ``rho'``
    the rounding of c1 or c2 (``rho1``, ``rho2``) plus ``4 eps |c|`` for
    the step's own.  Every row advances with the step's c1 and c2, and
    the bound of a(k) is ``sum_j |G(k, j)| delta_j``; a double root
    (lam = 1) is no special case.

    The rows are computed in floats: like a value's step, a row's step is
    off from the exact one by at most ``rho1'`` and ``rho2'`` times the
    row's last two values.  So the rows' error is again a Green's sum,
    with step-k sources of at most ``rho1' sum_j |G(k-1, j)| delta_j +
    rho2' sum_j |G(k-2, j)| delta_j``, which the ``e_{k-1}`` and
    ``e_{k-2}`` in ``delta_k`` already hold: by induction over k the
    computed rows bound the whole error.  Left is the float evaluation of
    the bound, each of its n terms through at most n + 16 roundings of
    non-negative numbers; the sum is divided by ``1 - (n + 16) eps`` to
    cover them, which bounds gamma_{n+16} (Higham, Lemma 3.1; eps = 2 u).

    When ``q s`` has an imaginary part of exactly 0 (a real lam, or a
    lam on the unit circle where it rounds to 0), it is taken as a real
    number: c1, c2 and the rows are floats, and each value and bound is
    bit for bit that of the complex coefficients, whose imaginary parts
    are zeros (a float operand of complex arithmetic is ``complex(x,
    0.0)`` up to Python 3.13).

    ``terms_used`` of a value is its seeds' count plus one per step; the
    negative branch returns its seed itself at k = 1.
    """
    q = base.q
    q2 = q * q
    qs = q * (lam + 1.0 / lam)
    if qs.imag == 0:  # c1, c2 and the rows in floats (see above)
        qs = qs.real
    rsum = abs(q * lam) + abs(q / lam)
    stol = tol * _SEED_TOL[sign]
    try:
        if sign > 0:
            a, b, c = q / lam, lam * q, q * q
            _budget(stol, max_terms)
            ev0, ev1 = (_direct_sum(a, b, c, c, -q ** (2 - 2 * k), -1, stol,
                                    max_terms) for k in (-1, 0))
            k0 = 1
        else:
            ev1, = _closed_form(base, lam, -1, [1], stol, max_terms)
            ev0 = SeriesEval(0j, 0, 0.0)  # a(0) is multiplied by 0
            k0 = 2
    except InvalidArgumentError:  # e.g. a seed tolerance that underflows:
        return []                 # the closed form decides
    out = []
    if sign < 0:
        if not ev1.tail_bound <= tol * max(1.0, _modulus(ev1.value)) < math.inf:
            return out
        if k_first == 1:
            out.append(ev1)
    used = ev0.terms_used + ev1.terms_used
    prev, cur, e_prev, e_cur = ev0.value, ev1.value, ev0.tail_bound, ev1.tail_bound
    # One row per error source: G(k-2, j) in g_prev, G(k-1, j) in g_cur,
    # its bound delta_j in bounds; the two seeds first.
    g_prev, g_cur, bounds = [1.0, 0.0], [0.0, 1.0], [e_prev, e_cur]
    for k in range(k0, k_last + 1):
        w = q ** (2 * k - 2) if sign < 0 else -q ** (2 * k - 2)
        den = 1.0 - w  # real and positive: |w| <= q^2 on the negative branch
        c1 = (qs - 2.0 * w) / den
        c2 = (w - q2) / den
        value = c1 * cur + c2 * prev
        aw = abs(w)
        grow = 1.0 + aw / den
        ac1, ac2 = abs(c1), abs(c2)
        # The rounding of c1 and c2, and of the step.
        rho1 = 8.0 * _EPS * ((rsum + 2.0 * aw) / den + ac1 * grow)
        rho2 = 8.0 * _EPS * ((q2 + aw) / den + ac2 * grow)
        bounds.append((rho1 + 4.0 * _EPS * ac1) * (abs(cur) + e_cur)
                      + (rho2 + 4.0 * _EPS * ac2) * (abs(prev) + e_prev))
        g_prev, g_cur = (g_cur + [0.0],
                         [c1 * g + c2 * p for g, p in zip(g_cur, g_prev)] + [1.0])
        e = sum(map(operator.mul, map(abs, g_cur), bounds)) \
            / (1.0 - (len(bounds) + 16) * _EPS)
        if not e <= tol * max(1.0, _modulus(value)) < math.inf:
            break
        prev, cur, e_prev, e_cur = cur, value, e_cur, e
        if k >= k_first:
            out.append(SeriesEval(value, used + k - k0 + 1, e))
    return out


def coamen_coeff(base: QBase, m: int, lam: complex, p1: IqPoint,
                 form: str = "simplified", tol: float = 1e-12,
                 max_terms: int = 200) -> SeriesEval:
    """Matrix coefficient of the averaged states against weight shift m.

    For ``p1 = q^L`` (positive points only) the simplified form is

    ``sqrt((-q^e; q^2)_{2m}) * 2phi1(-q^{1+2m}/lam, -lam q^{1+2m};
    q^2; q^2, -q^e)`` with ``e = 2 - 2L - 4m``,

    and the raw form is the unsimplified product expression

    ``q^{2L + 2m + nu_exp(L) + nu_exp(L+2m)} cq^2
    sqrt((-q^{2L}, -q^{2L+4m}; q^2)_inf)
    (q^2; q^2)_inf^2 (-q^e; q^2)_inf * [same 2phi1]``,

    which agrees with the simplified one identically; the verification
    suites check that agreement numerically.

    For ``e <= 0`` the series argument leaves the unit disc and the
    evaluation routes through the small-parameter continuation
    (:func:`qsu11.qcalculus.phi21_heine`), which needs
    ``|lam| q^{1+2m} < 1``.  An ``m`` that is not an integer, a ``lam``
    of 0, a power of q past the float range (large ``|L|`` or ``|m|``),
    a series term past it (the sum is then not finite) and, in the raw
    form, the square ``cq^2`` past it (at a tiny q: ``q = 1e-160``) or a
    product past it (``(-q^{2L}, -q^{2L+4m}; q^2)_inf`` at q = 0.5, m = 0
    from L = -23 on) raise :class:`InvalidArgumentError`.  This is the
    one-point window of :func:`_coamen_points`, which evaluates many ``L``
    at one ``m`` and ``lam``.
    """
    if p1.sign < 0:
        raise InvalidArgumentError("coamen_coeff is defined at positive points")
    if form not in ("simplified", "raw"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    m = _integer("m", m)
    value, used, tail = _coamen_points(base, m, lam, [p1.exponent], form, tol,
                                       max_terms)[0]
    return _from_tail(value, used, tail)


def _coamen_points(base: QBase, m: int, lam: complex, Ls: Sequence[int],
                   form: str, tol: float, max_terms: int) -> list[tuple]:
    """The point loop of the coamen windows, on floats: for each L of
    ``Ls``, in that order, the value, ``terms_used`` and ``tail_bound`` of
    the coamen coefficient in ``form``, or with ``form="both"`` the pair
    of such triples ``(raw, simplified)``.  :func:`coamen_coeff` builds a
    :class:`SeriesEval` from its one point, :func:`averaged_coamen` adds
    the points up, and the verification suites' ``rawsimp_*`` rows compare
    the values of a one-point pair.  The callers check ``form`` and ``m``.

    The series parameters ``a = -q^{1+2m}/lam``, ``b = -lam q^{1+2m}`` and
    ``c = q^2`` do not depend on L, so the series' checks of ``tol`` and
    ``max_terms`` (:func:`qsu11.qcalculus._budget`) run once, at the
    first point that sums directly (``e > 0``: ``-q^e`` is in the unit
    disc; the series is summed in full, never snapped); when points follow
    it, the series of that point and of every later direct point are
    summed there in one kernel pass
    (:func:`qsu11.qcalculus._direct_window`), each point's sum taken, and
    refused, when the loop reaches it; points with ``e <= 0`` go through
    :func:`qsu11.qcalculus.phi21_heine`.  Both forms are built on plain
    floats from the series' value, terms and bound, by the rules of
    :class:`SeriesEval`'s operators: the simplified form scales the
    series by the prefactor ``sqrt((-q^e; q^2)_{2m})``, its product formed
    by :func:`_prefactor` as :func:`qsu11.qcalculus.qpoch_signed` forms
    it, and the raw form multiplies the root of its first product (formed
    as :func:`qsu11.qcalculus.qpoch_multi` forms it), the scalar, its
    second product and the series, bit for bit the composition of those
    operators.

    Every point is evaluated exactly as a one-point window, in order, so a
    refusal at some L refuses the window with the error
    :func:`coamen_coeff` raises at the first such L; a pair is refused as
    the raw call followed by the simplified one would be: by the series
    (a direct sum whose value is not finite included), then raw's scalar
    (``cq^2`` past the float range), then raw's products
    (``(-q^{2L}, -q^{2L+4m}; q^2)_inf`` past the float range, at q = 0.5,
    m = 0 from L = -23 on, raises :class:`InvalidArgumentError` before it
    meets the other factors), then the simplified prefactor (whose one
    check, the power ``q^{-4|m|}`` for m < 0, made once per window, is
    made where the first point reaches it).  Each ``tail_bound``
    covers the series, the products and the scalars (the finite product,
    ``q^N cq^2``) with their rounding.
    """
    if lam == 0:
        raise InvalidArgumentError("lam must be nonzero")
    q = base.q
    q2 = q * q
    shift = _power(q, 1 + 2 * m)
    a, b = -shift / lam, -lam * shift
    direct = None
    prefactor = None
    # (-q^e; q^2)_{2m}: n = 2|m| factors 1 + q^{e + 2i} >= 1, each off by (4 +
    # i + 3) u (qpoch_infinite_kernel's 4, i + 3 of q^{e + 2i}), 1/x by 6 u;
    # its root by half that and 6 u: k u in all, within the gamma bound
    # k u / (1 - k u) (Higham, Lemma 3.1).
    n = 2 * abs(m)
    root_rel = (3.5 * n + n * (n - 1) / 4.0 + 9.0) * _U
    root_rel /= 1.0 - root_rel
    out = []
    for i, L in enumerate(Ls):
        e = 2 - 2 * L - 4 * m
        z = -_power(q, e)
        if e <= 0:
            series = phi21_heine(a, b, q2, q2, z, tol=tol, max_terms=max_terms)
            value, used, tail = series.value, series.terms_used, series.tail_bound
        else:
            if direct is None:  # this and the later direct points' series, once
                _budget(tol, max_terms)
                # -q^f of each later direct point (f > 0: it may underflow,
                # never overflow).
                fs = (2 - 2 * x - 4 * m for x in Ls[i + 1:])
                direct = iter(_direct_window(
                    a, b, q2, [z, *(-q ** f for f in fs if f > 0)], tol, max_terms))
            value, used, tail = _certified(next(direct))
        if form != "simplified":
            part_tol = tol / 16.0
            # q^N cannot overflow: N = (L^2 - L + 2)/2 + (M^2 - M + 2)/2 > 0
            # (M = L + 2m); cq^2 does at tiny q (cq ~ 1/(sqrt(2) q)), refused.
            scalar = q ** (2 * L + 2 * m + nu_exponent(L) + nu_exponent(L + 2 * m)) \
                * _power(base.cq, 2)
            # The products go through the one routine that qpoch_multi
            # wraps, looked up at call time (the tests replace it).
            product = qcalculus._qpoch_product
            root, root_used, root_tail = product(
                [-_power(q, 2 * L), -_power(q, 2 * L + 4 * m)], q2, part_tol)
            if not root_tail < math.inf:  # uncertified, or past the float range
                _refuse_overflow("L", L, root)
            rest, rest_used, rest_tail = product([q2, q2, z], q2, part_tol)
            # sqrt(root) * scalar * rest * series, by SeriesEval's rules.
            raw, raw_tail = _mul(*_root(root, root_tail), scalar, _scalar_rel(q2))
            raw, raw_tail = _mul(raw, raw_tail, rest, _rel_bound(rest, rest_tail))
            raw, raw_tail = _mul(raw, raw_tail, value, _rel_bound(value, tail))
            raw = (raw, root_used + rest_used + used, raw_tail)
            if form == "raw":
                out.append(raw)
                continue
        if prefactor is None:  # qpoch_signed's check, once
            prefactor = _prefactor(q2, m)
        # series * sqrt((-q^e; q^2)_{2m}), the prefactor within root_rel.
        value, tail = _mul(value, tail, cmath.sqrt(prefactor(z)), root_rel)
        out.append((value, used, tail) if form == "simplified"
                   else (raw, (value, used, tail)))
    return out


@lru_cache(maxsize=16)
def _scalar_rel(q2: float) -> float:
    """The relative bound on the raw coamen form's scalar ``q^N cq^2`` at
    base q2: cq = 1 / (sqrt(2) q p1 p2) (:class:`QBase`) is off by p1's and
    p2's bounds and 5 u, its square by twice that and 2 u, q^N by 2 u, and
    their product by u.  It depends on q2 alone, so it is formed once per
    q2."""
    return 15.0 * _U + 2.0 * (_qpoch_infinite(complex(q2), q2, 1e-16).rel_bound
                              + _qpoch_infinite(complex(-q2), q2, 1e-16).rel_bound)


def _prefactor(q2: float, m: int) -> Callable[[float], complex]:
    """``z -> qpoch_signed(z, q2, 2 m)`` for a real ``z <= 0`` (the coamen
    points' ``-q^e``), bit for bit, by
    :func:`qsu11._kernels.qpoch_finite_kernel` (looked up at call time: the
    tests replace it).  q2 is a :class:`QBase`'s square, so the one check of
    ``qpoch_signed`` left runs here, once: for m < 0 the power
    ``q2**(-2|m|)`` of its reciprocal convention
    (:class:`InvalidArgumentError` past the float range).  Every factor
    ``1 - z q2^j`` (j an integer) is at least 1, so no denominator
    vanishes.
    """
    n = 2 * abs(m)
    if m >= 0:
        return lambda z: qpoch_finite_kernel(complex(z), q2, n)
    scale = _power(q2, -n)
    return lambda z: 1.0 / qpoch_finite_kernel(complex(z) * scale, q2, n)


def averaged_coamen(base: QBase, n: int, p1: IqPoint, m: int, lam: complex,
                    tol: float = 1e-12, max_terms: int = 200) -> SeriesEval:
    """Average of ``coamen_coeff`` over the spectral window of width n.

    Sums the coefficient at the points ``p1 q^e`` for e from
    ``n - 2|m|`` down to ``-n`` (``2(n - |m|) + 1`` summands; the
    remaining ``2|m|`` window slots carry no weight), in that order, and
    divides by ``2n + 1``.  The summands are one coamen window's points
    (:func:`_coamen_points`: the direct series of the window in one kernel
    pass), whose values, terms and bounds are added up
    on floats as the point loop returns them, with no :class:`SeriesEval`
    per point, in that order by the rule of :class:`SeriesEval`'s ``+``,
    and scaled by the rule of its ``*`` by an exact scalar, into the one
    :class:`SeriesEval` returned.  So the result equals ``sum()`` of those
    :func:`coamen_coeff` values times ``1 / (2n + 1)`` bit for bit, and a
    refusal at any point (a ``lam`` of 0 included) raises the error
    :func:`coamen_coeff` raises there.  An ``n`` or ``m`` that is not an
    integer raises :class:`InvalidArgumentError`.
    """
    n = _integer("n", n)
    m = _integer("m", m)
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    if abs(m) > n:
        raise InvalidArgumentError("|m| must not exceed n")
    if p1.sign < 0:
        raise InvalidArgumentError("coamen_coeff is defined at positive points")
    value, used, tail = 0, 0, 0.0
    for point_value, point_used, point_tail in _coamen_points(
            base, m, lam, [p1.exponent + e for e in range(n - 2 * abs(m), -n - 1, -1)],
            "simplified", tol, max_terms):
        value, tail = _add(value, tail, point_value, point_tail)
        used += point_used
    # total * (1 / (2n + 1)), an exact scalar.
    value, tail = _mul(value, tail, 1.0 / (2 * n + 1), 0.0)
    return _from_tail(value, used, tail)
