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
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidArgumentError
from .qcalculus import (
    QBase,
    SeriesEval,
    _direct_setup,
    _direct_sum,
    _frozen_slots,
    _modulus,
    _pole_guard,
    _power,
    _power_distance,
    _qpoch_infinite,
    _refuse_overflow,
    _U,
    phi21_heine,
    qpoch_multi,
    qpoch_signed,
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

#: Relative rounding of ``(q/u)**n`` per unit of n: n times that of
#: ``q/u`` (two complex quotients at most), plus that of the power, by
#: repeated squaring up to n = 100 and by ``hypot``, ``pow`` and ``atan2``
#: beyond (the phase n atan2 is off by up to n pi eps).
_POWER_ROUNDING = 16.0 * _EPS

#: Relative rounding of a part of :func:`_closed_form` per unit of 1/d, d
#: the relative distance of lam**2 from q^{2Z}: near it 1/lam, u q and u^2
#: carry 1 to 6 u, which a factor ``1 - f``, f within d/2 of 1, turns into
#: 12 u / d at most a part ((u q; q^2)_inf^2 at u = 1/lam).
_NEAR_LATTICE = 8.0 * _EPS


@dataclass(frozen=True, slots=True)
class IqPoint:
    """A classical point ``sign * q**exponent`` of the disc spectrum.

    ``sign`` is +1 or -1; negative points require ``exponent >= 1``
    (the negative branch starts at ``-q``).  Frozen and slotted; the
    arguments are checked before any field is stored.
    """

    sign: int
    exponent: int

    def __init__(self, sign: int, exponent: int) -> None:
        if sign not in (1, -1):
            raise InvalidArgumentError("sign must be +1 or -1")
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

      with ``theta(x) = (x, q^2/x; q^2)_inf``: PropB2's two-term forms with
      their products taken out of k (:func:`_closed_form`).

    The continued cases are refused with :class:`PoleGuardError` when
    ``lam**2`` sits within the guard band around ``q**(2 Z)`` (case 1 is
    not), and with :class:`InvalidArgumentError`, before any series term,
    when ``kappa = +-q^{2k}`` underflows to 0 (q = 0.5: from k = 538) or
    ``lam**2`` to below the normal float range (Re z above 511), or when
    their products (at large ``|Re z|``), or ``(q/u)^{k-1}`` times them
    (q = 0.5, z = -3.3: from k = 445, where the value does) leave the
    float range.  This is the one-exponent window
    (:func:`spherical_window`), which evaluates many exponents at one
    ``zp`` by the recurrence in k.
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
    k <= 0) checks its direct series' guards and snaps once, then sums
    the kernel per k, :func:`spherical_az`'s values bit for bit.  In a
    window of two or more exponents, one lam**2 pole guard (the refusal
    of :func:`spherical_az` at k >= 1) is followed by the three-term
    recurrence in k (:func:`_recurrence`), seeded by the case-1 values
    a(-1), a(0) (positive branch) or the case-3 value a(-q) (negative).
    Each recurrence value carries a running bound on its whole error, the
    seeds' ``tail_bound`` included; ``terms_used`` is the seeds' count
    plus one per step.  From the first k whose bound exceeds
    ``tol * max(1, |a|)`` the rest of the window goes through the closed
    form (:func:`_closed_form`), its products summed once for the run,
    :func:`spherical_az`'s values bit for bit.

    A one-exponent window is :func:`spherical_az`; recurrence values
    differ from the pointwise ones by at most the two certificates.  A
    refusal of the closed form at an exponent it evaluates refuses the
    whole window.  An empty ``ks`` gives ``[]``; exponents that are not
    consecutive and ascending, or a negative window reaching k < 1, raise
    :class:`InvalidArgumentError`.
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
    out = []
    if n1:
        a, b, c = q / lam, lam * q, q * q
        bb, n_exact = _direct_setup(a, b, c, c, -q ** (2 - 2 * ks[n1 - 1]), tol,
                                    max_terms)
        for k in ks[:n1]:
            out.append(_direct_sum(a, b, c, bb, -q ** (2 - 2 * k), n_exact, tol,
                                   max_terms))
    rest = ks[n1:]
    if rest and len(ks) > 1:
        _pole_guard(lam, q)
        out += _recurrence(base, lam, sign, rest[0], rest[-1], tol, max_terms)
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

    with theta(x) = (x, q^2/x; q^2)_inf.  It is PropB2's T(lam) + T(1/lam)
    (:func:`qsu11.qcalculus.phi21_continued` at kappa = sign q^{2k}) term
    by term: each k-dependent product there is a theta product at
    x q^{2(k-1)}, and theta(x q^2) = -theta(x)/x takes k out of it
    (Gasper and Rahman, *Basic Hypergeometric Series*, ch. 1).  Case 3's
    prefactor and the (q^{2k}; q^2)_inf it cancels fold into the same
    constant, as cq^-2 = 2 q^2 (q^2; q^2)_inf^2 (-q^2; q^2)_inf^2 and
    theta(-q^2) = 2 (-q^2; q^2)_inf^2 (overall sign +: the source's minus
    sign for case 3 contradicts its own limit value).

    The products are summed once, each quotient's factors to ``tol / 8``
    in all, and each series' guards and snaps run once per u; per k there
    remain (q/u)^{k-1} and the two series, each summed to ``tol / 8``.  So
    a value does not depend on the other exponents of ``ks``, bit for bit.
    ``tail_bound`` bounds the whole error from the float lam: the products'
    and the series' truncation and rounding, that of (q/u)^{k-1}
    (``_POWER_ROUNDING``, growing with k) and of the arithmetic, and
    ``_NEAR_LATTICE sum |part| / d`` for that of the arguments, d the
    relative distance of lam**2 from ``q^{2Z}``.

    Refused before any series term is summed: a ``q^{2k}`` that underflows
    to 0 or a lam**2 below the normal float range
    (:class:`InvalidArgumentError`), the lam**2 pole guard
    (:class:`PoleGuardError`), and a product, a quotient of them (at large
    ``|Re z|``) or a (q/u)^{k-1} past the float range
    (:class:`InvalidArgumentError`).
    """
    q = base.q
    q2 = q * q
    zs = [-sign * q ** (2 * k) for k in ks]
    if zs[-1] == 0:
        raise InvalidArgumentError(
            f"kappa = q**{2 * ks[-1]} underflows to 0 at k = {ks[-1]}")
    _pole_guard(lam, q)
    near = _NEAR_LATTICE / _power_distance(lam * lam, q2)
    part_tol = tol / 8.0
    theta = qpoch_multi([-q * lam, -q / lam], q2, part_tol)
    const = theta / (2.0 * qpoch_multi([q2, -q2, -q2], q2, part_tol))
    parts = []
    for u in (lam, 1.0 / lam):
        num, den = qpoch_multi([u * q, u * q], q2, part_tol), \
            qpoch_multi([u * u], q2, part_tol)
        factor = const * (num / den)
        if not factor.tail_bound < math.inf:  # uncertified, or past the range
            _refuse_overflow("lam", lam, theta.value, const.value, num.value,
                             den.value, factor.value)
        a, c = q / u, q2 / (u * u)
        _, n_exact = _direct_setup(a, a, c, q2, zs[0], part_tol, max_terms)
        scaled = []
        for k in ks:
            try:
                power = a ** (k - 1)
            except OverflowError:  # complex ** int past the float range
                power = complex(math.inf)
            f = factor._scaled(power, _POWER_ROUNDING * (k - 1))
            if not math.isfinite(_modulus(f.value)):
                raise InvalidArgumentError(
                    f"the factor (q/u)**{k - 1} of the closed form is past "
                    f"the float range at k = {k}")
            scaled.append(f)
        parts.append((scaled, a, c, n_exact))
    out = []
    for i, z in enumerate(zs):
        value, size = 0, 0.0
        for scaled, a, c, n_exact in parts:
            part = scaled[i] * _direct_sum(a, a, c, q2, z, n_exact, part_tol,
                                           max_terms)
            value += part
            size += _modulus(part.value)
        out.append(SeriesEval(value.value, value.terms_used,
                              value.tail_bound + near * size))
    return out


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

    Seeds: on the positive branch the case-1 values a(-1) and a(0), summed
    to ``tol / 1000``; on the negative branch the one closed-form value
    a(-q) (:func:`_closed_form` at k = 1, where ``(q/u)^{k-1} = 1``), to
    ``tol / 100`` (at k = 2 the coefficient of a(0) is
    ``1 - q^2 z_2 = 0``).  A seed's error is its ``tail_bound``; near the
    pole lattice of the two-term form that of a(-q) grows like 1/d, and the
    negative branch falls back to the closed form sooner.  A seed that is
    refused (a seed tolerance that underflows) gives ``[]``.

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
    non-negative numbers; the sum is multiplied by ``1 + (n + 16) eps``
    to cover them, a margin of second order in the rounding unit.

    ``terms_used`` of a value is its seeds' count plus one per step; the
    negative branch returns its seed itself at k = 1.
    """
    q = base.q
    q2 = q * q
    qs = q * (lam + 1.0 / lam)
    rsum = abs(q * lam) + abs(q / lam)
    stol = tol * _SEED_TOL[sign]
    try:
        if sign > 0:
            a, b, c = q / lam, lam * q, q * q
            bb, n_exact = _direct_setup(a, b, c, c, -q ** 2, stol, max_terms)
            ev0, ev1 = (_direct_sum(a, b, c, bb, -q ** (2 - 2 * k), n_exact, stol,
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
        e = sum(abs(g) * d for g, d in zip(g_cur, bounds)) \
            * (1.0 + (len(bounds) + 16) * _EPS)
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
    ``|lam| q^{1+2m} < 1``.  A ``lam`` of 0 and a power of q past the
    float range (large ``|L|`` or ``|m|``) raise
    :class:`InvalidArgumentError`.  This is the one-point window
    (:func:`_coamen_window`), which evaluates many ``L`` at one ``m`` and
    ``lam``.
    """
    if p1.sign < 0:
        raise InvalidArgumentError("coamen_coeff is defined at positive points")
    if form not in ("simplified", "raw"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    return _coamen_window(base, m, lam, [p1.exponent], form, tol, max_terms)[0]


def _coamen_window(base: QBase, m: int, lam: complex, Ls: Sequence[int],
                   form: str, tol: float, max_terms: int) -> list:
    """``coamen_coeff(base, m, lam, IqPoint.positive(L), form, tol,
    max_terms)`` for each L of ``Ls``, in that order; with ``form="both"``
    the pair ``(raw, simplified)`` for each L, both forms from one series.

    The series parameters ``a = -q^{1+2m}/lam``, ``b = -lam q^{1+2m}`` and
    ``c = q^2`` do not depend on L, so the guards and snaps of
    :func:`qsu11.qcalculus.phi21_direct` run once, at the first point that
    sums directly (``e > 0``); points with ``e <= 0`` go through
    :func:`qsu11.qcalculus.phi21_heine`.  Every point is evaluated exactly
    as a one-point window, in order, so a refusal at some L refuses the
    window with the error :func:`coamen_coeff` raises at the first such L;
    a pair is refused as the raw call followed by the simplified one would
    be: by the series, then raw's products, then the simplified prefactor.
    Each ``tail_bound`` covers the series, the products and the scalars
    (the finite product, ``q^N cq^2``) with their rounding.
    """
    if form not in ("simplified", "raw", "both"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    if lam == 0:
        raise InvalidArgumentError("lam must be nonzero")
    q = base.q
    q2 = q * q
    shift = _power(q, 1 + 2 * m)
    a, b = -shift / lam, -lam * shift
    setup = None
    # q^N cq^2: cq = 1 / (sqrt(2) q p1 p2) (QBase) is off by p1's and p2's
    # bounds and 5 u, its square by twice that and 2 u, q^N by 2 u, x by u.
    scalar_rel = 15.0 * _U + 2.0 * sum(
        _qpoch_infinite(complex(a), q2, 1e-16).rel_bound for a in (q2, -q2)
        if form != "simplified")
    # (-q^e; q^2)_{2m}: n = 2|m| factors 1 + q^{e + 2i} >= 1, each off by (4 +
    # i + 3) u (qpoch_infinite_kernel's 4, i + 3 of q^{e + 2i}), 1/x by 6 u;
    # its root by half that and 6 u.
    n = 2 * abs(m)
    root_rel = (3.5 * n + n * (n - 1) / 4.0 + 9.0) * _U
    out = []
    for L in Ls:
        e = 2 - 2 * L - 4 * m
        z = -_power(q, e)
        if e <= 0:
            series = phi21_heine(a, b, q2, q2, z, tol=tol, max_terms=max_terms)
        else:
            if setup is None:
                setup = _direct_setup(a, b, q2, q2, z, tol, max_terms)
            bb, n_exact = setup
            series = _direct_sum(a, b, q2, bb, z, n_exact, tol, max_terms)
        if form != "simplified":
            part_tol = tol / 16.0
            # Its exponent is (L^2 - L + 2)/2 + (M^2 - M + 2)/2 > 0
            # (M = L + 2m): it cannot overflow.
            scalar = q ** (2 * L + 2 * m + nu_exponent(L) + nu_exponent(L + 2 * m)) \
                * base.cq ** 2
            root = qpoch_multi([-_power(q, 2 * L), -_power(q, 2 * L + 4 * m)], q2,
                               part_tol)
            rest = qpoch_multi([q2, q2, z], q2, part_tol)
            raw = root.sqrt()._scaled(scalar, scalar_rel) * rest * series
            if form == "raw":
                out.append(raw)
                continue
        pre = cmath.sqrt(qpoch_signed(z, q2, 2 * m))
        simplified = series._scaled(pre, root_rel)
        out.append(simplified if form == "simplified" else (raw, simplified))
    return out


def averaged_coamen(base: QBase, n: int, p1: IqPoint, m: int, lam: complex,
                    tol: float = 1e-12, max_terms: int = 200) -> SeriesEval:
    """Average of ``coamen_coeff`` over the spectral window of width n.

    Sums the coefficient at the points ``p1 q^e`` for e from
    ``n - 2|m|`` down to ``-n`` (``2(n - |m|) + 1`` summands; the
    remaining ``2|m|`` window slots carry no weight), in that order, and
    divides by ``2n + 1``.  The summands are one coamen window
    (:func:`_coamen_window`), so the result equals that sum of
    :func:`coamen_coeff` values bit for bit, and a refusal at any point
    (a ``lam`` of 0 included) raises the error :func:`coamen_coeff` raises
    there.
    """
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    if abs(m) > n:
        raise InvalidArgumentError("|m| must not exceed n")
    if p1.sign < 0:
        raise InvalidArgumentError("coamen_coeff is defined at positive points")
    total = sum(_coamen_window(
        base, m, lam, [p1.exponent + e for e in range(n - 2 * abs(m), -n - 1, -1)],
        "simplified", tol, max_terms))
    return total * (1.0 / (2 * n + 1))
