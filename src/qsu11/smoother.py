"""Gaussian contour smoothing of the spherical coefficients.

The smoothed value at center ``z0 = 1 - 1/k`` is the contour integral

    sqrt(n/pi) * integral over the path of
        exp(n (z - z0)^2) f(z) dz / i,

which restricts on the canonical vertical path ``z = z0 + i s`` to the
plain Gaussian average ``sqrt(n/pi) * integral exp(-n s^2) f(z0+is) ds``
(unit mass, concentrating at ``z0`` as n grows).  The exponent sign is
chosen so the kernel decays along vertical-type paths; the opposite
orientation diverges and is not representable here.

Quadrature is a composite trapezoid rule on ``|s| <= S``, evaluated once
on the doubled grid; the coarse-grid value is recovered from the
even-indexed nodes, and disagreement beyond ``tol_quad`` raises instead
of returning a silently under-resolved number.

The grid comes from a bound, not from a fixed density.  The half-span
``S = sqrt(log(4/tol_quad)/n)`` puts the kernel at ``tol_quad/4`` of its
peak at the ends.  The step comes from the trapezoid rule's strip bound
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Rev. 56 (2014), Thm 5.1): on the infinite line the rule with step
h errs by at most ``2 M / (e^{2 pi a/h} - 1)`` when the integrand is
analytic on the strip ``|Im s| < a`` with L1 norm at most M along every
horizontal line there.  On a vertical line ``Re z = x0`` at distance
``d = x0 - z0`` from the center, the Gaussian weight gives
``M <= e^{n (|d| + a)^2} F(a)``, where F(a) bounds ``|f|`` on the strip
``|Re z - x0| <= a``.  The coarse step is the largest whose term is at
most ``tol_quad/4``; the fine grid then errs by about the square of
that.

For the default integrand at ``p0 = +q^k, k <= 0`` on a vertical line,
``f`` is entire in z and the positive-term series :func:`_majorant`
bounds it on every vertical line, so ``sup |f|`` and F(a) are known and
the smoothed value carries a certificate
(:attr:`SmoothedValue.tail_bound`), the sum of

* the node series errors ``h sum |w_i| tail_i``;
* the truncation ``e^{n d^2} sup|f| (erfc(sqrt(n) S) + h sqrt(n/pi)
  e^{-n S^2})``: the sum's nodes beyond ``|s| = S``, the two
  half-weighted end nodes included;
* the trapezoid term at the fine step;
* a rounding term (:func:`_certificate`).

On such a line ``f(conj z) = conj f(z)``, so only the nodes with
``s <= 0`` are summed (:func:`_node_values`).

Other integrands (the continued cases, supplied callables, perturbed
paths) report ``tail_bound = inf``; their grid is the one the Gaussian
weight alone needs (F = 1), and node doubling is their only check.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import (
    InvalidArgumentError,
    PathOutsideDomainError,
    QSU11Error,
    QuadratureUnderResolvedError,
)
from .qcalculus import QBase, SeriesEval, _budget, _direct_sum
from .su11core import IqPoint, SpectralParam, spherical_az

__all__ = [
    "ContourPath",
    "QuadratureSpec",
    "SmoothedValue",
    "gaussian_smooth",
    "path_independence",
]

_PATH_KINDS = ("vertical_line", "perturbed")

_EPS = sys.float_info.epsilon

#: Bound on the exponent ``n Re (z - z0)^2`` of the kernel weights: e^700
#: (1e304) leaves their other factors and sums room below the float range.
_LOG_WEIGHT = 700.0

#: Share of ``tol_quad`` given to the coarse grid's trapezoid term, and
#: again to the node series errors.
_SHARE = 0.25

#: Term cap of :func:`_majorant`; a line whose majorant has not settled
#: by then gets no certificate.
_MAJORANT_TERMS = 10_000


def _real_in(low: float, **values: float) -> None:
    """Refuse each of ``values`` that is not a real number in (low, inf)."""
    for name, v in values.items():
        if not (isinstance(v, (int, float)) and low < v < math.inf):
            raise InvalidArgumentError(f"{name} must be in ({low}, inf), got {v!r}")


@dataclass(frozen=True)
class ContourPath:
    """A parametrised contour ``s -> anchor + wiggle sin(s) + i s``.

    ``kind`` is "vertical_line" (wiggle must be 0) or "perturbed".
    The parameter s runs over a symmetric interval fixed by the
    quadrature spec (or by ``half_span`` when set here).
    """

    kind: str
    anchor: float
    wiggle_amplitude: float = 0.0
    half_span: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PATH_KINDS:
            raise InvalidArgumentError(
                f"kind must be one of {_PATH_KINDS}, got {self.kind!r}")
        if self.kind == "vertical_line" and self.wiggle_amplitude != 0.0:
            raise InvalidArgumentError("vertical_line paths cannot wiggle")
        _real_in(-math.inf, anchor=self.anchor,
                 wiggle_amplitude=self.wiggle_amplitude)
        if self.half_span is not None:
            _real_in(0.0, half_span=self.half_span)

    def point(self, s: float) -> complex:
        return complex(self.anchor + self.wiggle_amplitude * math.sin(s), s)

    def derivative(self, s: float) -> complex:
        return complex(self.wiggle_amplitude * math.cos(s), 1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid-rule truncation, resolution and budget.

    ``half_span`` is the truncation half-width S of the parameter
    interval; ``nodes_per_unit`` the node density of the coarse grid,
    or None to size the step from the trapezoid bound (see the module
    docstring); ``tol_quad`` the budget of the node-doubling
    discrepancy, of the Gaussian truncation tail (half of it) and of the
    smoothed value's certificate.
    """

    half_span: float
    nodes_per_unit: int | None = None
    tol_quad: float = 1e-8

    def __post_init__(self) -> None:
        _real_in(0.0, half_span=self.half_span, tol_quad=self.tol_quad)
        if self.nodes_per_unit is not None and self.nodes_per_unit < 1:
            raise InvalidArgumentError("nodes_per_unit must be >= 1")

    @classmethod
    def for_width(cls, n: float, base: QBase, tol_quad: float = 1e-8,
                  nodes_per_unit: int | None = None) -> "QuadratureSpec":
        """Half-span for kernel width n: ``S = sqrt(log(4/tol_quad)/n)``.

        At S the kernel has fallen to ``tol_quad/4`` of its peak, so the
        truncated tail ``erfc(sqrt(n) S)`` is below ``tol_quad/4``.  The
        span does not depend on q (``base`` is not used).  With
        ``nodes_per_unit`` None the step is sized from the trapezoid
        bound of the integrand at hand when :func:`gaussian_smooth`
        runs; an explicit density is used as given.
        """
        _real_in(0.0, n=n, tol_quad=tol_quad)
        span = math.sqrt(math.log(4.0 / tol_quad) / n)
        return cls(half_span=span, nodes_per_unit=nodes_per_unit,
                   tol_quad=tol_quad)

    def gaussian_tail(self, n: float) -> float:
        """Truncation tail ``sqrt(n/pi) * int_{|s|>S} exp(-n s^2) ds``."""
        return math.erfc(math.sqrt(n) * self.half_span)


@dataclass(frozen=True)
class SmoothedValue:
    """Smoothed coefficient together with the quadrature mass.

    ``mass`` is the quadrature of the weight alone and should sit
    within ``tol_quad`` of 1; it is real on symmetric paths (the
    imaginary part cancels exactly on the canonical vertical path).
    ``tail_bound`` bounds ``|value - I|``, I the exact contour integral
    (see the module docstring); it is ``inf`` for integrands the
    majorant does not cover, which only node doubling checks.
    """

    value: complex
    mass: float
    tail_bound: float = math.inf


def _majorant(base: QBase, k: int, x: float) -> tuple[float, float, float]:
    """Bounds of the case-1 coefficient ``a_z(+q^k)``, k <= 0, on the line
    ``Re z = x``.

    The series ``sum_m (q/lam, lam q; q^2)_m / (q^2; q^2)_m^2
    (-q^{2-2k})^m`` is bounded term by term (``|1 - u| <= 1 + |u|``) by
    ``M = sum_m T_m``, ``T_m = (-|q/lam|, -|lam q|; q^2)_m /
    (q^2; q^2)_m^2 q^{(2-2k) m}`` with ``|lam| = q^x``; it converges for
    every lam, and ``log M`` is convex in x (each factor is), so on a
    strip ``|Re z - x0| <= a`` its largest value is at an edge.

    Returns ``(M, sum_m m T_m, sum_m m^2 T_m)``, the last two for the
    rounding weight of :func:`_certificate`.  The terms are summed until
    the ratio bound puts the rest below eps of M; the geometric tails are
    added and the float rounding of a positive sum is allowed for, so all
    three are upper bounds.  ``inf`` throughout when the terms overflow
    or do not settle within :data:`_MAJORANT_TERMS`.
    """
    log_r = x * base.log_q
    if abs(log_r) > 700.0:
        return math.inf, math.inf, math.inf
    q = base.q
    q2 = q * q
    r = math.exp(log_r)
    A, B, X = q / r, q * r, q ** (2 - 2 * k)
    t = total = 1.0
    first = second = 0.0
    p = 1.0  # q^(2(m-1)) on entry to step m
    for m in range(1, _MAJORANT_TERMS):
        t *= (1.0 + A * p) * (1.0 + B * p) * X / (1.0 - p * q2) ** 2
        total += t
        first += m * t
        second += m * m * t
        p *= q2
        # T_{m+1}/T_m; the later ratios are smaller
        rho = (1.0 + A * p) * (1.0 + B * p) * X / (1.0 - p * q2) ** 2
        if rho < 1.0 and t * rho <= _EPS * (1.0 - rho) * total:
            grow = 1.0 + 8.0 * (m + 2) * _EPS
            # (m+i)^e <= (1+i)^2 m^e for e = 1, 2, and
            # sum_{i>=1} (1+i)^2 rho^i = (1+rho)/(1-rho)^3 - 1
            tail = t * ((1.0 + rho) / (1.0 - rho) ** 3 - 1.0)
            return ((total + t * rho / (1.0 - rho)) * grow,
                    (first + m * tail) * grow, (second + m * m * tail) * grow)
    return math.inf, math.inf, math.inf


class _LineBound:
    """Majorant bounds of the default case-1 integrand on a vertical line:
    ``sup`` = sup |f| on the line, ``weighted`` the rounding weight
    ``sum_m m (m + c1) T_m`` of :func:`_certificate`, ``strip`` = F(a) on
    the strip of half-width ``a``, and the half-span ``span``.  (A plain
    class: a dataclass or NamedTuple would add 0.4-3 ms to the package
    import.)"""

    __slots__ = ("sup", "weighted", "a", "strip", "span")

    def __init__(self, sup: float, weighted: float, a: float, strip: float,
                 span: float) -> None:
        self.sup, self.weighted, self.a = sup, weighted, a
        self.strip, self.span = strip, span


def _case1_line(p0: IqPoint, path: ContourPath) -> bool:
    """Whether the default integrand is case 1 (``p0 = +q^k, k <= 0``) on
    a vertical ``path``."""
    return p0.sign > 0 and p0.exponent <= 0 and path.kind == "vertical_line"


def _line_bound(base: QBase, p0: IqPoint, path: ContourPath, d: float,
                n: float, quad: QuadratureSpec) -> _LineBound | None:
    """:class:`_LineBound` of the default integrand on ``path``, or None
    where the majorant certificate does not apply: off the lines of
    :func:`_case1_line`, or where the majorant is not finite.

    The half-span grows from S to ``sqrt(S^2 + d^2 + log(sup|f|)/n)``
    (unless the path fixes its own), where ``e^{n d^2} sup|f|`` times the
    kernel has fallen to ``tol_quad/4``.  The strip half-width
    ``a = sqrt(d^2 + log(8 sup|f| / tol_quad)/n)`` maximises the step of
    :func:`_grid` for F(a) constant at ``sup|f|``; the growth of F over
    the strip moves the maximiser by under 1% on the smoothing suite's
    cells.
    """
    if not _case1_line(p0, path):
        return None
    x0 = path.anchor
    sup, first, second = _majorant(base, p0.exponent, x0)
    if not math.isfinite(sup):
        return None
    span = path.half_span if path.half_span is not None \
        else math.sqrt(quad.half_span ** 2 + d * d + math.log(sup) / n)
    c1 = 32.0 + 2.0 * abs(base.log_q) * (abs(x0) + 2.0 * span)
    a = math.sqrt(d * d + math.log(2.0 * sup / (_SHARE * quad.tol_quad)) / n)
    strip = max(_majorant(base, p0.exponent, x0 - a)[0],
                _majorant(base, p0.exponent, x0 + a)[0])
    if not math.isfinite(strip):
        return None
    return _LineBound(sup, second + c1 * first, a, strip, span)


def _log_trapezoid(n: float, d: float, a: float, strip: float,
                   h: float) -> float:
    """Log of the strip bound
    ``2 e^{n (|d| + a)^2} F(a) / (e^{2 pi a/h} - 1)``."""
    x = 2.0 * math.pi * a / h
    return (math.log(2.0 * strip) + n * (abs(d) + a) ** 2
            - x - math.log1p(-math.exp(-x)))


def _grid(base: QBase, p0: IqPoint, k: int, n: float, path: ContourPath,
          quad: QuadratureSpec,
          integrand: Callable | None) -> tuple[float, int, _LineBound | None]:
    """Half-span, number of coarse intervals, and the majorant bounds
    (None: no certificate) of one :func:`gaussian_smooth` call.

    With ``quad.nodes_per_unit`` None, the coarse step is the largest h
    with ``2 e^{n (|d| + a)^2} F(a) / (e^{2 pi a/h} - 1) <= tol_quad/4``,
    F from :func:`_line_bound` where the majorant applies and F = 1 (the
    weight alone) where it does not.  A budget so small that a log in the
    bound leaves the float range (h is then 0 or nan: the smoothing suite's
    line at ``tol_quad = 1e-300``) raises
    :class:`QuadratureUnderResolvedError`.
    """
    d = path.anchor - (1.0 - 1.0 / k)
    budget = _SHARE * quad.tol_quad
    bound = None
    if integrand is None:
        bound = _line_bound(base, p0, path, d, n, quad)
    if bound is not None:
        span, a, strip = bound.span, bound.a, bound.strip
    else:
        span = path.half_span if path.half_span is not None \
            else math.hypot(quad.half_span, d)
        a, strip = math.sqrt(d * d + math.log(2.0 / budget) / n), 1.0
    if quad.nodes_per_unit is not None:
        return span, math.ceil(2.0 * span * quad.nodes_per_unit), bound
    # e^{2 pi a/h} - 1 = 2 e^{n(|d|+a)^2} F / budget, solved for h
    lg = math.log(2.0 * strip / budget) + n * (abs(d) + a) ** 2
    h = 2.0 * math.pi * a / (lg + math.log1p(math.exp(-lg)))
    if not h > 0.0:  # 0 or nan: a log above is past the float range
        raise QuadratureUnderResolvedError(
            f"no step h > 0 meets tol_quad={quad.tol_quad!r}: the trapezoid "
            f"bound is past the float range")
    return span, math.ceil(2.0 * span / h), bound


def _fine_nodes(path: ContourPath, span: float,
                m_coarse: int) -> tuple[list[float], list[complex], list[complex]]:
    """Parameters s, points z(s) and derivatives z'(s) of the fine grid.

    The fine grid has twice the coarse grid's number of intervals (made
    even, so s = 0 is a coarse node), so the coarse grid is its
    even-indexed nodes.  ``s[N-1-i] == -s[i]`` exactly, for the
    conjugate fill of :func:`_node_values`.
    """
    m = m_coarse + m_coarse % 2
    left = [-span * (m - i) / m for i in range(m)]
    s = left + [0.0] + [-v for v in reversed(left)]
    return s, [path.point(v) for v in s], [path.derivative(v) for v in s]


def _default_integrand(base: QBase, p0: IqPoint, tol: float,
                       max_terms: int = 200) -> Callable[[complex], SeriesEval]:
    def f(z: complex) -> SeriesEval:
        return spherical_az(base, SpectralParam.from_z(z, base), p0, tol=tol,
                            max_terms=max_terms)

    return f


def _case1_kernel(base: QBase, p0: IqPoint, tol: float,
                  max_terms: int) -> Callable[[complex], SeriesEval] | None:
    """The default integrand on a :func:`_case1_line`, the series' ``tol``
    and ``max_terms`` checked once (:func:`qsu11.qcalculus._budget`): each
    call is the kernel sum of :func:`spherical_az`, bit for bit.  None
    where they are refused (the per-node loop then reports it at its
    first node)."""
    q = base.q
    c = q * q
    arg = -q ** (2 - 2 * p0.exponent)
    try:
        _budget(tol, max_terms)
    except QSU11Error:
        return None

    def f(z: complex) -> SeriesEval:
        lam = SpectralParam.from_z(z, base).lam
        return _direct_sum(q / lam, lam * q, c, c, arg, -1, tol, max_terms)

    return f


def _node_values(f: Callable, s: list[float], zz: list[complex],
                 certified: bool, mirrored: bool = False) -> list[SeriesEval]:
    """Integrand at every node, one call per node in ascending s; an
    error or an uncertified series is reported at its node.

    With ``certified`` set, ``f`` returns a :class:`SeriesEval` whose
    tail bound must be finite; otherwise ``f`` returns the finite value,
    wrapped with ``tail_bound = inf``.  With ``mirrored`` set (``f`` of
    :func:`_case1_kernel`), ``f`` is called at the nodes with ``s <= 0``,
    and the node at -s gets the conjugate with the same ``terms_used``
    and ``tail_bound``: case 1 has real coefficients in ``q/lam`` and
    ``lam q``, and every step from s to the sum (``math.remainder``,
    ``sin``, ``cos``, complex ``*`` and ``/``) is sign-symmetric in
    floating point, so that is ``f`` at -s bit for bit.
    """
    out = []
    for si, z in zip(s[:len(s) // 2 + 1] if mirrored else s, zz):
        try:
            r = f(z)
        except QSU11Error as err:
            raise PathOutsideDomainError(
                f"integrand failed at node s={si!r}: {err}") from err
        if not certified:
            r = SeriesEval(complex(r), 0, math.inf)
            if not cmath.isfinite(r.value):
                raise PathOutsideDomainError(
                    f"integrand at node s={si!r} is {r.value!r}, not finite")
        elif r.tail_bound == math.inf:
            raise QuadratureUnderResolvedError(
                f"integrand series at node s={si!r} is uncertified after "
                f"{r.terms_used} terms (tail_bound = inf)")
        out.append(r)
    if mirrored:
        out += [SeriesEval(r.value.conjugate(), r.terms_used, r.tail_bound)
                for r in reversed(out[:-1])]
    return out


def _certificate(bound: _LineBound, n: float, d: float, span: float,
                 h: float, aw: list[float], ev: list[SeriesEval]) -> float:
    """Bound on ``|value - I|`` of a smoothing on a vertical line.

    ``aw`` holds ``h tw_i |w_i|`` (tw the trapezoid weights).  Rounding,
    in units u = eps/2 and relative to the majorant: the kernel forms
    term m from ``a q^(2j)`` and ``b q^(2j)``, each off by at most
    ``(j + 4 + |z log q|) u`` (lam's own rounding included), and about 20
    more operations per term, so term m is off by at most
    ``m (m + 33 + 2 |z log q|) u <= m (m + c1) u`` (c1 of
    :func:`_line_bound`, whose extra ``2 |log q| S`` covers the rounded
    node positions), and the partial sums add ``terms M u``.  The
    weights' exponents (``3 n (d^2 + s^2) u``), the node positions'
    effect on the weight (``4 n S (|d| + S) u``) and the running sum of N
    products add ``(N + 4 n (|d| + S)^2 + 16) M u``.  All of it is
    counted in eps = 2u, which leaves a factor 2 spare.
    """
    mass = math.fsum(aw)
    series = math.fsum(a * e.tail_bound for a, e in zip(aw, ev))
    truncation = math.exp(n * d * d) * bound.sup * (
        math.erfc(math.sqrt(n) * span)
        + h * math.sqrt(n / math.pi) * math.exp(-n * span * span))
    trapezoid = math.exp(_log_trapezoid(n, d, bound.a, bound.strip, h))
    scale = (len(aw) + max(e.terms_used for e in ev)
             + 4.0 * n * (abs(d) + span) ** 2 + 16.0)
    rounding = _EPS * mass * (bound.weighted + scale * bound.sup)
    return series + truncation + trapezoid + rounding


def gaussian_smooth(base: QBase, p0: IqPoint, k: int, n: float,
                    path: ContourPath, quad: QuadratureSpec,
                    integrand: Callable[[complex], complex] | None = None,
                    tol: float = 1e-12, max_terms: int = 200) -> SmoothedValue:
    """Gaussian-smoothed coefficient of width parameter n at ``z0 = 1 - 1/k``.

    Parameters
    ----------
    k : int, >= 1
        Fixes the kernel center ``z0 = 1 - 1/k`` (independent of the
        path anchor, so different paths smooth the same functional).
    n : positive real
        Kernel concentration; the smoothed value tends to the value of
        the integrand at ``z0`` as n grows.
    integrand : optional
        Replaces the default ``z -> a_z(p0)``; used by tests to check
        the quadrature against synthetic functions with known means.
    tol : float
        Series tolerance at the nodes.  Where the value is certified it
        is tightened to ``tol_quad / (4 sup|f|)`` when that is smaller,
        so the node series stay within their share of the budget.
    max_terms : int
        Term budget of each node's series (default integrand only).

    On a :func:`_case1_line` the series' budget is checked once and the
    kernel is summed at the nodes with ``s <= 0``; their mirrors get the
    conjugates (:func:`_node_values`), each :func:`spherical_az` at its
    node, bit for bit.  Other paths, cases and integrands are called once
    per node.  The grid, and for case 1 on a vertical line the
    certificate ``tail_bound``, follow the module docstring.

    Raises
    ------
    InvalidArgumentError
        Before any node is evaluated, if ``k < 1``, or ``n`` or ``tol`` is
        not a real number in (0, inf), or ``max_terms < 1``.
    PathOutsideDomainError
        If the integrand is pole-guarded or not finite at some node.
    QuadratureUnderResolvedError
        If a kernel weight on the path can pass ``e^700`` (from the
        anchor's distance to z0 and the wiggle, before any node), the
        Gaussian truncation tail exceeds ``tol_quad/2``, the node-doubling
        discrepancy or the certificate exceeds ``tol_quad`` (or is not a
        finite float), or the default integrand's series at some node is
        uncertified (``tail_bound = inf``; the lowest such s is named).
    """
    if not k >= 1:  # nan included
        raise InvalidArgumentError("k must be >= 1")
    _real_in(0.0, n=n, tol=tol)
    if not max_terms >= 1:
        raise InvalidArgumentError("max_terms must be >= 1")
    center = 1.0 - 1.0 / k
    d = path.anchor - center
    peak = n * (abs(d) + abs(path.wiggle_amplitude)) ** 2  # >= n Re (z - center)^2
    if peak > _LOG_WEIGHT:
        raise QuadratureUnderResolvedError(
            f"a kernel weight on the path can reach e^{peak!r} > e^700 (float range)")
    span, m_coarse, bound = _grid(base, p0, k, n, path, quad, integrand)
    cut = math.exp(n * d * d) * math.erfc(math.sqrt(n) * span)
    if cut > quad.tol_quad / 2.0:
        raise QuadratureUnderResolvedError(
            f"half_span {span} truncates more than tol_quad/2 "
            f"of the width-{n} kernel")

    s, zz, dz = _fine_nodes(path, span, m_coarse)
    m_fine = len(s) - 1
    root = math.sqrt(n / math.pi)
    w = [root * cmath.exp(n * (z - center) ** 2) * dzi / 1j
         for z, dzi in zip(zz, dz)]
    w[0] *= 0.5  # the trapezoid rule's end weights
    w[-1] *= 0.5

    if integrand is not None:
        ev = _node_values(integrand, s, zz, certified=False)
    else:
        if bound is not None:
            tol = min(tol, _SHARE * quad.tol_quad / bound.sup)
        f = None
        if _case1_line(p0, path):
            f = _case1_kernel(base, p0, tol, max_terms)
        ev = _node_values(f or _default_integrand(base, p0, tol, max_terms),
                          s, zz, certified=True, mirrored=f is not None)

    h_fine = 2.0 * span / m_fine
    wf = [wi * e.value for wi, e in zip(w, ev)]
    v_fine = h_fine * sum(wf)
    v_coarse = 2.0 * h_fine * sum(wf[::2])
    moved = abs(v_fine - v_coarse)
    if not moved <= quad.tol_quad:  # nan too: a sum past the float range
        raise QuadratureUnderResolvedError(
            f"node doubling moved the value by {moved!r} "
            f"> tol_quad={quad.tol_quad!r}")
    mass = (h_fine * sum(w)).real
    tail = math.inf
    if bound is not None:
        tail = _certificate(bound, n, d, span, h_fine,
                            [h_fine * abs(wi) for wi in w], ev)
        if not tail <= quad.tol_quad:
            raise QuadratureUnderResolvedError(
                f"certificate {tail!r} of the smoothed value "
                f"> tol_quad={quad.tol_quad!r}")
    return SmoothedValue(v_fine, mass, tail)


def path_independence(base: QBase, p0: IqPoint, k: int, n: float,
                      path_a: ContourPath, path_b: ContourPath,
                      quad: QuadratureSpec,
                      integrand: Callable[[complex], complex] | None = None,
                      tol: float = 1e-12, max_terms: int = 200) -> float:
    """Modulus of the difference of the smoothed value over two paths.

    The integrand is holomorphic between admissible paths, so the two
    values agree up to quadrature error; identical paths give exactly 0.
    Arguments are refused as by :func:`gaussian_smooth`, before any node
    is evaluated.
    """
    va, vb = (gaussian_smooth(base, p0, k, n, path, quad, integrand, tol,
                              max_terms) for path in (path_a, path_b))
    return abs(va.value - vb.value)
