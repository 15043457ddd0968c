"""Gaussian contour smoothing of the spherical coefficients.

The smoothed value at center ``z0 = 1 - 1/k`` is the contour integral

    sqrt(n/pi) * integral over the path of
        exp(n (z - z0)^2) f(z) dz / i,

which restricts on the canonical vertical path ``z = z0 + i s`` to the
plain Gaussian average ``sqrt(n/pi) * integral exp(-n s^2) f(z0+is) ds``
(unit mass, concentrating at ``z0`` as n grows).  The exponent sign is
chosen so the kernel decays along vertical-type paths; the opposite
orientation diverges and is not representable here.

Quadrature is a composite trapezoid rule on a fixed symmetric node set,
evaluated once on the doubled grid; the coarse-grid value is recovered
from the even-indexed nodes, and disagreement beyond ``tol_quad``
raises instead of returning a silently under-resolved number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidArgumentError,
    PathOutsideDomainError,
    QSU11Error,
    QuadratureUnderResolvedError,
)
from .qcalculus import QBase, SeriesEval
from .su11core import IqPoint, SpectralParam, _case1_batch, _lam_batch, spherical_az

__all__ = [
    "ContourPath",
    "QuadratureSpec",
    "SmoothedValue",
    "gaussian_smooth",
    "path_independence",
]

_PATH_KINDS = ("vertical_line", "perturbed")


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
                f"kind must be one of {_PATH_KINDS}, got {self.kind!r}"
            )
        if self.kind == "vertical_line" and self.wiggle_amplitude != 0.0:
            raise InvalidArgumentError("vertical_line paths cannot wiggle")
        if self.half_span is not None and self.half_span <= 0:
            raise InvalidArgumentError("half_span must be positive")

    def point(self, s: float) -> complex:
        return complex(self.anchor + self.wiggle_amplitude * math.sin(s), s)

    def derivative(self, s: float) -> complex:
        return complex(self.wiggle_amplitude * math.cos(s), 1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid-rule resolution and truncation budget.

    ``half_span`` is the truncation half-width S of the parameter
    interval; ``nodes_per_unit`` the node density of the coarse grid;
    ``tol_quad`` both the allowed node-doubling discrepancy and the
    budget against which the Gaussian truncation tail is checked.
    """

    half_span: float
    nodes_per_unit: int = 64
    tol_quad: float = 1e-8

    def __post_init__(self) -> None:
        if self.half_span <= 0:
            raise InvalidArgumentError("half_span must be positive")
        if self.nodes_per_unit < 1:
            raise InvalidArgumentError("nodes_per_unit must be >= 1")
        if self.tol_quad <= 0:
            raise InvalidArgumentError("tol_quad must be positive")

    @classmethod
    def for_width(cls, n: float, base: QBase, tol_quad: float = 1e-8,
                  nodes_per_unit: int = 64) -> "QuadratureSpec":
        """Half-span wide enough for kernel width n plus one period.

        ``S = sqrt(log(4/tol_quad)/n) + 2 pi / |log q|`` puts the
        truncated Gaussian tail below ``tol_quad/2`` with a full
        imaginary period of margin for the integrand's oscillation.
        """
        if n <= 0:
            raise InvalidArgumentError("n must be positive")
        span = math.sqrt(math.log(4.0 / tol_quad) / n) + base.period
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
    """

    value: complex
    mass: float


def _fine_nodes(path: ContourPath, span: float,
                nodes_per_unit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameters s, points z(s) and derivatives z'(s) of the fine grid.

    The fine grid has twice the coarse grid's (even) number of intervals,
    so the coarse grid is its even-indexed nodes.
    """
    m_coarse = int(math.ceil(2.0 * span * nodes_per_unit))
    if m_coarse % 2:
        m_coarse += 1
    s = np.linspace(-span, span, 2 * m_coarse + 1)
    zz = path.anchor + path.wiggle_amplitude * np.sin(s) + 1j * s
    dz = path.wiggle_amplitude * np.cos(s) + 1j
    return s, zz, dz


def _default_integrand(base: QBase, p0: IqPoint,
                       tol: float) -> Callable[[complex], SeriesEval]:
    def f(z: complex) -> SeriesEval:
        return spherical_az(base, SpectralParam.from_z(z, base), p0, tol=tol)

    return f


def _uncertified(s: float, terms: int) -> QuadratureUnderResolvedError:
    return QuadratureUnderResolvedError(
        f"integrand series at node s={s!r} is uncertified after {terms} "
        f"terms (tail_bound = inf)"
    )


def _node_values(f: Callable, s: np.ndarray, zz: np.ndarray,
                 certified: bool) -> np.ndarray:
    """Integrand at every node, one call per node.

    With ``certified`` set, ``f`` returns a :class:`SeriesEval` whose
    tail bound must be finite.
    """
    fv = np.empty(len(zz), dtype=np.complex128)
    for i in range(len(zz)):
        try:
            r = f(complex(zz[i]))
        except QSU11Error as err:
            raise PathOutsideDomainError(
                f"integrand failed at node s={float(s[i])!r}: {err}"
            ) from err
        if certified:
            if r.tail_bound == math.inf:
                raise _uncertified(float(s[i]), r.terms_used)
            r = r.value
        fv[i] = r
    return fv


def _case1_values(base: QBase, p0: IqPoint, tol: float, s: np.ndarray,
                  zz: np.ndarray) -> np.ndarray | None:
    """Default integrand at every node in one batched pass.

    Agrees with the per-node loop to a few ulp (see
    :func:`qsu11.qcalculus.phi21_direct_batch`).  Returns None when the
    loop has to decide instead: a node where lam is zero or not finite,
    or an evaluation error, which the loop attributes to its node.
    """
    lam = _lam_batch(zz, base)
    if not np.all(np.isfinite(lam) & (lam != 0)):
        return None
    try:
        ev = _case1_batch(base, lam, p0.exponent, tol)
    except QSU11Error:
        return None
    bad = np.flatnonzero(np.isinf(ev.tail_bound))
    if bad.size:
        raise _uncertified(float(s[bad[0]]), int(ev.terms_used[bad[0]]))
    return ev.value


def gaussian_smooth(base: QBase, p0: IqPoint, k: int, n: float,
                    path: ContourPath, quad: QuadratureSpec,
                    integrand: Callable[[complex], complex] | None = None,
                    tol: float = 1e-12) -> SmoothedValue:
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

    The default integrand at ``p0 = +q^k, k <= 0`` is evaluated at all
    nodes in one batched pass in numpy complex arithmetic, which agrees
    with calling :func:`spherical_az` node by node to a few ulp per
    node; the other cases and supplied integrands are called once per
    node.

    Raises
    ------
    PathOutsideDomainError
        If the integrand is singular (pole-guarded) at some node.
    QuadratureUnderResolvedError
        If the Gaussian truncation tail exceeds ``tol_quad/2``, the
        node-doubling discrepancy exceeds ``tol_quad``, or the default
        integrand's series at some node is uncertified
        (``tail_bound = inf``).
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if n <= 0:
        raise InvalidArgumentError("n must be positive")
    span = path.half_span if path.half_span is not None else quad.half_span
    if math.erfc(math.sqrt(n) * span) > quad.tol_quad / 2.0:
        raise QuadratureUnderResolvedError(
            f"half_span {span} truncates more than tol_quad/2 "
            f"of the width-{n} kernel"
        )
    center = 1.0 - 1.0 / k

    s, zz, dz = _fine_nodes(path, span, quad.nodes_per_unit)
    m_fine = len(s) - 1
    w = math.sqrt(n / math.pi) * np.exp(n * (zz - center) ** 2) * dz / 1j

    if integrand is not None:
        fv = _node_values(integrand, s, zz, certified=False)
    else:
        fv = None
        if p0.sign > 0 and p0.exponent <= 0:
            fv = _case1_values(base, p0, tol, s, zz)
        if fv is None:
            fv = _node_values(_default_integrand(base, p0, tol), s, zz,
                              certified=True)

    def trapezoid(values: np.ndarray, h: float) -> complex:
        tw = np.ones(len(values))
        tw[0] = tw[-1] = 0.5
        return complex(h * np.sum(values * tw))

    h_fine = 2.0 * span / m_fine
    v_fine = trapezoid(w * fv, h_fine)
    v_coarse = trapezoid((w * fv)[::2], 2.0 * h_fine)
    if abs(v_fine - v_coarse) > quad.tol_quad:
        raise QuadratureUnderResolvedError(
            f"node doubling moved the value by {abs(v_fine - v_coarse)!r} "
            f"> tol_quad={quad.tol_quad!r}"
        )
    mass = trapezoid(w, h_fine)
    return SmoothedValue(v_fine, mass.real)


def path_independence(base: QBase, p0: IqPoint, k: int, n: float,
                      path_a: ContourPath, path_b: ContourPath,
                      quad: QuadratureSpec,
                      integrand: Callable[[complex], complex] | None = None,
                      tol: float = 1e-12) -> float:
    """Modulus of the difference of the smoothed value over two paths.

    The integrand is holomorphic between admissible paths, so the two
    values agree up to quadrature error; identical paths give exactly 0.
    """
    va = gaussian_smooth(base, p0, k, n, path_a, quad, integrand, tol)
    vb = gaussian_smooth(base, p0, k, n, path_b, quad, integrand, tol)
    return abs(va.value - vb.value)
