"""Independent high-precision references for the pointwise workload.

Each function evaluates, with mpmath at :data:`DPS` digits, the closed
form that the corresponding qsu11 evaluator documents: ``qp`` for
q-Pochhammer products and ``qhyper`` for 2phi1 series, always inside
their disc of convergence (the continued routes are written out as the
same two-term or Heine formulas the library uses).  Nothing here calls
qsu11, so a rounding or cancellation error in the library shows as a
disagreement.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 34


def _qp(a, b, n=None):
    """``(a; b)_n`` for any integer n (reciprocal for n < 0), or n = inf."""
    if n is None:
        return mp.qp(a, b)
    if n >= 0:
        p = mp.mpf(1)
        for i in range(n):
            p *= 1 - a * b ** i
        return p
    return 1 / _qp(a * b ** n, b, -n)


def _phi21(a, b, c, base, z):
    if abs(z) >= 1:
        raise ValueError("reference 2phi1 only inside the unit disc")
    return mp.qhyper([a, b], [c], base, z)


def _nu(k: int) -> int:
    return (k - 1) * (k - 2) // 2


class Reference:
    """mpmath references at one deformation parameter ``q``."""

    def __init__(self, q: float) -> None:
        mp.mp.dps = DPS
        self.q = mp.mpf(q)
        q2 = self.q ** 2
        self.q2 = q2
        self.cq = 1 / (mp.sqrt(2) * self.q * _qp(q2, q2) * _qp(-q2, q2))

    def spherical(self, lam: complex, sign: int, k: int):
        q, q2 = self.q, self.q2
        lam = mp.mpc(lam)
        if sign > 0 and k <= 0:
            return _phi21(q / lam, lam * q, q2, q2, -q ** (2 - 2 * k))
        if sign > 0:
            kap = q ** (2 * k)
            total = 0
            for u in (lam, 1 / lam):
                num = (_qp(u * q, q2) ** 2 * _qp(-q2 * q / (u * kap), q2)
                       * _qp(-u * kap / q, q2))
                den = (_qp(q2, q2) * _qp(u * u, q2) * _qp(-q2 / kap, q2)
                       * _qp(-kap, q2))
                total += num / den * _phi21(q / u, q / u, q2 / (u * u), q2,
                                            -kap)
            return total
        mk = q ** (2 * k)
        pref = (q ** (2 * k + 2 * _nu(k)) * self.cq ** 2 * _qp(mk, q2)
                * _qp(q2, q2) ** 2 * _qp(-lam * q ** (3 - 2 * k), q2)
                * _qp(-q ** (2 * k - 1) / lam, q2)
                / (_qp(q ** (2 * k - 1) / lam, q2)
                   * _qp(lam * q ** (3 - 2 * k), q2)))
        total = 0
        for u in (lam, 1 / lam):
            num = (_qp(u * q, q2) ** 2 * _qp(q ** (3 - 2 * k) / u, q2)
                   * _qp(u * q ** (2 * k - 1), q2))
            den = _qp(q2, q2) * _qp(u * u, q2) * _qp(mk, q2)
            total += num / den * _phi21(q / u, q / u, q2 / (u * u), q2, mk)
        return pref * total

    def coamen(self, m: int, lam: complex, L: int, form: str):
        q, q2 = self.q, self.q2
        lam = mp.mpc(lam)
        e = 2 - 2 * L - 4 * m
        a = -q ** (1 + 2 * m) / lam
        b = -lam * q ** (1 + 2 * m)
        z = -q ** e
        if e > 0:
            series = _phi21(a, b, q2, q2, z)
        else:  # Heine transformation, inner series in the small b
            series = (_qp(b, q2) * _qp(a * z, q2) / (_qp(q2, q2) * _qp(z, q2))
                      * _phi21(q2 / b, z, a * z, q2, b))
        if form == "simplified":
            return mp.sqrt(_qp(z, q2, 2 * m)) * series
        scalar = q ** (2 * L + 2 * m + _nu(L) + _nu(L + 2 * m)) * self.cq ** 2
        root = _qp(-q ** (2 * L), q2) * _qp(-q ** (2 * L + 4 * m), q2)
        rest = _qp(q2, q2) ** 2 * _qp(z, q2)
        return scalar * mp.sqrt(root) * rest * series

    def theta_lhs(self, a: complex, k: int):
        q = self.q
        a = mp.mpc(a)
        return _qp(a * q ** k, q) * _qp(q ** (1 - k) / a, q)

    def pochhammer_ratio(self, lam: complex, k: float):
        q, q2 = self.q, self.q2
        lam = mp.mpc(lam)
        n = None if k == math.inf else int(k)
        return _qp(q / lam, q2, n) ** 2 / _qp(1 / lam ** 2, q2, n)


def rel_error(value: complex, ref) -> float:
    """``|value - ref| / |ref|`` in double precision."""
    return float(abs(mp.mpc(value) - ref) / abs(ref))
