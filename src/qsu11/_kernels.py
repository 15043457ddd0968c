"""Scalar summation kernels: the q-Pochhammer and 2phi1 loops, in plain
Python.  Every series and product of the package is summed here, one
evaluation point per call.
"""

from __future__ import annotations

import math

__all__ = [
    "backend",
    "qpoch_finite_kernel",
    "qpoch_infinite_kernel",
    "phi21_kernel",
]


def backend() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"


def qpoch_finite_kernel(a: complex, base: float, k: int) -> complex:
    """Product of (1 - a*base**i) for i in range(k)."""
    p = 1.0 + 0.0j
    f = a
    for _ in range(k):
        p *= 1.0 - f
        f *= base
    return p


def qpoch_infinite_kernel(a: complex, base: float, cutoff: float, max_factors: int):
    """Infinite product of (1 - a*base**i), truncated by the cutoff rule.

    Factors are accumulated until the first index K with
    |a| * base**K < cutoff (at least one factor is always consumed).
    Returns ``(value, factors_used, tail_rel, degenerate)`` where
    ``tail_rel = exp(|a| base**K / (1 - base)) - 1`` bounds the relative
    modulus of the discarded tail and ``degenerate`` is 1 when a factor
    vanished exactly (product is exactly zero, tail irrelevant).
    """
    p = 1.0 + 0.0j
    f = a
    n = 0
    while True:
        fac = 1.0 - f
        n += 1
        if fac == 0:
            return 0.0 + 0.0j, n, 0.0, 1
        p *= fac
        f *= base
        if abs(f) < cutoff or n >= max_factors:
            break
    tail_rel = math.exp(abs(f) / (1.0 - base)) - 1.0
    return p, n, tail_rel, 0


def phi21_kernel(a: complex, b: complex, c: complex, base: float, z: complex,
                 n_exact: int, rel_tol: float, max_terms: int):
    """Sum the 2phi1 term recurrence.

    Terms follow t_0 = 1,
    t_{k+1} = t_k * (1 - a q^k)(1 - b q^k) / ((1 - c q^k)(1 - q^{k+1})) * z.

    ``n_exact >= 0`` requests a terminating sum of exactly n_exact + 1
    terms (upper parameter snapped onto base**(-n_exact)); ``n_exact < 0``
    sums until the geometric tail envelope drops below ``rel_tol`` times
    the partial sum.  Returns ``(value, terms_used, tail_abs, status)``
    with status 0 on success and 1 when max_terms was exhausted before
    the tail bound certified convergence.
    """
    s = 1.0 + 0.0j
    if n_exact == 0:
        return s, 1, 0.0, 0
    t = 1.0 + 0.0j
    fa = a
    fb = b
    fc = c
    fq = base
    k = 0
    while k < max_terms:
        t = t * (1.0 - fa) * (1.0 - fb) / ((1.0 - fc) * (1.0 - fq)) * z
        k += 1
        s += t
        if n_exact > 0 and k == n_exact:
            return s, k + 1, 0.0, 0
        if t == 0:
            return s, k + 1, 0.0, 0
        fa *= base
        fb *= base
        fc *= base
        fq *= base
        if n_exact < 0:
            # sup over j >= k of |t_{j+1}/t_j|; valid once |c| base^k < 1
            bc = abs(fc)
            if bc < 1.0:
                r = abs(z) * (1.0 + abs(fa)) * (1.0 + abs(fb)) / ((1.0 - bc) * (1.0 - fq))
                if r < 1.0:
                    tail = abs(t) * r / (1.0 - r)
                    if tail <= rel_tol * max(abs(s), 1e-300):
                        return s, k + 1, tail, 0
    return s, k + 1, math.inf, 1
