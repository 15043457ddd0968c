"""mpmath references: the spherical coefficients a_z(+-q^k), the
infinite q-Pochhammer product, 2phi1 and the coamen coefficients.

The closed forms of cases 2 and 3 (PropB2) and case 1's 2phi1
(:func:`case1_reference`), evaluated at mpmath's working precision, the
explicit product (:func:`explicit_qpoch`), the first n terms of a 2phi1
(:func:`phi21_terms`), the 2phi1 itself (:func:`phi21_reference`) and
the simplified coamen coefficient (:func:`coamen_reference`); nothing
here calls qsu11.
"""

import functools
from fractions import Fraction


def _nu(k):
    """Exponent of nu at +-q^k: (k - 1)(k - 2)/2."""
    return (k - 1) * (k - 2) // 2


@functools.lru_cache(maxsize=None)
def _q_constants(mp, q, prec):
    """(q^2; q^2)_inf and cq at ``prec`` bits, computed once per q."""
    q2 = q * q
    sq = mp.qp(q2, q2)
    return sq, 1 / (mp.sqrt(2) * q * sq * mp.qp(-q2, q2))


class Reference:
    """The closed forms of cases 2 and 3 at one (q, lam), evaluated by
    mpmath at its working precision.  The products that do not depend on
    k -- cq, (q^2; q^2)_inf, (u q; q^2)_inf and (u^2; q^2)_inf for
    u = lam, 1/lam -- are computed once; over a run of exponents each
    k-dependent product is one ``mp.qp`` at the end of the run where its
    argument is smallest and one prepended factor per other exponent."""

    def __init__(self, mp, q, lam):
        self.mp = mp
        self.q = q = mp.mpf(q)
        self.q2 = q2 = q * q
        self.lam = lam = mp.mpc(lam)
        self.sq, self.cq = _q_constants(mp, q, mp.prec)
        self.us = [(u, mp.qp(u * q, q2), mp.qp(u * u, q2)) for u in (lam, 1 / lam)]

    def __call__(self, sign, k):
        return self.window(sign, [k])[0]

    def window(self, sign, ks):
        return self.case2(ks) if sign > 0 else self.case3(ks)

    def closed(self, sign, k):
        """a_z(sign q^k), k >= 1, by the closed form whose products do not
        depend on k:

        q^{k-1} theta(-q lam) / ((q^2; q^2)_inf theta(-q^2))
            * sum over u in {lam, 1/lam} of u^{1-k} (u q; q^2)_inf^2
              / (u^2; q^2)_inf * 2phi1(q/u, q/u; q^2/u^2; q^2, -sign q^{2k}),

        with theta(x) = (x, q^2/x; q^2)_inf."""
        mp, q, q2, lam = self.mp, self.q, self.q2, self.lam
        theta = mp.qp(-q * lam, q2) * mp.qp(-q / lam, q2)
        theta_q2 = mp.qp(-q2, q2) * mp.qp(-1, q2)
        total = sum(u ** (1 - k) * uq ** 2 / uu * self._series(u, -sign * q ** (2 * k))
                    for u, uq, uu in self.us)
        return q ** (k - 1) * theta / (self.sq * theta_q2) * total

    def _run(self, args):
        """``(a; q^2)_inf`` for each a of a run ``args[i + 1] = args[i] q^{+-2}``."""
        rev = abs(args[-1]) > abs(args[0])
        seq = args[::-1] if rev else list(args)  # |a| decreasing
        values = [self.mp.qp(seq[-1], self.q2)]
        for a in reversed(seq[:-1]):
            values.append((1 - a) * values[-1])
        return values if rev else values[::-1]

    def _series(self, u, x):
        q, q2 = self.q, self.q2
        return self.mp.qhyper([q / u, q / u], [q2 / (u * u)], q2, x)

    def case2(self, ks):
        """T(lam) + T(1/lam) of the two-term continuation at kappa = q^{2k}."""
        q, q2 = self.q, self.q2
        kappas = [q ** (2 * k) for k in ks]
        dens = [self.sq * a * b for a, b in zip(
            self._run([-q2 / kappa for kappa in kappas]),
            self._run([-kappa for kappa in kappas]))]
        totals = [0] * len(ks)
        for u, uq, uu in self.us:
            xs = self._run([-q ** 3 / (u * kappa) for kappa in kappas])
            ys = self._run([-u * kappa / q for kappa in kappas])
            for i, kappa in enumerate(kappas):
                totals[i] += uq ** 2 * xs[i] * ys[i] / (dens[i] * uu) \
                    * self._series(u, -kappa)
        return totals

    def case3(self, ks):
        """PropB2's case 3 at -q^k: an overall factor vanishes while
        (q^{2-2k}; q^2)_inf sits in both bracket denominators; with it
        cancelled,

        value = q^{2k + 2 nu(k)} cq^2 (q^{2k}; q^2)_inf (q^2; q^2)_inf^2
                * (-lam q^{3-2k}, -q^{2k-1}/lam; q^2)_inf
                  / (q^{2k-1}/lam, lam q^{3-2k}; q^2)_inf
                * (T1 + T2),

        T1 = (lam q, lam q, q^{3-2k}/lam, lam q^{2k-1}; q^2)_inf
             / (q^2, lam^2, q^{2k}; q^2)_inf
             * 2phi1(q/lam, q/lam; q^2/lam^2; q^2, q^{2k})

        and T2 = T1 with lam -> 1/lam.  The overall sign is +: the source
        display carries a minus sign that its own limit value contradicts.
        """
        q, q2, lam = self.q, self.q2, self.lam
        mks = self._run([q ** (2 * k) for k in ks])
        ups = [q ** (3 - 2 * k) for k in ks]
        downs = [q ** (2 * k - 1) for k in ks]
        n1, n2 = self._run([-lam * x for x in ups]), self._run([-x / lam for x in downs])
        d1, d2 = self._run([x / lam for x in downs]), self._run([lam * x for x in ups])
        totals = [0] * len(ks)
        for u, uq, uu in self.us:
            xs, ys = self._run([x / u for x in ups]), self._run([u * x for x in downs])
            for i, k in enumerate(ks):
                totals[i] += uq ** 2 * xs[i] * ys[i] / (self.sq * uu * mks[i]) \
                    * self._series(u, q ** (2 * k))
        return [q ** (2 * k + 2 * _nu(k)) * self.cq ** 2 * mks[i]
                * self.sq ** 2 * n1[i] * n2[i] / (d1[i] * d2[i]) * totals[i]
                for i, k in enumerate(ks)]


#: Bits of the fixed-point arithmetic of :func:`explicit_qpoch` below the
#: lowest bit of its arguments.
_PREC = 160


def explicit_qpoch(mp, a, b):
    """``(a; b)_inf`` for a complex float ``a`` and a float ``b`` in (0, 1),
    as an mpc at mp's working precision, by the explicit product.

    The factors ``1 - a b^i`` are multiplied out in integer fixed point at
    2**-P, P = 160 plus the most fractional bits of a's parts and of b: a
    and b are exact there, and ``a b^i``, rounded down to 2**-P per step,
    is within ``2**-P / (1 - b)`` of exact, far below the lowest bit of a
    (an offset of a from a zero ``b^-j`` is resolved, however small).
    They are multiplied out while ``|a b^i| >= 2**-70``, the product kept
    to P + 16 bits by a running exponent; the rest,
    ``prod_{i >= K} (1 - f_K b^(i-K))``, is ``exp(-f_K / (1 - b))`` to
    within ``|f_K|^2 / (1 - b^2) < 2**-134`` relative.  ``mp.qp`` is not
    used: it raises ``NoConvergence`` at large ``|a|``.
    """
    a = complex(a)
    fracs = [Fraction(x) for x in (a.real, a.imag, b)]
    prec = _PREC + max(x.denominator.bit_length() - 1 for x in fracs)
    one = 1 << prec
    fr, fi, fb = (x.numerator * (one // x.denominator) for x in fracs)
    pr, pi, pe = one, 0, 0  # the product is (pr + i pi) 2**(pe - prec)
    stop = 1 << (prec - 70)
    while max(abs(fr), abs(fi)) >= stop:
        gr, gi = one - fr, -fi
        pr, pi = (pr * gr - pi * gi) >> prec, (pr * gi + pi * gr) >> prec
        if pr == 0 and pi == 0:
            return mp.mpc(0)
        n = max(abs(pr), abs(pi)).bit_length() - (prec + 16)
        pr, pi, pe = (pr >> n, pi >> n, pe + n) if n > 0 \
            else (pr << -n, pi << -n, pe + n)
        fr, fi = (fr * fb) >> prec, (fi * fb) >> prec
    p = mp.mpc(mp.ldexp(pr, pe - prec), mp.ldexp(pi, pe - prec))
    f = mp.mpc(mp.ldexp(fr, -prec), mp.ldexp(fi, -prec))
    return p * mp.exp(-f / (1 - mp.mpf(b)))


def phi21_terms(mp, a, b, c, base, z, n):
    """The first ``n`` terms of ``2phi1(a, b; c; base, z)`` summed at mp's
    working precision, the float parameters taken exactly."""
    a, b, c, z = (mp.mpc(x) for x in (a, b, c, z))
    q = mp.mpf(base)
    total = term = mp.mpf(1)
    f = mp.mpf(1)
    for _ in range(n - 1):
        term *= (1 - a * f) * (1 - b * f) / ((1 - c * f) * (1 - q * f)) * z
        total += term
        f *= q
    return total


def phi21_reference(mp, a, b, c, base, z):
    """``2phi1(a, b; c; base, z)`` at mp's working precision, the
    parameters (floats or mp numbers) taken exactly: for |z| < 1 the
    series (:func:`_phi21_series`); otherwise Heine's transformation
    [(b, a z; base)_inf / (c, z; base)_inf] 2phi1(c/b, z; a z; base, b),
    which converges for |b| < 1, with the products of :func:`_qp`."""
    a, b, c, z = (mp.mpc(x) for x in (a, b, c, z))
    q = mp.mpf(base)
    if abs(z) < 1:
        return _phi21_series(mp, a, b, c, q, z)
    prefactor = (_qp(mp, b, q) * _qp(mp, a * z, q)
                 / (_qp(mp, c, q) * _qp(mp, z, q)))
    return prefactor * _phi21_series(mp, c / b, z, a * z, q, b)


def _phi21_series(mp, a, b, c, q, z):
    """The 2phi1 series at mp's precision, |z| < 1: summed until the
    geometric envelope ``|z| (1 + |a| q^n)(1 + |b| q^n) / ((1 - |c| q^n)
    (1 - q^{n+1}))`` of the remaining term ratios puts the tail below
    2^-140 of the sum, below the 40 digits (2^-133) the oracles use."""
    total = term = mp.mpf(1)
    f = mp.mpf(1)
    small = mp.mpf(2) ** -140
    az = abs(z)
    for _ in range(100000):
        term *= (1 - a * f) * (1 - b * f) / ((1 - c * f) * (1 - q * f)) * z
        total += term
        f *= q
        fc = abs(c) * f
        if fc < 1:
            r = az * (1 + abs(a) * f) * (1 + abs(b) * f) / ((1 - fc) * (1 - q * f))
            if r < 1 and abs(term) * r / (1 - r) <= small * abs(total):
                return total
    raise ArithmeticError("reference series did not converge")


def case1_reference(mp, q, lam, k):
    """a_z(+q^k), k <= 0 (PropB2's case 1), at mp's working precision:
    ``2phi1(q/lam, lam q; q^2; q^2, -q^{2-2k})`` (:func:`phi21_reference`),
    ``q`` and ``lam`` taken exactly."""
    q, lam = mp.mpf(q), mp.mpc(lam)
    return phi21_reference(mp, q / lam, lam * q, q * q, q * q, -q ** (2 - 2 * k))


def coamen_reference(mp, q, m, lam, L):
    """The coamen coefficient at m, lam and p1 = q^L by its simplified form

    sqrt((-q^e; q^2)_{2m}) 2phi1(a, b; q^2; q^2, z), e = 2 - 2L - 4m,
    a = -q^{1+2m}/lam, b = -lam q^{1+2m}, z = -q^e,

    at mp's working precision (:func:`phi21_reference`, by Heine's
    transformation for e <= 0).  For m < 0 the finite product is
    ``1 / (-q^e q^{4m}; q^2)_{-2m}``.  ``q`` and ``lam`` are taken
    exactly, the powers of q computed at mp's precision.
    """
    q, lam = mp.mpf(q), mp.mpc(lam)
    q2 = q * q
    e = 2 - 2 * L - 4 * m
    a, b, z = -q ** (1 + 2 * m) / lam, -lam * q ** (1 + 2 * m), -q ** e
    if m >= 0:
        finite = mp.fprod(1 - z * q2 ** i for i in range(2 * m))
    else:
        finite = 1 / mp.fprod(1 - z * q2 ** (2 * m + i) for i in range(-2 * m))
    return mp.sqrt(finite) * phi21_reference(mp, a, b, q2, q2, z)


def _qp(mp, a, q):
    """``(a; q)_inf`` at mp's working precision for an mp number ``a``:
    the factors while ``|a q^i| >= 2^-70``, then ``exp(-f / (1 - q))``, as
    in :func:`explicit_qpoch` (``mp.qp`` raises ``NoConvergence`` at large
    ``|a|``)."""
    p = mp.mpf(1)
    f = a
    while abs(f) >= mp.mpf(2) ** -70:
        p *= 1 - f
        f *= q
    return p * mp.exp(-f / (1 - q))
