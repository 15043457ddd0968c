"""Scalar summation kernels: the q-Pochhammer and 2phi1 loops, in plain
Python.  Every series and product of the package is summed here, one
evaluation point per call, except in :func:`phi21_window_kernel`, which
sums one 2phi1 whose c is its base (case 1, the coamen series) at a list
of arguments (a lattice window) and forms what they share once.  An
infinite product multiplies out its leading factors and sums the rest as
Euler's series, from coefficients formed once per base and tolerance
(:func:`euler_table`), or, towards base 1, as the log series.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left

__all__ = [
    "backend",
    "qpoch_finite_kernel",
    "euler_table",
    "qpoch_infinite_kernel",
    "phi21_kernel",
    "phi21_window_kernel",
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


#: Unit roundoff of IEEE double arithmetic.
_U = 2.0 ** -53

#: The smallest normal float, and the spacing of the subnormal ones.
_TINY = sys.float_info.min
_SUB = 2.0 ** -1074

#: Roundings per factor ``p *= 1 - f``, in units of ``_U``: one for the
#: subtraction and sqrt(5) for the complex product (Brent, Percival and
#: Zimmermann, Math. Comp. 76, 2007), rounded up.
_C_FACTOR = 4.0

#: Roundings of the closing ``p * exp(-s)``, in units of ``_U``: up to
#: 2 + 2 for libm's exp and cos or sin, one for their product, sqrt(5)
#: for the complex product, rounded up.
_C_CLOSE = 8.0

#: Roundings per Horner step ``s = s * y + e_n`` of the Euler tail, in units
#: of ``_U``: sqrt(5) for the complex product, one for the addition, and two
#: for reading ``|y|`` as ``abs(y)`` (libm's hypot, within an ulp), whose
#: powers the bound uses, rounded up.
_C_HORNER = 5.25

#: Roundings of the Euler tail's closing product ``p * S``: sqrt(5), rounded up.
_C_PRODUCT = 3.0

#: Relative margin on the Euler tail's largest argument: the factor loop
#: stops at ``|a| base^K <= rho`` predicted from logs, within far less.
_TOP = 1.0 + 2.0 ** -20

#: Coefficients of the Euler tail below this are left out; the bound on
#: what they add stays below every rounding bound.
_FLOOR = 2.0 ** -900


def euler_table(base: float, budget: float) -> tuple:
    """The per-(base, budget) tables of the Euler tail of
    :func:`qpoch_infinite_kernel`, for arguments ``|y| <= rho``,
    ``rho = min(1/2, 0.7 (1 - base))``: ``(rho, table)``.

    Euler's identity (Gasper and Rahman, *Basic Hypergeometric Series*,
    2nd ed., (1.3.16)) gives ``(y; base)_inf = sum_n e_n y^n`` with
    ``e_n = (-1)^n base^(n(n-1)/2) / (base; base)_n``, formed here in
    floats by ``e_n = e_{n-1} (-base^(n-1)) / (1 - base^n)``, each with a
    count ``c_n`` of the roundings it carries (``base^n`` is n - 1
    roundings off, ``1 - base^n`` loses ``(n - 1) base^n / (1 - base^n)``
    more, and the product and quotient two; Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3) and a bound
    ``U_n = |e_n| (1 + 2 c_n u)`` on both the exact and the formed
    modulus.  ``table`` holds, indexed by the last term N >= 1 summed:

    * ``th``: ``th[N - 1] < r <= th[N]`` selects N, the first whose
      remainder bound at r is at most ``budget`` times the lower bound
      ``exp(-rho / ((1 - base)(1 - rho)))`` on ``|(y; base)_inf|`` (up to
      ``_TOP``; ``th[0] = -1`` and the last is ``inf``);
    * ``rev``: the coefficients from the last to ``e_0 = 1``, so that
      ``rev[-1 - N:]`` is ``e_N, ..., e_0``;
    * ``tr``: the remainder bound after term N is ``tr[N] r^(N+1)``:
      ``U_{N+1} / (1 - rho g)``, the ratios ``|e_{n+1} / e_n| =
      base^n / (1 - base^(n+1))`` falling from ``g`` at ``n = N + 1``;
    * ``wt``: with ``v_n = (_C_HORNER n + 1 + c_n) U_n``, the roundings of
      term n in the Horner pass and in its coefficient times its modulus
      bound, ``sum_{n=1..N} v_n r^n <= r (v_1 + r wt[N])`` for r up to
      ``th[N]`` (or rho): ``wt[N] = sum_{n=2..N} v_n th[N]^(n-2)``;
    * ``den``: ``2 (_C_HORNER N + 1 + c_N) + 4 N + 16``, the units in the
      denominator of the gamma bound over terms 0..N (twice the most any
      term carries, with room for the bound's own arithmetic);
    * ``v1``, and ``kappa``: ``max n U_n / v_n`` over ``n >= 1``, so that
      ``sum n U_n r^n <= kappa sum v_n r^n``.

    The table stops at the first N whose remainder meets the budget at
    ``rho`` (with ``_TOP``), or whose next coefficient bound is below
    ``_FLOOR``, which then stands in for it.  Its length depends on the
    budget: about 7 terms at base 0.25 and ``budget = 2.5e-13``.
    """
    rho = min(0.5, 0.7 * (1.0 - base))
    top = rho * _TOP
    cut = budget * math.exp(-top / ((1.0 - base) * (1.0 - top))) * (1.0 - 2.0 ** -40)
    th, coef, v, tr, den = [-1.0], [1.0], [1.0], [0.0], [0.0]
    e, c, bn, kappa = 1.0, 0.0, 1.0, 0.0
    n = 0
    while True:
        n += 1
        bn1 = bn * base  # base^n
        d = 1.0 - bn1
        e = -e * bn / d
        c += max(n - 2, 0) + (n - 1) * bn1 / d + 3.0
        big = abs(e) * (1.0 + 2.0 * c * _U)
        if n > 1:  # the remainder after N = n - 1
            low = big < _FLOOR
            g = bn1 / (1.0 - bn1 * base) * _TOP
            t = (_FLOOR if low else big) * _TOP / (1.0 - top * g)
            tr.append(t)
            if low or t * top ** n <= cut:
                th.append(math.inf)
                break
            th.append((cut / t) ** (1.0 / n) * (1.0 - 2.0 ** -40))
        weight = _C_HORNER * n + 1.0 + c
        coef.append(e)
        v.append(weight * big)
        den.append(2.0 * weight + 4.0 * n + 16.0)
        kappa = max(kappa, n / weight)
        bn = bn1
    wt = [0.0] * len(coef)
    for k in range(2, len(coef)):
        x = min(th[k], top)
        for j in range(k, 1, -1):
            wt[k] = wt[k] * x + v[j]
    # Tuples: the table is cached and shared by every caller.
    return rho, (tuple(th), tuple(coef[::-1]), tuple(tr), tuple(wt), tuple(den),
                 v[1], kappa)


def qpoch_infinite_kernel(a: complex, base: float, n_big: int, n_fac: int,
                          budget: float, euler: tuple | None = None):
    """Infinite product of (1 - a*base**i): ``n_fac`` factors, then the
    product of the rest, ``(x; base)_inf`` at x = a*base**K, as Euler's
    series (``euler``, the table of :func:`euler_table`) or as the log
    series (``euler`` None).

    The caller predicts from logs the K = ``n_fac`` leading factors to
    multiply out and the first ``n_big`` of them, whose f_i = a*base**i
    have |f_i| >= 3.  Those run without a test; the others while
    |f_i| > 1/2 are checked for a factor that is exactly 0 (then the value
    is 0: :func:`_zero_factor`), and those after them cannot vanish.
    Their relative rounding is counted in units of u = 2**-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3): per factor
    4 + i |f_i| / |1 - f_i| (f_i is i roundings off, and 1 - f_i loses bits
    as f_i nears 1; 4 + 1.5 i while |f_i| >= 3, and |1 - f_i| read as
    1 - |f_i| once |f_i| <= 1/2).

    Euler's tail (r = |x| at most the table's rho) takes the first N >= 1
    whose remainder bound ``tr[N] r^(N+1)`` meets the budget, found in
    ``th``, and sums ``e_N, ..., e_0`` in one Horner pass
    ``s = s * x + e_n`` (Higham, section 5.1).  The absolute error of S is
    at most ``u (1 + w (1 + K kappa))``, ``w = r (v_1 + r wt[N]) >=
    sum_{n>=1} v_n r^n``, for the Horner pass, the coefficients and, through
    ``sum n U_n r^n <= kappa w``, x's K roundings, plus the remainder
    bound, all over ``1 - (den[N] + 2 N K) u``; relative, over ``|S|``
    less it.  The factors' units and ``_C_PRODUCT`` for ``p * S`` (none
    without factors, where p = 1 exactly) make a gamma bound
    E u / (1 - E u), compounded with S's into a bound ``rel`` relative to
    the exact product; ``tail_bound`` is ``|value| rel / (1 - rel)``.
    ``terms_used`` is K + N.

    The log tail is exp(-s), with s the log series
    log (x; base)_inf = -sum_{j>=1} x^j / (j (1 - base^j)), r = |x| < 1,
    summed to the first J >= 1 whose remainder bound
    r^{J+1} / ((J+1)(1 - base^{J+1})(1 - r)) is at most ``budget``.
    Its ``tail_bound`` is |value| times expm1 of the remainder bound,
    compounded with a running bound E u / (1 - E u) on the rounding: the
    factors', and for the series, with term moduli
    t_j = r^j / (j (1 - base^j)) falling by a ratio r at least,
    (K + 3 + base / (1 - base)) t_1 / (1 - r)^2 (term j is about
    (K + 3 + base^j / (1 - base^j)) j roundings off) plus
    (J + 3) t_1 / (1 - r) (the sum); and 8 for the closing exp and
    product; also where exp(-s) falls below the normal float range, the
    bound is |value| plus a bound on |exact|.  ``terms_used`` is K + J.

    Where the value falls below the normal float range (a factor
    ``1 - f_i`` that keeps only a subnormal imaginary part), either tail's
    bound is |value| plus a bound on |exact| (:func:`_below_normal`).
    Returns ``(value, terms_used, tail_bound, degenerate)``; a value past
    the float range has ``tail_bound = inf``.
    """
    p = 1.0 + 0.0j
    f = a
    for _ in range(n_big):
        p *= 1.0 - f
        f *= base
    err = n_fac * _C_FACTOR + 0.75 * n_big * (n_big - 1)
    m = abs(f)
    for i in range(n_big, n_fac):
        fac = 1.0 - f
        if m > 0.5:
            if fac == 0:
                return 0.0 + 0.0j, i + 1, *_zero_factor(a, p, err, i, base)
            err += i * m / abs(fac)
        else:  # |1 - f_i| >= 1 - |f_i| >= 1/2
            err += i * m / (1.0 - m * _TOP)
        p *= fac
        f *= base
        m *= base
    r = abs(f)
    if euler is not None:
        th, rev, tr, wt, den, v1, kappa = euler
        n = bisect_left(th, r)
        s = rev[-1 - n]
        for e in rev[-n:]:
            s = s * f + e
        err = (err + _C_PRODUCT if n_fac else 0.0) * _U  # p = 1 exactly if no factor
        rp = err / (1.0 - err)
        w = r * (v1 + r * wt[n])
        big = ((1.0 + w * (1.0 + n_fac * kappa)) * _U + tr[n] * r ** (n + 1)) \
            / (1.0 - (den[n] + 2.0 * n * n_fac) * _U)
        ms = abs(s)
        rs = big / (ms - big)
        rel = rp + rs + rp * rs
        used = n_fac + n
        try:
            value = p * s
            mod = abs(value)
        except OverflowError:  # past the float range
            return complex(math.inf, 0.0), used, math.inf, False
        if not (mod < math.inf and 0.0 <= rel < 1.0):
            return value, used, math.inf, False
        if mod >= _TINY:
            return value, used, mod * rel / (1.0 - rel), False
        return value, used, _below_normal(mod, p, rp, n_fac, ms + big), False
    inv = 1.0 / (1.0 - r)
    s = 0.0j
    xj, rj, bj, d = f, r, base, 1.0 - base
    j = 1
    while True:
        jd = j * d
        s += xj / jd
        j += 1
        xj *= f
        rj *= r
        bj *= base
        d = 1.0 - bj
        if rj * inv <= budget * j * d:  # the remainder from term j on
            break
    # The moduli r^j / (j (1 - base^j)) fall by a ratio r at least, from
    # r / (1 - base), and base^j / (1 - base^j) <= base / (1 - base).
    j -= 1
    first = r / (1.0 - base)
    err = (err + first * inv * ((n_fac + 3.0 + base / (1.0 - base)) * inv + j + 3.0)
           + _C_CLOSE) * _U
    rounding = err / (1.0 - err) if err < 1.0 else math.inf
    trunc = math.expm1(rj * inv / ((j + 1) * d))
    rel = trunc + rounding + trunc * rounding
    used = n_fac + j
    try:
        e = cmath.exp(-s)
        value = p * e
        mod = abs(value)
    except OverflowError:  # past the float range
        return complex(math.inf, 0.0), used, math.inf, False
    if not mod < math.inf or not rel < 1.0:
        return value, used, math.inf, False
    if mod >= _TINY and s.real < 708.0:  # exp(-s) >= e^-708, normal too
        return value, used, mod * rel, False
    # |exp(-s_exact)| <= exp(rel - s.real), as |s - s_exact| <= rel.
    if rel - s.real > 709.0:
        return value, used, math.inf, False
    return value, used, _below_normal(mod, p, rel, n_fac, math.exp(rel - s.real)), False


def _zero_factor(a: complex, p: complex, err: float, i: int,
                 base: float) -> tuple[float, bool]:
    """``(tail_bound, degenerate)`` of :func:`qpoch_infinite_kernel` where
    its factor ``1 - f_i`` is computed as exactly 0: ``(0.0, True)`` only
    where ``a base^i`` is exactly 1 (by the floats' integer ratios).  Else
    f_i = 1 is i roundings (u, or 2**-1075 per part below the normal range)
    off, so ``|1 - a base^i| <= z = g / (1 - g) + 2 i 2**-1074``, g = i u /
    (1 - i u); the factors after it are at most ``exp((1 + z) base /
    (1 - base))`` together, and :func:`_below_normal` bounds the product
    from those and p, ``err`` units off."""
    (n, d), (nb, db) = a.real.as_integer_ratio(), base.as_integer_ratio()
    if a.imag == 0 and n * nb ** i == d * db ** i:
        return 0.0, True
    g = i * _U / (1.0 - i * _U)
    z = g / (1.0 - g) + 2.0 * i * _SUB
    e = err * _U
    rest = (1.0 + z) * base / (1.0 - base)
    if not (2.0 * e < 1.0 and rest < 700.0):
        return math.inf, False
    return _below_normal(0.0, p, e / (1.0 - 2.0 * e), i, z * math.exp(rest)), False


def _below_normal(mod: float, p: complex, rel: float, n_fac: int, rest: float) -> float:
    """The bound of :func:`qpoch_infinite_kernel` on a value of modulus
    ``mod`` below the normal float range, where u bounds no rounding:
    ``mod`` plus a bound on |exact|, which is at most
    ``(|p| (1 + rel) + K 2**-1074) rest`` for ``rest`` a bound on the
    modulus of the exact tail product; K 2**-1074 covers the subnormal
    roundings of the K factors' product p."""
    exact = ((abs(p.real) + abs(p.imag)) * (1.0 + rel) + n_fac * _SUB) \
        * rest * (1.0 + 4.0 * _U)
    return mod + max(exact, _SUB)


#: Roundings (in u) of a step of :func:`phi21_kernel`: four subtractions, four
#: complex products (sqrt(5) u each) and a complex quotient (5 u), rounded up.
_C_STEP = 20.0


def _phi21_rounding(a: complex, b: complex, c: complex, base: float, n: int,
                    m: float, w: float, drift: float | None = None) -> float:
    """Bound on the rounding error of an n-term sum of :func:`phi21_kernel`
    with ``m = sum |t_j|``, ``w = sum j |t_j|`` over j >= 1 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3):
    ``u (_C_STEP w + D m + n m - w + n - 1) / (1 - K u)`` plus 16 (n - 1)
    subnormal spacings, D the drift of :func:`_phi21_drift` (``drift``,
    when the caller has it).  Term j is j steps of ``_C_STEP`` u and the
    drift D off, and takes part in n - j of the n - 1 additions (t_0 = 1
    in all): k_j <= K = (``_C_STEP`` + 1) n + D units, and
    ``k_j u / (1 - K u)`` is at least gamma_{k_j} = ``k_j u / (1 - k_j u)``,
    which bounds the term's error (Higham, Lemma 3.1).  0 for n = 1;
    ``inf`` if not finite or once ``K u >= 1``.
    """
    if n <= 1:
        return 0.0
    if drift is None:
        drift = _phi21_drift(a, b, c, base, n)
    ku = ((_C_STEP + 1.0) * n + drift) * _U
    if not ku < 1.0:
        return math.inf
    bound = _U * (_C_STEP * w + drift * m + n * m - w + n - 1) / (1.0 - ku) \
        + 16.0 * (n - 1) * _SUB
    return bound if bound < math.inf else math.inf


def _phi21_drift(a: complex, b: complex, c: complex, base: float, n: int) -> float:
    """The drift D of :func:`_phi21_rounding` for an n-term sum: the sum
    of ``i |f_i| / |1 - f_i|`` over the factors the terms use,
    f_i = x base^i (x = a, b, c, base) off by the i roundings of
    ``f *= base``: one by one while ``|f_i| > 1/2`` (f_0 is exact), then, as
    ``|1 - f_i| >= 1/2``, ``2 r (i + base / (1 - base)) / (1 - base)`` at
    the first ``r = |f_i| <= 1/2``.  It depends on the parameters and n
    only, so :func:`phi21_window_kernel` forms it once per n.
    """
    inv = 1.0 / (1.0 - base)
    ra, rb, rc, half = abs(a), abs(b), abs(c), 0.5 / base
    if ra <= half and rb <= half and rc <= half and base <= half:  # |f_i| <= 1/2
        return 2.0 * (ra + rb + rc + base) * base * inv * inv
    drift = 0.0
    for f in (a, b, c, base):
        i, r = 0, abs(f)
        while r > 0.5 and i < n - 1:
            fac = abs(1.0 - f)
            drift += i * r / fac if fac else math.inf
            i, f = i + 1, f * base
            r = abs(f)
        if i < n - 1:
            drift += 2.0 * r * (i + base * inv) * inv
    return drift


def _same_bits(x: complex, y: complex) -> bool:
    """``x`` and ``y`` are the same complex number bit for bit: equal, with
    the same signs of zero (``complex(1, 0.0) == complex(1, -0.0)``)."""
    return (x == y and math.copysign(1.0, x.real) == math.copysign(1.0, y.real)
            and math.copysign(1.0, x.imag) == math.copysign(1.0, y.imag))


def phi21_kernel(a: complex, b: complex, c: complex, base: float, z: complex,
                 n_exact: int, rel_tol: float, max_terms: int):
    """Sum the 2phi1 term recurrence.

    Terms follow t_0 = 1,
    t_{k+1} = t_k * (1 - a q^k)(1 - b q^k) / ((1 - c q^k)(1 - q^{k+1})) * z,
    each step rounded in that association order, ``base`` in (0, 1) and
    ``z`` of finite modulus.

    ``n_exact >= 0`` requests a terminating sum of exactly n_exact + 1
    terms (upper parameter snapped onto base**(-n_exact)), in a loop with
    no tail test; ``n_exact < 0`` sums until the geometric tail envelope
    drops below ``rel_tol`` times the partial sum (floored at 1e-300).
    Both stop early at a term that is exactly 0.  Returns
    ``(value, terms_used, tail_bound)``, with ``tail_bound = inf`` when
    max_terms was exhausted before the tail bound certified convergence
    (or before the last term of a terminating sum), or ``abs`` of a term or
    of the sum overflows, and for a value past the float range.
    ``tail_bound`` is the truncated tail (none for a terminating sum) plus
    the rounding (:func:`_phi21_rounding`, from the running ``sum |t_j|``
    and ``sum j |t_j|``); 0 only for ``n_exact = 0`` or z = 0.  The
    stopping rule counts the truncation only.

    The convergent sum takes the first of three loops that its inputs
    allow, each returning the general step's tuple bit for bit (in CPython's
    float-complex arithmetic up to 3.13, where a float operand is
    converted to ``complex(x, 0.0)``):

    * ``c == base`` (case 1, the coamen series, the smoothing nodes): the
      denominator is ``complex(d * d, 0.0)``, ``d = 1 - q^{k+1}``, carried
      as the real ``d * d``, and ``|c q^k|`` is ``q^{k+1}``;
    * ``a`` and ``b`` equal bit for bit (the closed form, the
      continuation): one factor and one modulus are formed for both
      (kept for speed: without it the slowest scalar evaluations, these
      sums among them, ran about 2% slower);
    * otherwise the general step.
    """
    s = 1.0 + 0.0j
    t, fa, fb, fc, fq = s, a, b, c, base
    k, m, w = 0, 0.0, 0.0
    try:
        if n_exact >= 0:
            for k in range(1, min(n_exact, max_terms) + 1):
                t = t * (1.0 - fa) * (1.0 - fb) / ((1.0 - fc) * (1.0 - fq)) * z
                s += t
                at = abs(t)
                if at == 0:
                    return s, k + 1, _phi21_rounding(a, b, c, base, k, m, w)
                m, w = m + at, w + k * at
                fa *= base
                fb *= base
                fc *= base
                fq *= base
            if k == n_exact:
                return s, k + 1, _phi21_rounding(a, b, c, base, k + 1, m, w)
            return s, k + 1, math.inf
        az = abs(z)
        if c == base:
            d = 1.0 - fq
            den = d * d
            while k < max_terms:
                t = t * (1.0 - fa) * (1.0 - fb) / den * z
                k += 1
                s += t
                at = abs(t)
                if at == 0:
                    return s, k + 1, _phi21_rounding(a, b, c, base, k, m, w)
                m, w = m + at, w + k * at
                fa *= base
                fb *= base
                fq *= base
                d = 1.0 - fq
                den = d * d
                r = az * (1.0 + abs(fa)) * (1.0 + abs(fb)) / den
                if r < 1.0:
                    tail = at * r / (1.0 - r)
                    ms = abs(s)
                    if tail <= rel_tol * (1e-300 if ms < 1e-300 else ms):
                        return s, k + 1, tail + _phi21_rounding(
                            a, b, c, base, k + 1, m, w)
        elif _same_bits(a, b):
            while k < max_terms:
                g = 1.0 - fa
                t = t * g * g / ((1.0 - fc) * (1.0 - fq)) * z
                k += 1
                s += t
                at = abs(t)
                if at == 0:
                    return s, k + 1, _phi21_rounding(a, b, c, base, k, m, w)
                m, w = m + at, w + k * at
                fa *= base
                fc *= base
                fq *= base
                bc = abs(fc)
                if bc < 1.0:
                    g = 1.0 + abs(fa)
                    r = az * g * g / ((1.0 - bc) * (1.0 - fq))
                    if r < 1.0:
                        tail = at * r / (1.0 - r)
                        ms = abs(s)
                        if tail <= rel_tol * (1e-300 if ms < 1e-300 else ms):
                            return s, k + 1, tail + _phi21_rounding(
                                a, b, c, base, k + 1, m, w)
        else:
            while k < max_terms:
                t = t * (1.0 - fa) * (1.0 - fb) / ((1.0 - fc) * (1.0 - fq)) * z
                k += 1
                s += t
                at = abs(t)
                if at == 0:
                    return s, k + 1, _phi21_rounding(a, b, c, base, k, m, w)
                m, w = m + at, w + k * at
                fa *= base
                fb *= base
                fc *= base
                fq *= base
                # sup over j >= k of |t_{j+1}/t_j|; valid once |c| base^k < 1
                bc = abs(fc)
                if bc < 1.0:
                    r = az * (1.0 + abs(fa)) * (1.0 + abs(fb)) / ((1.0 - bc) * (1.0 - fq))
                    if r < 1.0:
                        tail = at * r / (1.0 - r)
                        ms = abs(s)
                        if tail <= rel_tol * (1e-300 if ms < 1e-300 else ms):
                            return s, k + 1, tail + _phi21_rounding(
                                a, b, c, base, k + 1, m, w)
    except OverflowError:  # abs of a term or of the sum past the float range
        pass
    return s, k + 1, math.inf


def phi21_window_kernel(a: complex, b: complex, base: float, zs: list,
                        rel_tol: float, max_terms: int) -> list:
    """:func:`phi21_kernel`'s convergent sum (``n_exact < 0``) with ``c``
    equal to the base, at each argument z of ``zs``, in that order: one
    ``(value, terms_used, tail_bound)`` per z, that of
    ``phi21_kernel(a, b, base, base, z, -1, rel_tol, max_terms)`` bit for
    bit.

    What depends on a, b and base alone is formed once for the window: per
    step i the factors ``1 - a q^i``, ``1 - b q^i`` and the real denominator
    ``d * d``, ``d = 1 - q^{i+1}``, and the moduli ``1 + |a q^i|``,
    ``1 + |b q^i|`` of the tail test after step i - 1, in a table filled as
    far as the longest sum reaches; and the drift of
    :func:`_phi21_rounding`, once per term count.  Each sum then steps
    ``t = t * A * B / D * z`` and tests ``r = |z| * P * Q / D``: the
    kernel's ``c == base`` loop, on the kernel's values in the kernel's
    order.  An ``abs`` that overflows in a row ends every sum that reaches
    the row, as it ends the kernel's.
    """
    # rows[i]: (A, B, D) of step i, from fa = a q^i and fq = q^(i+1), then
    # (P, Q) of the tail test after step i - 1, whose denominator is D.
    # Row 0's test is never made.
    fa, fb, fq = a, b, base
    d = 1.0 - fq
    first = 1.0 - fa, 1.0 - fb, d * d
    rows = [(*first, None, None)]
    top = 1
    drifts = {}
    out = []
    for z in zs:
        s = t = 1.0 + 0.0j
        k = n = 0
        m = w = tail = 0.0
        A, B, D = first
        try:
            az = abs(z)
            while k < max_terms:
                t = t * A * B / D * z
                k += 1
                s += t
                at = abs(t)
                if at == 0:  # k terms, no tail
                    n, tail = k, 0.0
                    break
                m, w = m + at, w + k * at
                if k < top:
                    A, B, D, P, Q = rows[k]
                else:  # a new row; none is stored if an abs overflows
                    na, nb, nq = fa * base, fb * base, fq * base
                    d = 1.0 - nq
                    A, B, D = 1.0 - na, 1.0 - nb, d * d
                    P, Q = 1.0 + abs(na), 1.0 + abs(nb)
                    rows.append((A, B, D, P, Q))
                    fa, fb, fq, top = na, nb, nq, top + 1
                r = az * P * Q / D
                if r < 1.0:
                    tail = at * r / (1.0 - r)
                    ms = abs(s)
                    if tail <= rel_tol * (1e-300 if ms < 1e-300 else ms):
                        n = k + 1
                        break
            if n:  # certified: the tail and the rounding of n terms
                drift = drifts.get(n)
                if drift is None and n > 1:  # none for one term, as there
                    drift = drifts[n] = _phi21_drift(a, b, base, base, n)
                out.append((s, k + 1, tail + _phi21_rounding(a, b, base, base, n, m, w,
                                                             drift)))
                continue
        except OverflowError:  # abs of a term, of the sum or of a factor
            pass
        out.append((s, k + 1, math.inf))
    return out
