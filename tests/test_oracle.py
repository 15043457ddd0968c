"""Oracle tests: evaluators against an independent high-precision reference.

Each returned ``tail_bound`` must bound the actual error, rounding
included, with no allowance on top.  The reference is mpmath at 40
digits on formulas that share no code with the evaluator.
"""

import cmath
import math
import random

import pytest
from _mp_reference import (Reference, case1_reference, coamen_reference, explicit_qpoch,
                           phi21_reference)

from qsu11 import (
    EPS_POLE,
    IqPoint,
    QBase,
    QSU11Error,
    SpectralParam,
    approx_identity_gap,
    coamen_coeff,
    phi21_direct,
    phi21_heine,
    qpoch_infinite,
    qpoch_multi,
    spherical_az,
    spherical_window,
    symbol_clip_abs,
    uniform_sup_gap,
)
from qsu11.limitlab import _spectrum_window
from qsu11.qcalculus import _near_inv_power
from qsu11.su11core import _recurrence

#: The bases of the product sweep: the squares of the q values the suites
#: use (0.09, 0.25, 0.81), the bases of the theta identities (0.3, 0.5,
#: 0.8), and bases towards 1, 0.9025 and 0.98 on either side of the switch
#: from Euler's tail to the log series' (``qcalculus._EULER_BELOW``).
BASES = (0.09, 0.25, 0.3, 0.5, 0.64, 0.8, 0.81, 0.9, 0.9025, 0.98, 0.99)

#: Calls per base; every fourth is a qpoch_multi of three parameters.
CALLS = 170


def _parameter(rng, b, near_pole):
    """A seeded parameter: |a| log-uniform in [1e-6, 1e8], or (near_pole)
    ``b**-j (1 + d)`` with |d| log-uniform in [1e-12, 1e-2], so that one
    factor ``1 - a b^j`` loses up to 12 of its leading digits.  Phases are
    0, pi or uniform."""
    phase = rng.choice((0.0, math.pi, rng.uniform(-math.pi, math.pi)))
    if near_pole:
        j = rng.randint(0, int(math.log(1e8) / -math.log(b)))
        return b ** -j * (1.0 + 10.0 ** rng.uniform(-12.0, -2.0) * cmath.exp(1j * phase))
    return 10.0 ** rng.uniform(-6.0, 8.0) * cmath.exp(1j * phase)


def _zero_parameter(rng, b):
    """A seeded parameter near a zero of the product: ``b**-j (1 + d)``,
    j = 0..3, |d| log-uniform in [1e-9, 1e-3], so that the factor
    ``1 - a b^j`` is within |d| of 0; every third one instead |a|
    log-uniform in [1e-3, 1e3].  Phases are uniform."""
    if rng.random() < 1.0 / 3.0:
        return 10.0 ** rng.uniform(-3.0, 3.0) * _phase(rng)
    return b ** -rng.randint(0, 3) * (1.0 + 10.0 ** rng.uniform(-9.0, -3.0) * _phase(rng))


@pytest.mark.parametrize("b", BASES)
def test_products_within_their_tail_bound(b):
    """qpoch_infinite and qpoch_multi at tol log-uniform in [1e-16, 1e-3]:
    |value - explicit product| <= tail_bound, or, for a value past the float
    range, tail_bound = inf.  Then 60 qpoch_infinite calls at the
    parameters of :func:`_zero_parameter`, from a stream of their own."""
    mp = pytest.importorskip("mpmath").mp
    rng = random.Random(f"qpoch-{b}")
    zeros = random.Random(f"qpoch-zeros-{b}")
    drawn = checked = 0
    with mp.workdps(40):
        for i in range(CALLS + 60):
            if i < CALLS:
                tol = 10.0 ** rng.uniform(-16.0, -3.0)
                args = []
                for _ in range(3 if i % 4 == 0 else 1):
                    args.append(_parameter(rng, b, drawn % 5 == 0))
                    drawn += 1
            else:
                tol = 10.0 ** zeros.uniform(-16.0, -3.0)
                args = [_zero_parameter(zeros, b)]
            ev = qpoch_infinite(args[0], b, tol) if len(args) == 1 \
                else qpoch_multi(args, b, tol)
            if not math.isfinite(math.hypot(ev.value.real, ev.value.imag)):
                assert ev.tail_bound == math.inf, (args, tol)
                continue
            ref = mp.fprod(explicit_qpoch(mp, a, b) for a in args)
            assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (args, tol, ev)
            checked += 1
    assert checked >= CALLS // 3  # values past the float range aside


#: Arguments within less than 2**-160 of the zero b**0 = 1 of (a; b)_inf,
#: one per branch: Euler's tail with a normal value, Euler's and the log
#: series' with a value below the normal range.
NEAR_ZEROS = ((0.9, complex(1.0, 1e-300)), (0.9025, complex(1.0, 1e-310)),
              (0.99, complex(1.0, -1e-300)))


@pytest.mark.parametrize("b, a", NEAR_ZEROS, ids=("0.9", "0.9025", "0.99"))
def test_products_near_a_zero_within_their_tail_bound(b, a):
    """qpoch_infinite at an offset from a zero that only an exact reference
    resolves: |value - explicit product| <= tail_bound at tol 1e-16 to
    1e-3, and the reference is not 0."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        ref = explicit_qpoch(mp, a, b)
        assert ref != 0
        for tol in (1e-16, 1e-12, 1e-6, 1e-3):
            ev = qpoch_infinite(a, b, tol)
            assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (tol, ev)


#: Arguments a at which a factor ``1 - a b^i``, i >= 1, is computed exactly
#: 0 although ``a b^i`` carries i roundings, so the product is not 0: i = 1
#: at b = 0.9, 0.81 and 0.3 (a = 1/b), and at b = 0.25, i = 2 for
#: a = 16 + 5e-324j, whose offset underflows in ``a b^2``.
COMPUTED_ZEROS = ((0.9, 1 / 0.9), (0.81, 1 / 0.81), (0.3, 1 / 0.3),
                  (0.25, complex(16.0, 5e-324)))


@pytest.mark.parametrize("b, a", COMPUTED_ZEROS, ids=("0.9", "0.81", "0.3", "0.25"))
def test_computed_zero_factors_within_their_tail_bound(b, a):
    """qpoch_infinite where a factor is computed as exactly 0: the value 0
    is returned as an inexact zero (not ``degenerate``) with a finite
    ``tail_bound`` that bounds |explicit product|, at tol 1e-16 to 1e-3."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        ref = explicit_qpoch(mp, a, b)
        assert ref != 0
        for tol in (1e-16, 1e-12, 1e-6, 1e-3):
            ev = qpoch_infinite(a, b, tol)
            assert ev.value == 0 and not ev.degenerate, (tol, ev)
            assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound < math.inf, (tol, ev)


#: The q of the series sweep.
SERIES_QS = (0.3, 0.5, 0.7, 0.9)


def _disc(rng, radius):
    return cmath.rect(radius * rng.random(), rng.uniform(-math.pi, math.pi))


def _phase(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _near_lattice(rng, q, jmax, lo, hi):
    """``q^-j (1 + d)``, j in [0, jmax], |d| log-uniform in [10^lo, 10^hi]:
    the factor ``1 - x q^j`` of a parameter x there is within |d| of 0."""
    return q ** -rng.randint(0, jmax) * (1.0 + 10.0 ** rng.uniform(lo, hi) * _phase(rng))


def _lattice_distance(lam, q):
    """``min |lam^2 / q^(2j) - 1|`` over integers j."""
    w, q2 = lam * lam, q * q
    t = round(math.log(abs(w)) / math.log(q2))
    return min(abs(w / q2 ** j - 1.0) for j in (t - 1, t, t + 1))


def _strip_point(rng, base):
    """A seeded SpectralParam: Re z in [-1.5, 1.5], |Im z| <= period / 2,
    with lam^2 at relative distance >= 1e-2 from every q^(2j)."""
    while True:
        zp = SpectralParam.from_z(complex(rng.uniform(-1.5, 1.5), rng.uniform(
            -base.period / 2, base.period / 2)), base)
        if _lattice_distance(zp.lam, base.q) >= 1e-2:
            return zp


def _band_point(rng, base):
    """A seeded SpectralParam in the band 1e-9 < |lam^2 - q^(2j)| / q^(2j)
    < 1e-2 around q^(2j), j = -1, 0, 1 (lam^2 = 1 is z = 0), the distance
    log-uniform and its phase uniform."""
    q = base.q
    while True:
        w = q ** (2 * rng.randint(-1, 1)) * (1.0 + 10.0 ** rng.uniform(-9.0, -2.0)
                                             * _phase(rng))
        zp = SpectralParam.from_z(cmath.log(w) / (2.0 * math.log(q)), base)
        if 1e-9 < _lattice_distance(zp.lam, q) < 1e-2:
            return zp


def _assert_within(mp, calls, least):
    """Each certified ``(ev, reference thunk, label)`` of ``calls`` has
    |ev.value - reference| <= ev.tail_bound, with no allowance; at least
    ``least`` of them are certified."""
    checked = 0
    with mp.workdps(40):
        for ev, ref, label in calls:
            if not ev.tail_bound < math.inf:
                continue
            assert abs(mp.mpc(ev.value) - ref()) <= ev.tail_bound, (label, ev)
            checked += 1
    assert checked >= least


def _guarded(call, *args, **kwargs):
    """``call(*args, **kwargs)``, or None where it is refused."""
    try:
        return call(*args, **kwargs)
    except QSU11Error:
        return None


def _series_calls(mp, q, evaluator, seed, draw):
    """``evaluator(a, b, c, q, z, tol)`` at 16 seeded ``draw(rng, i)`` with
    tol log-uniform in [1e-16, 1e-6], beside its reference."""
    rng = random.Random(f"{seed}-{q}")
    calls = []
    for i in range(16):
        a, b, c, z = draw(rng, i)
        ev = _guarded(evaluator, a, b, c, q, z, tol=10.0 ** rng.uniform(-16.0, -6.0))
        if ev is not None:
            calls.append((ev, lambda a=a, b=b, c=c, z=z: phi21_reference(
                mp, a, b, c, q, z), (a, b, c, z)))
    return calls


@pytest.mark.parametrize("q", SERIES_QS)
def test_phi21_direct_within_its_tail_bound(q):
    """phi21_direct at base q: a and b in the disc of radius 2, every
    fourth a near ``q^-j`` (a factor ``1 - a q^j`` within 1e-8 to 1e-2 of
    0), c in the disc of radius 0.9, c = q, or c near ``q^-j`` (a factor
    ``1 - c q^j`` within 1e-8 to 1e-3 of 0, which the later terms divide
    by), |z| <= 0.8."""
    mp = pytest.importorskip("mpmath").mp

    def draw(rng, i):
        a, b, c, z = _disc(rng, 2.0), _disc(rng, 2.0), _disc(rng, 0.9), _disc(rng, 0.8)
        if i % 4 == 0:
            a = _near_lattice(rng, q, 6, -8.0, -2.0)
        if i % 3 == 0:
            c = q
        elif i % 4 == 1:
            c = _near_lattice(rng, q, 3, -8.0, -3.0) / q
        return a, b, c, z

    _assert_within(mp, _series_calls(mp, q, phi21_direct, "phi21-direct", draw), 10)


@pytest.mark.parametrize("q", SERIES_QS)
def test_phi21_heine_within_its_tail_bound(q):
    """phi21_heine at base q past the unit disc: |z| log-uniform in
    [1, 10^1.5], a in the disc of radius 2, b and c in that of radius 0.7."""
    mp = pytest.importorskip("mpmath").mp

    def draw(rng, i):
        a, b, c = _disc(rng, 2.0), _disc(rng, 0.7), _disc(rng, 0.7)
        return a, b, c, 10.0 ** rng.uniform(0.0, 1.5) * _phase(rng)

    _assert_within(mp, _series_calls(mp, q, phi21_heine, "phi21-heine", draw), 10)


@pytest.mark.parametrize("band", (False, True), ids=("strip", "band"))
@pytest.mark.parametrize("q", SERIES_QS)
def test_coamen_within_its_tail_bound(q, band):
    """coamen_coeff in both forms at m in [-2, 2] and L in [-6, 12], both
    sides of the direct/Heine switch, lam from the strip or the band."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    rng = random.Random(f"coamen-{q}-{band}")
    calls = []
    for _ in range(8):
        lam = (_band_point if band else _strip_point)(rng, base).lam
        m, L = rng.randint(-2, 2), rng.randint(-6, 12)
        for form in ("simplified", "raw"):
            ev = _guarded(coamen_coeff, base, m, lam, IqPoint.positive(L), form=form)
            if ev is not None:
                calls.append((ev, lambda lam=lam, m=m, L=L: coamen_reference(
                    mp, q, m, lam, L), (lam, m, L, form)))
    _assert_within(mp, calls, 4)  # at q = 0.9 Heine refuses |b| >= 1


def _spherical_calls(mp, base, zp, p):
    """``[(spherical_az, reference thunk, label)]`` at one point, or [] where
    it is refused: case 1 against its 2phi1 at the float lam, cases 2 and 3
    against their closed forms (:class:`_mp_reference.Reference`)."""
    ev = _guarded(spherical_az, base, zp, p)
    if ev is None:
        return []
    if p.sign > 0 and p.exponent <= 0:
        def ref():
            return case1_reference(mp, base.q, zp.lam, p.exponent)
    else:
        def ref():
            return Reference(mp, base.q, zp.lam)(p.sign, p.exponent)
    return [(ev, ref, (zp.z, p))]


def _case_point(rng, case):
    """A seeded point of case 1 (+q^k, k in [-6, 0]), 2 (+q^k) or 3 (-q^k),
    k in [1, 12]."""
    if case == 1:
        return IqPoint.positive(rng.randint(-6, 0))
    return IqPoint(1 if case == 2 else -1, rng.randint(1, 12))


@pytest.mark.parametrize("case", (1, 2, 3))
@pytest.mark.parametrize("q", SERIES_QS)
def test_spherical_within_its_tail_bound(q, case):
    """spherical_az cases 1-3 on the strip of the spectral parameter."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    rng = random.Random(f"spherical-{q}-{case}")
    calls = []
    for _ in range(6):
        zp = _strip_point(rng, base)
        calls += _spherical_calls(mp, base, zp, _case_point(rng, case))
    _assert_within(mp, calls, 6)


@pytest.mark.parametrize("case", (1, 2, 3))
@pytest.mark.parametrize("q", SERIES_QS)
def test_spherical_band_within_its_tail_bound(q, case):
    """spherical_az cases 1-3 with lam^2 in the band 1e-9 < d < 1e-2 around
    the lattice q^(2Z), where the two-term forms' factors 1 - f come within
    d of 0.  Case 1 is summed in full there, also where q/lam or lam q is
    within EPS_POLE of a power of q^-2 (the slice below)."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    rng = random.Random(f"band-{q}-{case}")
    calls = []
    for _ in range(6):
        zp = _band_point(rng, base)
        calls += _spherical_calls(mp, base, zp, _case_point(rng, case))
    _assert_within(mp, calls, 4)


@pytest.mark.parametrize("q", SERIES_QS)
def test_spherical_band_snap_slice_within_its_tail_bound(q):
    """Case 1 at lam = q^(2n+1) (1 + d), 5e-10 < |d| < 1e-9: lam^2 is in the
    band, and q/lam within EPS_POLE of q^(-2n), where phi21_direct would
    snap the series onto the terminating one.  Case 1 sums it in full: the
    value is within its bound of the full series at the float lam."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    rng = random.Random(f"snap-{q}")
    calls = []
    for _ in range(4):
        n = rng.randint(0, 2)
        lam = q ** (2 * n + 1) * (1.0 + 10.0 ** rng.uniform(-9.3, -9.0) * _phase(rng))
        zp = SpectralParam(0j, lam, (lam + 1.0 / lam) / 2.0)
        assert _near_inv_power(q / lam, q * q) == n
        calls += _spherical_calls(mp, base, zp, IqPoint.positive(rng.randint(-4, 0)))
    _assert_within(mp, calls, 4)


@pytest.mark.parametrize("q", (0.5, 0.9))
def test_closed_form_sliver_summed_in_full(q):
    """Cases 2 and 3 at lam = q^j (1 + d), j = -3, -1, 1, 3, 0.55 EPS_POLE
    < |d| < 0.95 EPS_POLE: lam^2 is between EPS_POLE and 2 EPS_POLE from
    q^(2Z), so the pole guard passes, and q/u (u = lam or 1/lam) within
    EPS_POLE of a power of q^-2, where phi21_direct would snap the closed
    form's series onto the terminating one.  Summed in full, each value
    is within its bound and within 1e-11 of the closed forms at 60 digits
    (snapped, the errors were 1e-10 to 3.5e-9 relative)."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    rng = random.Random(f"sliver-{q}")
    checked = 0
    with mp.workdps(60):
        for j in (-3, -1, 1, 3):
            for _ in range(2):
                lam = q ** j * (1.0 + rng.uniform(0.55, 0.95) * EPS_POLE * _phase(rng))
                assert EPS_POLE < _lattice_distance(lam, q) <= 2.0 * EPS_POLE
                u = lam if j > 0 else 1.0 / lam
                assert _near_inv_power(q / u, q * q) == (abs(j) - 1) // 2
                zp = SpectralParam(0j, lam, (lam + 1.0 / lam) / 2.0)
                closed = Reference(mp, q, lam)
                for sign in (1, -1):
                    k = rng.randint(1, 8)
                    ev = spherical_az(base, zp, IqPoint(sign, k))
                    ref = closed(sign, k)
                    err = abs(mp.mpc(ev.value) - ref)
                    assert err <= ev.tail_bound, (lam, sign, k, ev)
                    assert err <= 1e-11 * abs(ref), (lam, sign, k, ev)
                    checked += 1
    assert checked == 16


#: Spectral parameters within 1e-12 to 7e-10 of z = 0, +-1 and 2: lam^2 is
#: within EPS_POLE of q^(2Z), where the closed form refuses, and near
#: z = +-1 q/lam or lam q is within EPS_POLE of q^0.
NEAR_LATTICE_ZS = (1 + 1e-12, 1 - 7e-10, -1 + 5e-10, -1 - 1e-12, 1e-10, 2 + 1e-10)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_positive_windows_near_the_lattice_within_their_tail_bound(q):
    """spherical_window on the positive branch, k = 1..8, at each z of
    ``NEAR_LATTICE_ZS``: the recurrence in k, seeded by case 1 summed in
    full, fills every window, and each value is within its bound of the
    closed forms (:class:`_mp_reference.Reference`) at 60 digits, whose
    two terms cancel near the lattice."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    with mp.workdps(60):
        for z in NEAR_LATTICE_ZS:
            zp = SpectralParam.from_z(z, base)
            window = spherical_window(base, zp, 1, range(1, 9))
            assert len(_recurrence(base, zp.lam, 1, 1, 8, 1e-12, 200)) == 8, z
            refs = Reference(mp, q, zp.lam).window(1, range(1, 9))
            for k, ev, ref in zip(range(1, 9), window, refs):
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (z, k, ev)


@pytest.mark.parametrize("q, weighted", ((0.5, False), (0.9, False), (0.5, True)),
                         ids=("uniform-0.5", "uniform-0.9", "clip_abs-0.5"))
def test_certified_gaps_bound_the_exact_sup(q, weighted):
    """uniform_sup_gap, and approx_identity_gap with the clip_abs symbol,
    at z = 0.9 and 0.99, depth 6: each gap is at least the exact sup of
    |a_z(p) - 1| |sym(p)| over its window (40 digits: case 1 by its
    2phi1, cases 2 and 3 by their closed forms), and above it by at most
    twice the window's largest tail_bound (the weights are at most 1)."""
    mp = pytest.importorskip("mpmath").mp
    base = QBase(q)
    sym = symbol_clip_abs()
    for z in (0.9, 0.99):
        zp = SpectralParam.from_z(z, base)
        window = [(p, ev) for p, ev in _spectrum_window(base, zp, 6)
                  if weighted or (p.sign > 0 and p.exponent <= 0)]
        if weighted:
            gap = approx_identity_gap(base, zp, sym, 6).gap
        else:
            gap = uniform_sup_gap(base, zp, 6)
        with mp.workdps(40):
            closed = Reference(mp, q, zp.lam)
            exact = max(
                abs((case1_reference(mp, q, zp.lam, p.exponent)
                     if p.sign > 0 and p.exponent <= 0
                     else closed(p.sign, p.exponent)) - 1)
                * (abs(sym.eval(p, base)) if weighted else 1)
                for p, _ in window)
            slack = max(ev.tail_bound for _, ev in window)
            assert exact <= gap <= exact + 2 * slack, (z, gap, exact, slack)
