"""Unit tests for the spectrum points and matrix-coefficient evaluators."""

import cmath
import itertools
import math
import random
import sys

import pytest
from _mp_reference import Reference, coamen_reference

from qsu11 import (
    InvalidArgumentError,
    IqPoint,
    PoleGuardError,
    PoleInCError,
    QBase,
    SpectralParam,
    approx_identity_gap,
    averaged_coamen,
    coamen_coeff,
    limit_sweep,
    phi21_continued,
    phi21_direct,
    phi21_heine,
    RunConfig,
    SeriesEval,
    qcalculus,
    qpoch_infinite,
    qpoch_multi,
    qpoch_signed,
    spherical_az,
    spherical_window,
    structural_maps,
    symbol_clip_abs,
    theta_pair,
)
from qsu11 import su11core
from qsu11.qcalculus import _near_inv_power
from qsu11.su11core import _closed_form, _coamen_window, _recurrence, nu_exponent

B = QBase(0.5)


class TestIqPoint:
    def test_positive_any_exponent(self):
        for k in (-5, 0, 3):
            p = IqPoint.positive(k)
            assert p.sign == 1 and p.exponent == k

    def test_negative_needs_positive_exponent(self):
        assert IqPoint.negative(1).value(B) == -0.5
        for k in (0, -1):
            with pytest.raises(InvalidArgumentError):
                IqPoint.negative(k)

    def test_bad_sign(self):
        with pytest.raises(InvalidArgumentError):
            IqPoint(2, 0)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("exponent", (2.5, 2.0, "2", None))
    def test_non_integer_exponent_refused(self, sign, exponent):
        # IqPoint(1, 2.5) was a point off the lattice: structural_maps gave
        # chi = 2.5 and spherical_az a value at +q^2.5.
        with pytest.raises(InvalidArgumentError, match="exponent must be an integer"):
            IqPoint(sign, exponent)

    def test_value_and_shift(self):
        p = IqPoint.positive(-2)
        assert p.value(B) == 4.0
        assert p.shifted(3) == IqPoint.positive(1)
        assert IqPoint.negative(2).shifted(-1) == IqPoint.negative(1)


class TestStructuralMaps:
    def test_nu_exponent_table(self):
        assert [nu_exponent(k) for k in (-1, 0, 1, 2, 3, 5)] == [3, 1, 0, 0, 1, 6]

    def test_unit_point(self):
        sm = structural_maps(IqPoint.positive(0), B)
        assert (sm.value, sm.kappa, sm.chi, sm.nu) == (1.0, 1.0, 0, 0.5)

    def test_positive_point(self):
        sm = structural_maps(IqPoint.positive(2), B)
        assert (sm.value, sm.kappa, sm.chi, sm.nu) == (0.25, 0.0625, 2, 1.0)

    def test_negative_point(self):
        sm = structural_maps(IqPoint.negative(1), B)
        assert (sm.value, sm.kappa, sm.chi, sm.nu) == (-0.5, -0.25, 1, 1.0)


class TestSpectralParam:
    def test_real_z_gives_real_lambda(self):
        zp = SpectralParam.from_z(0.37, B)
        assert zp.lam.imag == 0.0
        assert zp.lam.real == pytest.approx(0.5 ** 0.37, rel=1e-15)

    def test_x_is_symmetrised_lambda(self):
        zp = SpectralParam.from_z(0.3 + 0.9j, B)
        assert zp.x == (zp.lam + 1.0 / zp.lam) / 2.0

    @pytest.mark.parametrize("mult", [1, 2, 4])
    def test_period_reduction_is_bit_exact(self, mult):
        z = 0.35
        a = SpectralParam.from_z(complex(z, 0.0), B)
        b = SpectralParam.from_z(complex(z, mult * B.period), B)
        assert a.lam == b.lam

    def test_unitary_range_modulus_one(self):
        zp = SpectralParam.from_z(1.23j, B)
        assert abs(zp.lam) == pytest.approx(1.0, rel=1e-15)


class TestSphericalCase1:
    @pytest.mark.parametrize("k", range(-6, 1))
    def test_exact_one_at_endpoint(self, k):
        zp = SpectralParam.from_z(1.0, B)
        ev = spherical_az(B, zp, IqPoint.positive(k))
        assert ev.value == 1.0
        assert ev.tail_bound == 0.0

    def test_matches_direct_series(self):
        zp = SpectralParam.from_z(0.7, B)
        lam = zp.lam
        q = B.q
        ev = spherical_az(B, zp, IqPoint.positive(-2))
        ref = phi21_direct(q / lam, lam * q, q * q, q * q, -q ** 6)
        assert ev.value == ref.value

    def test_no_pole_guard_needed(self):
        # lam = 1 sits on the continuation pole set but Case 1 is direct
        zp = SpectralParam.from_z(0.0, B)
        ev = spherical_az(B, zp, IqPoint.positive(0))
        assert math.isfinite(abs(ev.value))


def _case2_zs(seed, count):
    """Seeded z at q = 0.5: ``count`` on the strip, then ``count`` each with
    lam**2 = q^{2z} within 1e-4 to 1e-7 (relative) of 1 and of q^2."""
    rng = random.Random(seed)
    zs = [pytest.param(complex(rng.uniform(-2.0, 2.0),
                               rng.uniform(-B.period / 2, B.period / 2)), id=f"strip{i}")
          for i in range(count)]
    for j, name in ((0, "near1"), (1, "nearq2")):
        for i in range(count):
            d = rng.choice((1, -1)) * 10.0 ** rng.uniform(-7.0, -4.0)
            z = j + cmath.log(1.0 + d * cmath.exp(1j * rng.uniform(0, math.pi))) \
                / (2.0 * B.log_q)
            zs.append(pytest.param(z, id=f"{name}_{i}"))
    return zs


class TestSphericalCase2:
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("z", [0.7] + _case2_zs(2201, 4))
    def test_matches_continuation(self, z, k):
        zp = SpectralParam.from_z(z, B)
        ev = spherical_az(B, zp, IqPoint.positive(k))
        ref = phi21_continued(zp.lam, B.q ** (2 * k), B)
        # One two-term sum, its coefficient formed by the theta shift and
        # by the theta quotient: they agree within both certificates.
        assert abs(ev.value - ref.value) <= ev.tail_bound + ref.tail_bound

    def test_near_limit_value(self):
        zp = SpectralParam.from_z(0.999, B)
        ev = spherical_az(B, zp, IqPoint.positive(3))
        assert abs(ev.value - 1.0) < 5e-3

    # lam**2 = q**(2z) sits on the pole lattice at every integer z.
    @pytest.mark.parametrize("k", (1, 2, 3, 6))
    @pytest.mark.parametrize("z", (-2, -1, 0, 1, 2))
    def test_pole_guard_at_integer_z(self, z, k):
        zp = SpectralParam.from_z(z, B)
        with pytest.raises(PoleGuardError, match="continuation is singular"):
            spherical_az(B, zp, IqPoint.positive(k))


class TestSphericalCase3:
    def test_near_limit_value(self):
        zp = SpectralParam.from_z(0.999, B)
        ev = spherical_az(B, zp, IqPoint.negative(2))
        assert abs(ev.value - 1.0) < 0.05

    def test_tighter_limit_chain(self):
        devs = []
        for z in (0.9, 0.99, 0.999):
            zp = SpectralParam.from_z(z, B)
            devs.append(abs(spherical_az(B, zp, IqPoint.negative(3)).value - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 5e-3

    @pytest.mark.parametrize("k", (1, 2, 3, 6))
    @pytest.mark.parametrize("z", (-2, -1, 0, 1, 2))
    def test_pole_guard_at_integer_z(self, z, k):
        zp = SpectralParam.from_z(z, B)
        with pytest.raises(PoleGuardError, match="continuation is singular"):
            spherical_az(B, zp, IqPoint.negative(k))


class TestSphericalShared:
    def test_zero_lambda_rejected(self):
        zp = SpectralParam(0.0, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            spherical_az(B, zp, IqPoint.positive(0))

    # |lam| = q**Re z is a float, but at q = 0.5 lam**2 falls below the
    # normal float range from Re z = 511, with too few bits for the
    # guard's relative test (537.4, 520.3), and underflows to 0 from about
    # 537.5: the lam**2 pole guard refuses it before any product.
    @pytest.mark.parametrize("z", (540, 1020, complex(700.5, 3.0), 537.4, 520.3))
    @pytest.mark.parametrize("evaluate", (
        lambda zp: spherical_az(B, zp, IqPoint.positive(1)),
        lambda zp: spherical_az(B, zp, IqPoint.negative(2)),
        lambda zp: spherical_window(B, zp, 1, range(1, 4)),
        lambda zp: spherical_window(B, zp, -1, range(1, 4)),
        lambda zp: approx_identity_gap(B, zp, symbol_clip_abs(), 3),
        lambda zp: phi21_continued(zp.lam, 0.25, B),
    ), ids=("case2", "case3", "window+", "window-", "approx_identity_gap",
            "phi21_continued"))
    def test_lam_squared_underflow_refused(self, z, evaluate, monkeypatch):
        zp = SpectralParam.from_z(z, B)
        assert zp.lam != 0 and abs(zp.lam * zp.lam) < sys.float_info.min

        def no_product(*args):
            raise AssertionError("a product was summed")

        # Every product, qpoch_multi's included, goes through this routine.
        monkeypatch.setattr(qcalculus, "_qpoch_product", no_product)
        with pytest.raises(InvalidArgumentError,
                           match=r"lam\*\*2 underflows below the normal"):
            evaluate(zp)

    @pytest.mark.parametrize("p", [IqPoint.positive(0), IqPoint.positive(3),
                                   IqPoint.negative(2)])
    def test_periodicity_is_exact(self, p):
        za = SpectralParam.from_z(complex(0.35, 0.0), B)
        zb = SpectralParam.from_z(complex(0.35, 2 * B.period), B)
        assert spherical_az(B, za, p).value == spherical_az(B, zb, p).value

    @pytest.mark.parametrize("p", [IqPoint.positive(-3), IqPoint.positive(0),
                                   IqPoint.positive(2), IqPoint.negative(1)])
    def test_real_values_on_real_z(self, p):
        zp = SpectralParam.from_z(0.5, B)
        assert abs(spherical_az(B, zp, p).value.imag) < 1e-10


def _oracle_points(base, count, seed=7):
    """Seeded ``(z, k)``: Re z in [-1.5, 1.5], |Im z| <= period / 2, k in
    1..12, with lam**2 at relative distance >= 1e-2 from every q**(2j)."""
    rng = random.Random(seed)
    q2 = base.q * base.q
    points = []
    while len(points) < count:
        z = complex(rng.uniform(-1.5, 1.5),
                    rng.uniform(-base.period / 2, base.period / 2))
        lam2 = SpectralParam.from_z(z, base).lam ** 2
        if min(abs(lam2 / q2 ** j - 1.0) for j in range(-3, 4)) >= 1e-2:
            points.append((z, rng.randint(1, 12)))
    return points


class TestContinuedCasesOracle:
    """Cases 2 and 3 against their closed forms evaluated by mpmath at 40
    digits, an evaluation that shares no code with the library's."""

    @pytest.mark.parametrize("sign", (1, -1), ids=("case2", "case3"))
    @pytest.mark.parametrize("q", (0.5, 0.41))
    def test_error_within_the_certificate(self, q, sign):
        mp = pytest.importorskip("mpmath").mp
        base = QBase(q)
        with mp.workdps(40):
            for z, k in _oracle_points(base, 40):
                zp = SpectralParam.from_z(z, base)
                ev = spherical_az(base, zp, IqPoint(sign, k))
                ref = Reference(mp, q, zp.lam)(sign, k)
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (z, k)

    @pytest.mark.parametrize("sign", (1, -1), ids=("case2", "case3"))
    @pytest.mark.parametrize("q", (0.5, 0.41))
    def test_window_error_within_the_certificate(self, q, sign):
        # Recurrence values and the closed-form values after a fallback:
        # every certificate must hold.
        mp = pytest.importorskip("mpmath").mp
        base = QBase(q)
        ks = range(1, 11)
        with mp.workdps(40):
            for z, _ in _oracle_points(base, 3, seed=8):
                zp = SpectralParam.from_z(z, base)
                refs = Reference(mp, q, zp.lam).window(sign, ks)
                for k, ev, ref in zip(ks, spherical_window(base, zp, sign, ks),
                                      refs):
                    assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (z, k)


def _recurrence_zs(base, seed):
    """One z from [0.9, 1), the lattice experiments' domain, and one from
    the strip of :func:`_oracle_points`."""
    return [random.Random(seed).uniform(0.9, 1.0),
            _oracle_points(base, 1, seed=seed)[0][0]]


class TestRecurrenceOracle:
    """Window values filled by the three-term recurrence in k against the
    closed forms at 40 digits.  Their running bound covers the rounding
    too, so the error must be within ``tail_bound`` with no slack."""

    @pytest.mark.parametrize("q", (0.41, 0.5, 0.56, 0.9))
    def test_error_within_the_running_bound(self, q):
        mp = pytest.importorskip("mpmath").mp
        base = QBase(q)
        ks = range(1, 25)
        filled = 0
        with mp.workdps(40):
            for z in _recurrence_zs(base, 12):
                zp = SpectralParam.from_z(z, base)
                ref = Reference(mp, q, zp.lam)
                for sign in (1, -1):
                    values = _recurrence(base, zp.lam, sign, 1, 24, 1e-12, 200)
                    window = spherical_window(base, zp, sign, ks)
                    assert [repr(ev) for ev in window[:len(values)]] \
                        == [repr(ev) for ev in values]
                    if not values:
                        continue
                    refs = ref.window(sign, ks[:len(values)])
                    for k, ev, r in zip(ks, values, refs):
                        assert abs(mp.mpc(ev.value) - r) <= ev.tail_bound, \
                            (z, sign, k)
                    filled += len(values)
        assert filled >= (90 if q < 0.9 else 52)

    #: (sign, z, exponents, case-1 count, recurrence count) at q = 0.9:
    #: the bound passes tol after three exponents on the positive branch
    #: at z = 2i and after two on the negative one at z = 0.99.
    FALLBACKS = ((1, 2j, range(-12, 13), 13, 3), (-1, 0.99, range(1, 13), 0, 2))

    def test_fallback_is_the_closed_form_window(self):
        # The rest of each window is the closed-form window.
        base = QBase(0.9)
        for sign, z, ks, n1, count in self.FALLBACKS:
            zp = SpectralParam.from_z(z, base)
            window = spherical_window(base, zp, sign, ks)
            values = _recurrence(base, zp.lam, sign, 1, 12, 1e-12, 200)
            assert len(values) == count
            rest = list(ks)[n1 + len(values):]
            assert [repr(ev) for ev in window[n1 + len(values):]] == [
                repr(ev) for ev in _closed_form(base, zp.lam, sign, rest, 1e-12, 200)]

    def test_fallback_values_are_spherical_az(self):
        # The closed form's products do not depend on k, so each value
        # after the fallback is the pointwise one, bit for bit.
        base = QBase(0.9)
        for sign, z, ks, n1, _ in self.FALLBACKS:
            zp = SpectralParam.from_z(z, base)
            window = spherical_window(base, zp, sign, ks)
            filled = n1 + len(_recurrence(base, zp.lam, sign, 1, 12, 1e-12, 200))
            assert filled < len(ks)
            for k, ev in list(zip(ks, window))[filled:]:
                assert repr(ev) == repr(spherical_az(base, zp, IqPoint(sign, k))), k

    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_double_root(self, q):
        # At z = 0 (lam = 1) the roots q lam and q/lam of the limit
        # recurrence coincide; the positive branch still fills k = 1..24,
        # within its bound of the closed forms at lam = 1 + 1e-30, 80
        # digits.  At z = 1 every filled a(+q^k) is 1.
        mp = pytest.importorskip("mpmath").mp
        base = QBase(q)
        ks = range(1, 25)
        lam = SpectralParam.from_z(0.0, base).lam
        values = _recurrence(base, lam, 1, 1, 24, 1e-12, 200)
        assert len(values) == len(ks)
        with mp.workdps(80):
            refs = Reference(mp, q, 1 + mp.mpf(10) ** -30).window(1, ks)
            for k, ev, ref in zip(ks, values, refs):
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, k
        lam = SpectralParam.from_z(1.0, base).lam
        values = _recurrence(base, lam, 1, 1, 24, 1e-12, 200)
        assert values
        for k, ev in zip(ks, values):
            assert abs(ev.value - 1.0) <= ev.tail_bound, k

    @pytest.mark.parametrize("tol, max_terms", ((1e-12, 3), (1e-321, 200)),
                             ids=("uncertified", "refused"))
    def test_seeds_that_fail_fall_back(self, tol, max_terms):
        # With 3 terms no seed converges, and at tol = 1e-321 the seeds'
        # tolerances underflow to 0: the closed forms decide the window.
        zp = SpectralParam.from_z(0.93 + 0.2j, B)
        ks = list(range(1, 9))
        for sign in (1, -1):
            error = _first_error(
                [lambda: _closed_form(B, zp.lam, sign, ks, tol, max_terms)])
            if error is not None:
                with pytest.raises(error):
                    spherical_window(B, zp, sign, ks, tol, max_terms)
                continue
            assert [repr(ev) for ev in spherical_window(B, zp, sign, ks, tol,
                                                        max_terms)] \
                == [repr(ev) for ev in _closed_form(B, zp.lam, sign, ks, tol,
                                                    max_terms)]


class TestClosedFormIdentity:
    """The closed form of :func:`spherical_az` at k >= 1 is PropB2's
    printed forms with their k-dependent products taken out of k by
    theta(x q^2) = -theta(x)/x, with theta(x) = (x, q^2/x; q^2)_inf.  Both
    are evaluated here by mpmath at 34 digits, independently of qsu11."""

    LAMS = (0.3 + 0.4j, 1.7, -0.6 + 0.2j, cmath.exp(0.4j), 0.9 - 1.3j)

    @pytest.mark.parametrize("k", (1, 2, 3, 6, 12, 24))
    @pytest.mark.parametrize("sign", (1, -1), ids=("case2", "case3"))
    def test_matches_the_printed_forms(self, sign, k):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(34):
            for lam in self.LAMS:
                ref = Reference(mp, 0.5, lam)
                printed = ref(sign, k)
                assert abs(ref.closed(sign, k) - printed) \
                    <= mp.mpf(10) ** -30 * abs(printed), lam

    @pytest.mark.parametrize("q", (0.41, 0.5, 0.9))
    def test_constants_fold_together(self, q):
        # theta(-q^2) = 2 (-q^2; q^2)_inf^2 and
        # cq^-2 = 2 q^2 (q^2; q^2)_inf^2 (-q^2; q^2)_inf^2: case 3's
        # prefactor is case 2's constant.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(34):
            ref = Reference(mp, q, 0.7)
            q2 = ref.q2
            neg = mp.qp(-q2, q2)
            theta = neg * mp.qp(-1, q2)
            eps = mp.mpf(10) ** -32
            assert abs(theta - 2 * neg ** 2) <= eps * theta
            assert abs(ref.cq ** -2 - 2 * q2 * ref.sq ** 2 * neg ** 2) \
                <= eps * ref.cq ** -2


#: Near lam**2 = q^2 (z near 1), where the two terms of the closed form
#: cancel.  Evaluated in double precision with their k-dependent
#: products, PropB2's printed forms missed their certificates at 62 of
#: these 180 points (by up to 216x).
NEAR_POLE_QS = (0.41, 0.45, 0.5, 0.53, 0.56)
NEAR_POLE_ZS = (0.999, 0.9995, 0.9997, 0.9999, 0.99995, 0.9980174847492582)


class TestCertificateMiss:
    """At q = 0.5 and z = 0.9980174847492582 case 3 as printed in PropB2
    missed its certificate at -q^2 and -q^3, outside a 16 eps |value|
    rounding allowance too (ROADMAP item 1).  The closed form with
    k-independent products keeps it, and so does the recurrence."""

    ZP = SpectralParam.from_z(0.9980174847492582, B)

    @pytest.mark.parametrize("k", (2, 3))
    def test_closed_form_within_its_certificate(self, k):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            ev = spherical_az(B, self.ZP, IqPoint.negative(k))
            err = abs(mp.mpc(ev.value) - Reference(mp, 0.5, self.ZP.lam)(-1, k))
            assert err <= ev.tail_bound

    @pytest.mark.parametrize("z", NEAR_POLE_ZS)
    @pytest.mark.parametrize("q", NEAR_POLE_QS)
    def test_near_the_pole_within_the_certificate(self, q, z):
        mp = pytest.importorskip("mpmath").mp
        base = QBase(q)
        zp = SpectralParam.from_z(z, base)
        with mp.workdps(40):
            ref = Reference(mp, q, zp.lam)
            for sign in (1, -1):
                for k in (1, 2, 3):
                    ev = spherical_az(base, zp, IqPoint(sign, k))
                    err = abs(mp.mpc(ev.value) - ref(sign, k))
                    assert err <= ev.tail_bound, (sign, k)

    @pytest.mark.parametrize("k", (2, 3))
    def test_recurrence_within_its_bound(self, k):
        mp = pytest.importorskip("mpmath").mp
        window = spherical_window(B, self.ZP, -1, range(1, 4))
        assert [repr(ev) for ev in window] == [  # all by the recurrence
            repr(ev) for ev in _recurrence(B, self.ZP.lam, -1, 1, 3, 1e-12, 200)]
        with mp.workdps(40):
            ev = window[k - 1]
            err = abs(mp.mpc(ev.value) - Reference(mp, 0.5, self.ZP.lam)(-1, k))
            assert err <= ev.tail_bound


class TestSphericalWindow:
    @pytest.mark.parametrize("sign, ks", ((1, range(1, 25)), (-1, range(1, 25)),
                                          (1, range(-24, 1))),
                             ids=("case2", "case3", "case1"))
    @pytest.mark.parametrize("q", (0.5, 0.41, 0.56))
    def test_matches_single_points(self, q, sign, ks):
        base = QBase(q)
        for z, _ in _oracle_points(base, 8, seed=9):
            zp = SpectralParam.from_z(z, base)
            window = spherical_window(base, zp, sign, ks)
            assert len(window) == len(ks)
            for k, ev in zip(ks, window):
                one, = spherical_window(base, zp, sign, [k])
                assert abs(ev.value - one.value) <= ev.tail_bound \
                    + one.tail_bound, (z, k)
                if sign > 0 and k <= 0:  # one kernel sum per k, as before
                    assert repr(ev) == repr(one)

    @pytest.mark.parametrize("p", [IqPoint.positive(-4), IqPoint.positive(0),
                                   IqPoint.positive(5), IqPoint.negative(1),
                                   IqPoint.negative(7)])
    def test_one_point_is_spherical_az(self, p):
        for z in (0.35, 0.9 + 1.3j, -1.2 - 0.4j):
            zp = SpectralParam.from_z(z, B)
            one, = spherical_window(B, zp, p.sign, [p.exponent])
            assert repr(one) == repr(spherical_az(B, zp, p))

    def test_spans_case1_and_case2(self):
        zp = SpectralParam.from_z(0.7 + 0.2j, B)
        both = spherical_window(B, zp, 1, range(-3, 4))
        assert [repr(e) for e in both[:4]] \
            == [repr(e) for e in spherical_window(B, zp, 1, range(-3, 1))]
        assert [repr(e) for e in both[4:]] \
            == [repr(e) for e in spherical_window(B, zp, 1, range(1, 4))]

    def test_empty_window(self):
        assert spherical_window(B, SpectralParam.from_z(0.5, B), -1, []) == []

    @pytest.mark.parametrize("sign, ks", ((1, [1, 3]), (1, [2, 1]), (-1, [0, 1]),
                                          (2, [1]), (0, [1])))
    def test_bad_windows_refused(self, sign, ks):
        with pytest.raises(InvalidArgumentError):
            spherical_window(B, SpectralParam.from_z(0.5, B), sign, ks)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_pole_guard_refuses_the_window(self, sign):
        # Only the closed form is guarded: on the negative branch it seeds
        # the recurrence, on the positive one it takes over from k = 17 at
        # q = 0.9, z = 1, where the recurrence's bound exceeds tol.
        base, ks = (QBase(0.9), range(1, 25)) if sign > 0 else (B, range(1, 5))
        with pytest.raises(PoleGuardError, match="continuation is singular"):
            spherical_window(base, SpectralParam.from_z(1.0, base), sign, ks)

    @pytest.mark.parametrize("z", (0.0, 1.0))
    def test_positive_window_on_the_pole_lattice(self, z):
        # lam**2 = q^0 and q^2: the closed form refuses these, but the
        # positive window is the recurrence's, seeded by case 1 (at z = 1
        # q/lam = 1 exactly), within its bound of the closed forms at
        # lam (1 + 1e-30), 80 digits.
        mp = pytest.importorskip("mpmath").mp
        zp = SpectralParam.from_z(z, B)
        ks = range(1, 25)
        window = spherical_window(B, zp, 1, ks)
        assert [repr(ev) for ev in window] == [
            repr(ev) for ev in _recurrence(B, zp.lam, 1, 1, 24, 1e-12, 200)]
        with mp.workdps(80):
            refs = Reference(mp, 0.5, mp.mpc(zp.lam) * (1 + mp.mpf(10) ** -30)
                             ).window(1, ks)
            for k, ev, ref in zip(ks, window, refs):
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, k

    @pytest.mark.parametrize("z", (3 + 8e-10, 1 + 1e-12, -1 - 5e-10))
    def test_seeds_snapped_off_the_lattice_are_not_used(self, z):
        # q/lam or lam q within EPS_POLE of a power of q^-2 but not on it,
        # where phi21_direct would snap (a snapped seed's bound leaves out
        # the offset: at z = 3 + 8e-10 such a window missed its bounds by up
        # to 9,660x).  The seeds are summed in full.  Near z = +-1 (q/lam
        # or lam q near q^0) the recurrence fills the window; at
        # z = 3 + 8e-10 the seeds' rounding bound (a factor 1 - a q^2 near
        # 0) is past the recurrence's budget and the closed form decides.
        # Either way the values hold against the closed forms at 80 digits.
        mp = pytest.importorskip("mpmath").mp
        zp = SpectralParam.from_z(z, B)
        assert any(_near_inv_power(x, B.q ** 2) is not None
                   for x in (B.q / zp.lam, zp.lam * B.q))
        filled = _recurrence(B, zp.lam, 1, 1, 8, 1e-12, 200)
        assert len(filled) == (0 if z > 2 else 8)
        window = spherical_window(B, zp, 1, range(1, 9))
        assert [repr(ev) for ev in window[:len(filled)]] == [repr(ev) for ev in filled]
        with mp.workdps(80):
            refs = Reference(mp, 0.5, zp.lam).window(1, range(1, 9))
            for ev, ref in zip(window, refs):
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound


class TestLargeExponents:
    """At q = 0.5 and z = 0.9 the k-dependent products of PropB2's printed
    forms left the float range from k = 33 on, and those points were
    refused.  The closed form's products do not depend on k, so it
    evaluates them until kappa = +-q^{2k} underflows (k >= 538), or
    until (q/u)^{k-1} leaves the float range; a window also reaches them
    by the recurrence in k."""

    ZP = SpectralParam.from_z(0.9, B)

    @pytest.mark.parametrize("k", (32, 33, 34, 100, 500))
    @pytest.mark.parametrize("sign", (1, -1))
    def test_within_the_certificate(self, sign, k):
        mp = pytest.importorskip("mpmath").mp
        ev = spherical_az(B, self.ZP, IqPoint(sign, k))
        assert repr(ev) == repr(
            _closed_form(B, self.ZP.lam, sign, range(k - 2, k + 1), 1e-12, 200)[-1])
        with mp.workdps(40):
            err = abs(mp.mpc(ev.value) - Reference(mp, 0.5, self.ZP.lam)(sign, k))
            assert err <= ev.tail_bound

    @pytest.mark.parametrize("sign", (1, -1))
    def test_power_past_the_float_range_refused_before_any_series_term(
            self, sign, monkeypatch):
        # |q/u| = 2^2.3 at z = -3.3: (q/u)^{k-1} times its products, and
        # the value, leave the float range from k = 445 on.
        def no_sum(*args):
            raise AssertionError("a series was summed")

        zp = SpectralParam.from_z(-3.3, B)
        assert cmath.isfinite(spherical_az(B, zp, IqPoint(sign, 444)).value)
        monkeypatch.setattr(qcalculus, "phi21_kernel", no_sum)
        monkeypatch.setattr(qcalculus, "phi21_window_kernel", no_sum)
        with pytest.raises(InvalidArgumentError, match=r"\(q/u\)\*\*444 .* past"):
            spherical_az(B, zp, IqPoint(sign, 445))

    @pytest.mark.parametrize("sign", (1, -1))
    def test_window_past_the_frontier_matches_mpmath(self, sign):
        # The recurrence fills these windows; every value keeps its
        # running bound.
        mp = pytest.importorskip("mpmath").mp
        ks = range(20, 35)
        window = spherical_window(B, self.ZP, sign, ks)
        assert [repr(ev) for ev in window] == [
            repr(ev) for ev in _recurrence(B, self.ZP.lam, sign, 20, 34, 1e-12, 200)]
        with mp.workdps(40):
            refs = Reference(mp, 0.5, self.ZP.lam).window(sign, ks)
            for k, ev, ref in zip(ks, window, refs):
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, k
        far, = spherical_window(B, self.ZP, sign, range(99, 101))[1:]
        assert cmath.isfinite(far.value) and far.tail_bound <= 1e-12


class TestCoamenCoeff:
    def test_m_zero_is_bare_series(self):
        lam = cmath.exp(0.4j)
        ev = coamen_coeff(B, 0, lam, IqPoint.positive(-3))
        q = B.q
        ref = phi21_direct(-q / lam, -lam * q, q * q, q * q, -q ** 8)
        assert ev.value == ref.value

    def test_negative_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            coamen_coeff(B, 0, 1.0, IqPoint.negative(2))

    def test_unknown_form_rejected(self):
        with pytest.raises(InvalidArgumentError):
            coamen_coeff(B, 0, 1.0, IqPoint.positive(0), form="compact")

    def test_raw_matches_simplified_deep_cell(self):
        raw = coamen_coeff(B, 1, 1.0, IqPoint.positive(-5), form="raw")
        simp = coamen_coeff(B, 1, 1.0, IqPoint.positive(-5))
        assert abs(raw.value - simp.value) / abs(simp.value) < 1e-9

    @pytest.mark.parametrize("m", [-2, 0, 2])
    @pytest.mark.parametrize("j", [0, 3])
    def test_raw_matches_simplified_grid(self, m, j):
        lam = cmath.exp(0.4j)
        raw = coamen_coeff(B, m, lam, IqPoint.positive(-j), form="raw")
        simp = coamen_coeff(B, m, lam, IqPoint.positive(-j))
        scale = max(abs(raw.value), abs(simp.value))
        assert abs(raw.value - simp.value) / scale < 1e-9

    def test_bound_cell(self):
        devs = []
        for j in (2, 4, 8):
            ev = coamen_coeff(B, 0, 1.0, IqPoint.positive(-j))
            dev = abs(ev.value - 1.0)
            assert dev < B.q ** (2 * j - 1)
            devs.append(dev)
        assert devs[0] > devs[1] > devs[2]

    def test_large_argument_cell_routes_through_continuation(self):
        # m = 1, j = 0 gives series argument of modulus q^{-2} > 1
        ev = coamen_coeff(B, 1, 1.0, IqPoint.positive(0))
        assert math.isfinite(abs(ev.value))
        assert math.isfinite(ev.tail_bound)


class TestAveragedCoamen:
    def test_single_cell_window(self):
        lam = cmath.exp(0.4j)
        avg = averaged_coamen(B, 0, IqPoint.positive(-4), 0, lam)
        single = coamen_coeff(B, 0, lam, IqPoint.positive(-4))
        assert avg.value == single.value

    def test_window_sum_matches_manual(self):
        p1 = IqPoint.positive(-6)
        n, m = 2, 1
        avg = averaged_coamen(B, n, p1, m, 1.0)
        total = sum(coamen_coeff(B, m, 1.0, p1.shifted(e)).value
                    for e in range(n - 2 * abs(m), -n - 1, -1))
        assert avg.value == pytest.approx(total / (2 * n + 1), rel=1e-14)

    def test_window_validation(self):
        with pytest.raises(InvalidArgumentError):
            averaged_coamen(B, 1, IqPoint.positive(0), 2, 1.0)
        with pytest.raises(InvalidArgumentError):
            averaged_coamen(B, -1, IqPoint.positive(0), 0, 1.0)

    def test_triangle_bound(self):
        p1 = IqPoint.positive(-8)
        n, m = 3, 1
        avg = averaged_coamen(B, n, p1, m, 1.0)
        worst = max(abs(coamen_coeff(B, m, 1.0, p1.shifted(e)).value)
                    for e in range(n - 2 * abs(m), -n - 1, -1))
        assert abs(avg.value) <= worst + 1e-12

    def test_chain_decreases(self):
        d1 = abs(averaged_coamen(B, 5, IqPoint.positive(-10), 0, 1.0).value - 1.0)
        d2 = abs(averaged_coamen(B, 10, IqPoint.positive(-20), 0, 1.0).value - 1.0)
        assert d2 < d1


def _fields(ev):
    return repr(ev.value), ev.terms_used, repr(ev.tail_bound)


def _first_error(calls):
    """Type of the first exception raised by the zero-argument ``calls``."""
    for call in calls:
        try:
            call()
        except Exception as exc:
            return type(exc)
    return None


def _coamen_windows(seed, count):
    """Seeded (q, n, m, L, lam): windows of ``averaged_coamen`` at p1 = q^L."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 10)
        m = rng.randint(-min(n, 3), min(n, 3))
        lam = rng.choice((1.0, rng.uniform(0.4, 1.6))) \
            * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield (rng.choice((0.41, 0.5, 0.56)), n, m,
               rng.randint(-2 * n - 6, 4), lam)


class TestCoamenWindow:
    """``averaged_coamen`` sums one coamen window (``_coamen_window``)."""

    def test_average_is_the_sum_of_its_points(self):
        routes, refused = set(), 0
        for q, n, m, L, lam in _coamen_windows(5, 160):
            base, p1 = QBase(q), IqPoint.positive(L)
            es = range(n - 2 * abs(m), -n - 1, -1)
            error = _first_error(
                [lambda e=e: coamen_coeff(base, m, lam, p1.shifted(e)) for e in es])
            if error is not None:  # the point refused first refuses the window
                refused += 1
                with pytest.raises(error):
                    averaged_coamen(base, n, p1, m, lam)
                continue
            routes.add(tuple(sorted({2 - 2 * (L + e) - 4 * m > 0 for e in es})))
            want = sum(coamen_coeff(base, m, lam, p1.shifted(e)) for e in es) \
                * (1.0 / (2 * n + 1))
            got = averaged_coamen(base, n, p1, m, lam)
            assert _fields(got) == _fields(want), (q, n, m, L, lam)
        # windows summed directly, through phi21_heine, and across both
        assert routes == {(True,), (False,), (False, True)}
        assert refused

    def test_lattice_sized_average_is_the_sum_of_its_points(self):
        # The lattice experiments' windows: n in [20, 40] at p1 = q^(-2n),
        # |m| <= 2 and |lam| = 1 (every point sums directly: e >= 2n + 2),
        # beside the n <= 10 of _coamen_windows.
        rng = random.Random(51)
        for _ in range(12):
            q, n = rng.choice((0.41, 0.5, 0.56)), rng.randint(20, 40)
            m, lam = rng.randint(-2, 2), cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            base, p1 = QBase(q), IqPoint.positive(-2 * n)
            es = range(n - 2 * abs(m), -n - 1, -1)
            want = sum(coamen_coeff(base, m, lam, p1.shifted(e)) for e in es) \
                * (1.0 / (2 * n + 1))
            got = averaged_coamen(base, n, p1, m, lam)
            assert _fields(got) == _fields(want), (q, n, m, lam)

    @pytest.mark.parametrize("form", ("simplified", "raw"))
    def test_points_are_coamen_coeff(self, form):
        for q, n, m, L, lam in _coamen_windows(6, 40):
            base = QBase(q)
            # |lam| q^{1+2m} < 1: no Heine point is refused
            lam = cmath.rect(min(abs(lam), 0.5 / q ** (1 + 2 * m)), cmath.phase(lam))
            Ls = range(L - n, L + n + 1)
            # The raw form's product (-q^{2L}, -q^{2L+4m}; q^2)_inf leaves the
            # float range at the most negative L: refused, the window too.
            error = _first_error([
                lambda x=x: coamen_coeff(base, m, lam, IqPoint.positive(x), form=form)
                for x in Ls])
            if error is not None:
                assert form == "raw"
                with pytest.raises(error, match="product at L = .* past the float"):
                    _coamen_window(base, m, lam, Ls, form, 1e-12, 200)
                continue
            window = _coamen_window(base, m, lam, Ls, form, 1e-12, 200)
            assert len(window) == len(Ls)
            for x, ev in zip(Ls, window):
                one = coamen_coeff(base, m, lam, IqPoint.positive(x), form=form)
                assert _fields(ev) == _fields(one), (q, m, x, lam)
            one, = _coamen_window(base, m, lam, [L], form, 1e-12, 200)
            assert _fields(one) == _fields(
                coamen_coeff(base, m, lam, IqPoint.positive(L), form=form))

    @pytest.mark.parametrize("m, L, lam, error", (
        # az = q/lam = 1 at L = 1 (e = 0): a pole of the Heine route
        (0, -2, B.q, PoleInCError),
        # q**e past the float range from L = 514 on
        (0, 511, 1.0, InvalidArgumentError),
        # |lam| q^{1+2m} >= 1: no Heine route
        (1, 0, 9.0, InvalidArgumentError),
    ), ids=("pole", "power", "heine-domain"))
    def test_refused_point_refuses_the_window(self, m, L, lam, error):
        n = 3
        p1 = IqPoint.positive(L)
        es = range(n - 2 * abs(m), -n - 1, -1)
        assert _first_error(
            [lambda e=e: coamen_coeff(B, m, lam, p1.shifted(e)) for e in es]) \
            is error
        with pytest.raises(error):
            averaged_coamen(B, n, p1, m, lam)
        for form in ("simplified", "raw"):
            with pytest.raises(error):
                _coamen_window(B, m, lam, [L + e for e in es], form, 1e-12, 200)

    def test_zero_lambda_refused(self):
        with pytest.raises(InvalidArgumentError, match="lam must be nonzero"):
            coamen_coeff(QBase(0.5), 0, 0j, IqPoint.positive(1))
        with pytest.raises(InvalidArgumentError, match="lam must be nonzero"):
            averaged_coamen(QBase(0.5), 2, IqPoint.positive(1), 0, 0j)

    def test_both_forms_is_form_not_accepted_by_coamen_coeff(self):
        with pytest.raises(InvalidArgumentError, match="unknown form 'both'"):
            coamen_coeff(B, 0, 1.0, IqPoint.positive(0), form="both")


def _rawsimp_cells(q):
    """The cells of the coamenability suite's ``rawsimp_*`` rows."""
    for lam in (1.0 + 0.0j, cmath.exp(0.4j), complex(math.sqrt(q))):
        for m in range(-3, 4):
            for j in range(0, 11):
                yield lam, m, -j


class TestRawSimplifiedPair:
    """``_coamen_window(..., "both", ...)`` sums one series per point for
    both forms; each is the ``coamen_coeff`` of its form, bit for bit."""

    TOL = RunConfig().series_tol

    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_rawsimp_cells(self, q):
        base = QBase(q)
        routes = set()
        for lam, m, L in _rawsimp_cells(q):
            (raw, simp), = _coamen_window(base, m, lam, [L], "both", self.TOL, 200)
            for form, ev in (("raw", raw), ("simplified", simp)):
                want = coamen_coeff(base, m, lam, IqPoint.positive(L), form=form,
                                    tol=self.TOL)
                assert _fields(ev) == _fields(want), (q, lam, m, L, form)
            routes.add(2 - 2 * L - 4 * m > 0)
        assert routes == {True, False}  # summed directly and by Heine

    def test_window_of_pairs(self):
        lam = cmath.exp(0.4j)
        pairs = _coamen_window(B, 1, lam, range(-6, 2), "both", self.TOL, 200)
        raws = _coamen_window(B, 1, lam, range(-6, 2), "raw", self.TOL, 200)
        simps = _coamen_window(B, 1, lam, range(-6, 2), "simplified", self.TOL, 200)
        assert [(_fields(r), _fields(s)) for r, s in pairs] \
            == [(_fields(r), _fields(s)) for r, s in zip(raws, simps)]

    class Series(Exception):
        pass

    class RawProducts(Exception):
        pass

    class Prefactor(Exception):
        pass

    @pytest.mark.parametrize("failing", [
        set(c) for n in range(1, 4)
        for c in itertools.combinations(("series", "raw", "prefactor"), n)])
    @pytest.mark.parametrize("m, L", ((0, -3), (3, 0)), ids=("direct", "heine"))
    def test_refusal_precedence(self, failing, m, L, monkeypatch):
        # A refusal is the first of the raw call and the simplified call
        # made one after the other: the series, then raw's products, then
        # the simplified prefactor.
        def raiser(exc):
            def fail(*args, **kw):
                raise exc()
            return fail

        for name, module, attr, exc in (
                ("series", qcalculus, "phi21_kernel", self.Series),
                ("raw", qcalculus, "_qpoch_product", self.RawProducts),
                ("prefactor", su11core, "qpoch_finite_kernel", self.Prefactor)):
            if name in failing:
                monkeypatch.setattr(module, attr, raiser(exc))
        p1 = IqPoint.positive(L)
        want = _first_error([
            lambda: coamen_coeff(B, m, 1.0, p1, form="raw"),
            lambda: coamen_coeff(B, m, 1.0, p1, form="simplified")])
        assert want is not None
        with pytest.raises(want):
            _coamen_window(B, m, 1.0, [L], "both", 1e-12, 200)

    def test_real_refusal_of_the_series(self):
        # |lam| q^{1+2m} >= 1 on the Heine route (e <= 0): no continuation.
        for form in ("raw", "simplified"):
            with pytest.raises(InvalidArgumentError, match="needs .b. < 1"):
                coamen_coeff(B, 1, 9.0, IqPoint.positive(0), form=form)
        with pytest.raises(InvalidArgumentError, match="needs .b. < 1"):
            _coamen_window(B, 1, 9.0, [0], "both", 1e-12, 200)


def _reference_point(base, m, lam, L, form, tol, max_terms):
    """One coamen point composed from the public evaluators and the
    ``SeriesEval`` operators: the series by ``phi21_direct`` or
    ``phi21_heine``, scaled by sqrt((-q^e; q^2)_{2m}) for the simplified
    form, and times the raw form's products; ``(raw, simplified)`` for
    ``form="both"``."""
    q = base.q
    q2 = q * q
    shift = q ** (1 + 2 * m)
    a, b = -shift / lam, -lam * shift
    e = 2 - 2 * L - 4 * m
    z = -q ** e
    series = (phi21_direct if e > 0 else phi21_heine)(
        a, b, q2, q2, z, tol=tol, max_terms=max_terms)
    u = 2.0 ** -53
    if form != "simplified":
        scalar = q ** (2 * L + 2 * m + nu_exponent(L) + nu_exponent(L + 2 * m)) \
            * base.cq ** 2
        scalar_rel = 15.0 * u + 2.0 * sum(
            qpoch_infinite(x, q2, 1e-16).rel_bound for x in (q2, -q2))
        root = qpoch_multi([-q ** (2 * L), -q ** (2 * L + 4 * m)], q2, tol / 16.0)
        if not cmath.isfinite(root.value):
            raise InvalidArgumentError(
                f"a q-Pochhammer product at L = {L!r} is past the float range")
        rest = qpoch_multi([q2, q2, z], q2, tol / 16.0)
        raw = root.sqrt()._scaled(scalar, scalar_rel) * rest * series
        if form == "raw":
            return raw
    n = 2 * abs(m)
    k = 3.5 * n + n * (n - 1) / 4.0 + 9.0
    root_rel = k * u / (1.0 - k * u)
    simplified = series._scaled(cmath.sqrt(qpoch_signed(z, q2, 2 * m)), root_rel)
    return simplified if form == "simplified" else (raw, simplified)


def _outcome(call):
    """``repr`` of ``call()``, or of the error it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return repr(exc)


def _reference_cases(seed, count):
    """Seeded (q, m, lam, first L, window length, max_terms)."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice((0.5, 0.9))
        m = rng.randint(-3, 3)
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        lam = rng.choice((1.0, phase, rng.uniform(0.3, 1.7) * phase))
        # e = 2 - 2L - 4m > 0 (direct) exactly for L <= -2m
        yield (q, m, lam, -2 * m + rng.randint(-6, 3), rng.randint(1, 8),
               rng.choice((200, 3)))


class TestCoamenWindowReference:
    """Every point of ``_coamen_window`` in each form, and
    ``averaged_coamen``, against the composition of ``_reference_point``,
    by ``repr``."""

    @pytest.mark.parametrize("form", ("simplified", "raw", "both"))
    def test_window_points(self, form):
        routes, refused, uncertified = set(), 0, 0
        for q, m, lam, L0, width, max_terms in _reference_cases(f"ref-{form}", 150):
            base = QBase(q)
            Ls = range(L0, L0 + width)
            want = [_outcome(lambda L=L: _reference_point(
                base, m, lam, L, form, 1e-12, max_terms)) for L in Ls]
            first_error = next((w for w in want if "Error(" in w), None)
            got = _outcome(lambda: _coamen_window(base, m, lam, Ls, form, 1e-12,
                                                  max_terms))
            if first_error is not None:
                refused += 1
                assert got == first_error, (q, m, lam, L0, width)
                continue
            assert got == "[" + ", ".join(want) + "]", (q, m, lam, L0, width)
            routes.update(2 - 2 * L - 4 * m > 0 for L in Ls)
            uncertified += "inf" in got
        assert routes == {True, False}  # summed directly and by Heine
        assert refused and uncertified

    def test_average(self):
        refused = 0
        for q, m, lam, L0, width, max_terms in _reference_cases("ref-avg", 150):
            base, n = QBase(q), abs(m) + width
            p1 = IqPoint.positive(L0 + n)
            es = range(n - 2 * abs(m), -n - 1, -1)
            try:
                points = [_reference_point(base, m, lam, p1.exponent + e,
                                           "simplified", 1e-12, max_terms)
                          for e in es]
            except Exception as exc:
                refused += 1
                want = repr(exc)
            else:
                want = repr(sum(points) * (1.0 / (2 * n + 1)))
            assert _outcome(lambda: averaged_coamen(
                base, n, p1, m, lam, max_terms=max_terms)) == want, (q, n, m, lam)
        assert refused


class TestRawPastTheFloatRange:
    """The raw form's product (-q^{2L}, -q^{2L+4m}; q^2)_inf overflows from
    L = -23 at q = 0.5 (m = 0, lam = 1), where the point returned
    nan+nanj with tail_bound = inf; it is refused before it meets the
    other factors, and a pair refuses as the raw call does."""

    @pytest.mark.parametrize("form", ("raw", "both"))
    @pytest.mark.parametrize("q, refused", ((0.5, range(-23, -41, -1)),
                                            (0.9, range(0))))
    def test_refused_from_where_it_overflows(self, q, refused, form):
        base = QBase(q)
        got = set()
        for L in range(-20, -41, -1):
            want = _outcome(lambda: _reference_point(base, 0, 1.0, L, form, 1e-12, 200))
            one = _outcome(lambda: _coamen_window(base, 0, 1.0, [L], form, 1e-12, 200))
            assert one in (want, f"[{want}]"), L
            assert "nan" not in one, L
            if "Error(" in one:
                assert one == repr(InvalidArgumentError(
                    f"a q-Pochhammer product at L = {L} is past the float range"))
                got.add(L)
        assert got == set(refused)


def _closed_form_reference(base, lam, sign, ks, tol, max_terms):
    """``_closed_form`` composed from ``qpoch_multi``, the series summed in
    full (``phi21_direct``'s sum without its snap: the series converge, and
    a snap would drop the offset of a ``q/u`` near ``q^{-2n}``) and the
    ``SeriesEval`` operators, in its order of refusals."""
    q = base.q
    q2 = q * q
    zs = [-sign * q ** (2 * k) for k in ks]
    if zs[-1] == 0:
        raise InvalidArgumentError(
            f"kappa = q**{2 * ks[-1]} underflows to 0 at k = {ks[-1]}")
    qcalculus._pole_guard(lam, q)
    near = qcalculus._NEAR_LATTICE / qcalculus._power_distance(lam * lam, q2)
    part_tol = tol / 8.0
    theta = qpoch_multi([-q * lam, -q / lam], q2, part_tol)
    const = theta / (2.0 * qpoch_multi([q2, -q2, -q2], q2, part_tol))
    parts = []
    for u in (lam, 1.0 / lam):
        num, den = qpoch_multi([u * q, u * q], q2, part_tol), qpoch_multi([u * u], q2,
                                                                           part_tol)
        factor = const * (num / den)
        values = (theta.value, const.value, num.value, den.value, factor.value)
        if not all(math.isfinite(qcalculus._modulus(v)) for v in values):
            raise InvalidArgumentError(
                f"a q-Pochhammer product at lam = {lam!r} is past the float range")
        a, c = q / u, q2 / (u * u)
        scaled = []
        for k in ks:
            try:
                power = a ** (k - 1)
            except OverflowError:
                power = complex(math.inf)
            f = factor._scaled(power, qcalculus._POWER_ROUNDING * (k - 1))
            if not math.isfinite(qcalculus._modulus(f.value)):
                raise InvalidArgumentError(
                    f"the factor (q/u)**{k - 1} of the closed form is past "
                    f"the float range at k = {k}")
            scaled.append(f)
        parts.append((scaled, a, c))
    out = []
    for i, z in enumerate(zs):
        terms = [scaled[i] * qcalculus._direct_sum(a, a, c, q2, z, -1, part_tol,
                                                   max_terms)
                 for scaled, a, c in parts]
        value = sum(terms)
        out.append(SeriesEval(value.value, value.terms_used, value.tail_bound
                              + near * sum(qcalculus._modulus(t.value) for t in terms)))
    return out


def _closed_form_cases(q, seed, count):
    """Seeded (z, sign, ks, tol, max_terms) at q: z on the strip or within
    1e-12 to 1e-6 of a point of the lambda**2 lattice, windows from k = 1,
    2, 7, 30 and 440."""
    rng = random.Random(seed)
    period = QBase(q).period
    for _ in range(count):
        if rng.random() < 0.3:
            z = complex(rng.randint(-3, 3) + rng.choice((1e-12, -1e-9, 2e-9, 1e-6)),
                        rng.choice((0.0, period / 2)))
        else:
            z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-period / 2, period / 2))
        k0 = rng.choice((1, 1, 2, 7, 30, 440))
        yield (z, rng.choice((1, -1)), list(range(k0, k0 + rng.randint(1, 8))),
               rng.choice(REF_TOLS), rng.choice(REF_TERMS))


#: The tolerances and term budgets of the float-built reference tests.
REF_TOLS = (1e-6, 1e-9, 1e-12, 1e-16, 1e-100, 1e-300)
REF_TERMS = (3, 200)


class TestFloatBuiltReference:
    """The closed form and the raw coamen form form their products on floats
    and apply ``SeriesEval``'s rules there; each equals, by ``repr``,
    refusals included, its composition from public calls and the
    operators."""

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
    def test_closed_form(self, q):
        base = QBase(q)
        seen = set()
        for z, sign, ks, tol, max_terms in _closed_form_cases(q, f"cf-{q}", 120):
            lam = SpectralParam.from_z(z, base).lam
            got = _outcome(lambda: _closed_form(base, lam, sign, ks, tol, max_terms))
            assert got == _outcome(lambda: _closed_form_reference(
                base, lam, sign, ks, tol, max_terms)), (z, sign, ks, tol, max_terms)
            seen.add("PoleGuardError" in got)
            seen.add("tail_bound=inf" in got)
        assert seen == {True, False}

    def test_windows_across_the_fallback(self):
        # The recurrence's values, then the closed form's from the first k
        # it cannot certify: on the strip, at tol 1e-12 (q = 0.9) and
        # 1e-14 (q = 0.3, 0.5) some windows split.
        split = 0
        for q in (0.3, 0.5, 0.9):
            base = QBase(q)
            rng = random.Random(f"fb-{q}")
            for _ in range(40):
                z = complex(rng.uniform(-2.0, 2.0),
                            rng.uniform(-base.period / 2, base.period / 2))
                sign, ks = rng.choice((1, -1)), list(range(1, 25))
                tol, max_terms = rng.choice((1e-6, 1e-12, 1e-14)), rng.choice(REF_TERMS)
                zp = SpectralParam.from_z(z, base)
                n = len(_recurrence(base, zp.lam, sign, 1, 24, tol, max_terms))
                if n == len(ks):
                    continue
                got = _outcome(lambda: spherical_window(base, zp, sign, ks, tol,
                                                        max_terms))
                want = _outcome(lambda: _closed_form_reference(
                    base, zp.lam, sign, ks[n:], tol, max_terms))
                if "Error(" in want:
                    assert got == want, (q, z, sign, tol, max_terms)
                    continue
                window = spherical_window(base, zp, sign, ks, tol, max_terms)
                assert repr(window[n:]) == want, (q, z, sign, tol, max_terms)
                split += n > 0
        assert split

    @pytest.mark.parametrize("form", ("raw", "both"))
    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
    def test_coamen_window(self, q, form):
        base = QBase(q)
        rng = random.Random(f"cw-{q}-{form}")
        routes, refused = set(), 0
        for _ in range(60):
            m = rng.randint(-3, 3)
            phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            lam = rng.choice((1.0, phase, rng.uniform(0.3, 1.7) * phase,
                              q ** rng.randint(-3, 3) * (1.0 + 1e-10)))
            Ls = range(-2 * m + rng.randint(-30, 3), -2 * m + 5)
            tol, max_terms = rng.choice(REF_TOLS), rng.choice(REF_TERMS)
            want = [_outcome(lambda L=L: _reference_point(
                base, m, lam, L, form, tol, max_terms)) for L in Ls]
            first_error = next((w for w in want if "Error(" in w), None)
            got = _outcome(lambda: _coamen_window(base, m, lam, Ls, form, tol, max_terms))
            if first_error is not None:
                refused += 1
                assert got == first_error, (m, lam, Ls, tol, max_terms)
                continue
            assert got == "[" + ", ".join(want) + "]", (m, lam, Ls, tol, max_terms)
            routes.update(2 - 2 * L - 4 * m > 0 for L in Ls)
        assert routes == {True, False} and refused


class TestCoamenArguments:
    @pytest.mark.parametrize("call", (
        lambda: coamen_coeff(B, 0.5, 1.0, IqPoint.positive(-4)),
        lambda: coamen_coeff(B, 2.0, 1.0, IqPoint.positive(-4), form="raw"),
        lambda: averaged_coamen(B, 2.5, IqPoint.positive(-4), 0, 1.0),
        lambda: averaged_coamen(B, 2, IqPoint.positive(-4), 0.5, 1.0),
    ), ids=("coamen-m", "coamen-float-m", "averaged-n", "averaged-m"))
    def test_non_integer_refused(self, call):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            call()


class TestNonFiniteSum:
    """A direct 2phi1 sum whose terms leave the float range came back as
    nan+nanj with tail_bound = inf after max_terms terms; it is refused."""

    @pytest.mark.parametrize("call", (
        lambda: phi21_direct(0.3, 1e100, 0.25, 0.25, 0.1),
        lambda: spherical_az(B, SpectralParam.from_z(-100, B), IqPoint.positive(0)),
        lambda: coamen_coeff(B, 0, 1e200, IqPoint.positive(-5)),
        lambda: coamen_coeff(B, 0, 1e200, IqPoint.positive(-5), form="raw"),
        lambda: averaged_coamen(B, 2, IqPoint.positive(-5), 0, 1e200),
    ), ids=("phi21_direct", "spherical_az", "coamen", "coamen-raw", "averaged"))
    def test_refused(self, call):
        with pytest.raises(InvalidArgumentError, match="left the float range"):
            call()

    def test_window_refuses_as_its_first_point(self):
        # A case-1 window of four points, summed in one kernel pass, refuses
        # with the error of its first point, k = -3.
        zp = SpectralParam.from_z(-100, B)
        with pytest.raises(InvalidArgumentError, match="left the float range") as win:
            spherical_window(B, zp, 1, range(-3, 1))
        with pytest.raises(InvalidArgumentError) as point:
            spherical_az(B, zp, IqPoint.positive(-3))
        assert str(win.value) == str(point.value)

    def test_finite_uncertified_sum_is_returned(self):
        # Out of terms with a finite value: returned, tail_bound = inf.
        ev = phi21_direct(0.3, 0.2, 0.25, 0.9, 0.999, max_terms=3)
        assert cmath.isfinite(ev.value) and ev.tail_bound == math.inf


class TestHeineOverflow:
    """On the Heine route (e <= 0) ``(z; q^2)_inf`` at z = -q^e leaves the
    float range from L = 33 on (at q = 0.5, m = 0, lam = 1): the point is
    refused before any series term is summed (it returned nan+nanj after
    233 to 1,896 terms)."""

    @pytest.mark.parametrize("L", (33, 60, 511))
    @pytest.mark.parametrize("form", ("simplified", "raw"))
    def test_refused_before_any_series_term(self, form, L, monkeypatch):
        def no_sum(*args):
            raise AssertionError("a series was summed")

        monkeypatch.setattr(qcalculus, "phi21_kernel", no_sum)
        monkeypatch.setattr(qcalculus, "phi21_window_kernel", no_sum)
        with pytest.raises(InvalidArgumentError, match="past the float range"):
            coamen_coeff(B, 0, 1.0, IqPoint.positive(L), form=form)

    def test_window_reaching_it_is_refused(self, monkeypatch):
        def no_sum(*args):
            raise AssertionError("a series was summed")

        monkeypatch.setattr(qcalculus, "phi21_kernel", no_sum)
        monkeypatch.setattr(qcalculus, "phi21_window_kernel", no_sum)
        # Its first point is L = 33.
        with pytest.raises(InvalidArgumentError, match="past the float range"):
            averaged_coamen(B, 3, IqPoint.positive(30), 0, 1.0)

    @pytest.mark.parametrize("form", ("simplified", "raw"))
    def test_last_finite_exponent_within_its_bound(self, form):
        # L = 32 is the last exponent evaluated: within its tail_bound of
        # the Heine form at 40 digits.  L = 33 is refused.
        mp = pytest.importorskip("mpmath").mp
        ev = coamen_coeff(B, 0, 1.0, IqPoint.positive(32), form=form)
        assert cmath.isfinite(ev.value) and ev.tail_bound < 1e-12 * abs(ev.value)
        with mp.workdps(40):
            assert abs(mp.mpc(ev.value) - coamen_reference(mp, B.q, 0, 1.0, 32)) \
                <= ev.tail_bound
        with pytest.raises(InvalidArgumentError, match="past the float range"):
            coamen_coeff(B, 0, 1.0, IqPoint.positive(33), form=form)


_ZP = SpectralParam.from_z(0.9, B)

#: Entries whose powers of q (or of the base) leave the float range.
_PAST_FLOAT_RANGE = {
    "theta_pair_b0.3_k-34": lambda: theta_pair(0.7 + 0.2j, -34, 0.3),
    "theta_pair_b0.3_k45": lambda: theta_pair(0.7 + 0.2j, 45, 0.3),
    "theta_pair_b0.5_k-45": lambda: theta_pair(0.7 + 0.2j, -45, 0.5),
    "theta_pair_b0.5_k80": lambda: theta_pair(0.7 + 0.2j, 80, 0.5),
    "theta_pair_b0.8_k-80": lambda: theta_pair(0.7 + 0.2j, -80, 0.8),
    # The powers are finite; the rhs scale (-a)^-k b^(-k(k-1)/2) is not.
    "theta_pair_b0.8_k80_scale": lambda: theta_pair(0.7 + 0.2j, 80, 0.8),
    "coamen_simplified_L600": lambda: coamen_coeff(
        B, 0, 1.0 + 0j, IqPoint.positive(600)),
    "coamen_raw_L600": lambda: coamen_coeff(
        B, 0, 1.0 + 0j, IqPoint.positive(600), form="raw"),
    "coamen_simplified_m-600": lambda: coamen_coeff(
        B, -600, 1.0 + 0j, IqPoint.positive(0)),
    "coamen_raw_m-600": lambda: coamen_coeff(
        B, -600, 1.0 + 0j, IqPoint.positive(0), form="raw"),
    "coamen_raw_L-600": lambda: coamen_coeff(
        B, 0, 1.0 + 0j, IqPoint.positive(-600), form="raw"),
    "qpoch_signed": lambda: qpoch_signed(0.3, 0.5, -2000),
    "point_value": lambda: IqPoint.positive(-2000).value(B),
    "structural_maps": lambda: structural_maps(IqPoint.positive(-2000), B),
    # kappa = -q^1200 underflows to -0.0.
    "spherical_case3_k600": lambda: spherical_az(B, _ZP, IqPoint.negative(600)),
    "spherical_case2_k600": lambda: spherical_az(B, _ZP, IqPoint.positive(600)),
    # (q/u)^449 = 2^(2.3 * 449) at z = -3.3.
    "spherical_case2_power_k450": lambda: spherical_az(
        B, SpectralParam.from_z(-3.3, B), IqPoint.positive(450)),
    "spherical_case3_power_k450": lambda: spherical_az(
        B, SpectralParam.from_z(-3.3, B), IqPoint.negative(450)),
    # (lam^2; q^2)_inf at |lam| = 2^40: a product that does not depend on k.
    "spherical_products_z-40": lambda: spherical_az(
        B, SpectralParam.from_z(-40 + 0.7j, B), IqPoint.positive(1)),
}


class TestPastFloatRange:
    """A power of q, or a product, past the float range is refused with a
    typed error."""

    @pytest.mark.parametrize("entry", sorted(_PAST_FLOAT_RANGE))
    def test_refused(self, entry):
        with pytest.raises(InvalidArgumentError):
            _PAST_FLOAT_RANGE[entry]()

    def test_coamen_still_evaluates_at_large_finite_powers(self):
        # L = -600 with m = 0: the simplified form needs no power of q
        # past the float range, and the series is 1 to double precision.
        ev = coamen_coeff(B, 0, 1.0 + 0j, IqPoint.positive(-600))
        assert ev.value == 1.0

    @pytest.mark.parametrize("family, fixed, approach", (
        ("coamen", {"m": 0}, (2, -600)),
        ("spherical_case3", {"k": 600}, (0.9,)),
    ), ids=("coamen", "spherical_case3"))
    def test_sweep_records_a_failing_row(self, family, fixed, approach):
        rep = limit_sweep(family, B, fixed, approach, 1.0, 1.0)
        assert rep.verdict == "fail"
        assert len(rep.rows) == len(approach)
        last = rep.rows[-1]
        assert last.deviation == math.inf and last.note
        assert all(not r.note for r in rep.rows[:-1])
