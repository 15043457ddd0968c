"""Unit tests for the q-product and series evaluators."""

import cmath
import dataclasses
import itertools
import math
import operator
import random

import pytest
from _mp_reference import explicit_qpoch, phi21_terms

from qsu11 import (
    EPS_POLE,
    DivergentSeriesError,
    InvalidArgumentError,
    IqPoint,
    PoleGuardError,
    PoleInCError,
    QBase,
    SeriesEval,
    SpectralParam,
    coamen_coeff,
    phi21_continued,
    phi21_direct,
    phi21_heine,
    pochhammer_ratio,
    pochhammer_ratio_naive,
    qpoch_finite,
    qpoch_infinite,
    qpoch_multi,
    qpoch_signed,
    theta_pair,
)
from qsu11 import qcalculus

B = QBase(0.5)


class TestQBase:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_bad_q(self, q):
        with pytest.raises(InvalidArgumentError):
            QBase(q)

    def test_rejects_q_whose_square_underflows(self):
        with pytest.raises(InvalidArgumentError, match="square"):
            QBase(1e-300)  # q * q == 0.0
        qb = QBase(1e-160)  # q * q is subnormal, not 0
        assert math.isfinite(qb.cq) and qb.log_q < 0

    @pytest.mark.parametrize("q, cq", [(0.999, "inf"), (0.9995, "nan")])
    def test_rejects_q_whose_cq_leaves_the_float_range(self, q, cq):
        # (q^2; q^2)_inf underflows to 0 from about 0.99890268108, and
        # from about 0.999421 (-q^2; q^2)_inf overflows too (0 * inf).
        with pytest.raises(InvalidArgumentError, match=f"cq is {cq}, not a finite"):
            QBase(q)
        assert math.isfinite(QBase(0.9989).cq)

    def test_log_q_negative(self):
        assert B.log_q == math.log(0.5) < 0

    def test_period(self):
        assert B.period == pytest.approx(2.0 * math.pi / abs(math.log(0.5)),
                                         rel=1e-15)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_cq_matches_product_formula(self, q):
        qb = QBase(q)
        q2 = q * q
        p1 = qpoch_infinite(q2, q2, 1e-14).value.real
        p2 = qpoch_infinite(-q2, q2, 1e-14).value.real
        expected = 1.0 / (math.sqrt(2.0) * q * p1 * p2)
        assert qb.cq == pytest.approx(expected, rel=1e-12)


class TestQpochFinite:
    def test_empty_product(self):
        assert qpoch_finite(5 + 2j, 0.5, 0) == 1.0

    def test_unit_parameter_vanishes(self):
        assert qpoch_finite(1.0, 0.5, 3) == 0.0

    def test_two_factor_hand_value(self):
        assert qpoch_finite(0.5, 0.5, 2) == pytest.approx(0.375, rel=1e-15)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidArgumentError):
            qpoch_finite(0.5, 0.5, -1)

    def test_bad_base_rejected(self):
        with pytest.raises(InvalidArgumentError):
            qpoch_finite(0.5, 1.5, 2)

    def test_accepts_qbase_object(self):
        assert qpoch_finite(0.3 + 0.1j, B, 4) == qpoch_finite(0.3 + 0.1j, 0.5, 4)

    def test_recurrence(self):
        a = -0.7 + 0.4j
        for k in range(9):
            lhs = qpoch_finite(a, 0.6, k + 1)
            rhs = qpoch_finite(a, 0.6, k) * (1.0 - a * 0.6 ** k)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)


# Integer arguments that are not integers: before, k = 2.5 (and 2.0) was
# truncated to 2, "2" taken as 2 by theta_pair, and "2" and nan leaked
# TypeError, ValueError or OverflowError.
_NOT_INTEGERS = (2.5, 2.0, -2.5, "2", math.nan, math.inf)


@pytest.mark.parametrize("k", _NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("call", (
    lambda k: qpoch_finite(0.3, 0.5, k),
    lambda k: qpoch_signed(0.3, 0.5, k),
    lambda k: theta_pair(0.7 + 0.2j, k, 0.5),
), ids=("qpoch_finite", "qpoch_signed", "theta_pair"))
def test_integer_argument_that_is_not_an_integer_refused(call, k):
    with pytest.raises(InvalidArgumentError, match="k must be an integer"):
        call(k)


class TestQpochSigned:
    def test_matches_finite_for_nonnegative(self):
        for k in range(5):
            assert qpoch_signed(0.3, 0.5, k) == qpoch_finite(0.3, 0.5, k)

    def test_reciprocal_convention(self):
        a, b, n = 0.3 + 0.2j, 0.5, 4
        assert qpoch_signed(a, b, -n) * qpoch_finite(a * b ** -n, b, n) == \
            pytest.approx(1.0, rel=1e-14)

    def test_reciprocal_pole(self):
        # a * b^{-3} = 2, and (2; 0.5)_3 contains the factor 1 - 2*0.5 = 0
        with pytest.raises(PoleGuardError):
            qpoch_signed(0.25, 0.5, -3)


class TestQpochInfinite:
    def test_zero_parameter(self):
        ev = qpoch_infinite(0.0, 0.5, 1e-12)
        assert ev.value == 1.0
        assert ev.terms_used >= 1
        assert not ev.degenerate

    def test_degenerate_zero(self):
        ev = qpoch_infinite(1.0, 0.5, 1e-12)
        assert ev.value == 0.0
        assert ev.degenerate
        assert ev.tail_bound == 0.0

    def test_doubling_identity(self):
        lhs = qpoch_infinite(-1.0, 0.25, 1e-12)
        rhs = qpoch_infinite(-0.25, 0.25, 1e-12)
        budget = lhs.tail_bound + 2.0 * rhs.tail_bound
        assert abs(lhs.value - 2.0 * rhs.value) <= budget + 1e-14

    @pytest.mark.parametrize("k", range(1, 11))
    def test_splitting_identity(self, k):
        a, b = -1.3 + 0.7j, 0.45
        whole = qpoch_infinite(a, b, 1e-13)
        split = qpoch_finite(a, b, k) * qpoch_infinite(a * b ** k, b, 1e-13).value
        assert whole.value == pytest.approx(split, rel=1e-11)

    def test_tail_bound_is_honest(self):
        a, b = 2.7 - 1.1j, 0.8
        rough = qpoch_infinite(a, b, 1e-4)
        sharp = qpoch_infinite(a, b, 1e-15)
        assert abs(rough.value - sharp.value) <= rough.tail_bound

    def test_bad_tol_rejected(self):
        with pytest.raises(InvalidArgumentError):
            qpoch_infinite(0.5, 0.5, 0.0)

    def test_more_factors_than_the_cap_refused_up_front(self):
        # |a| b^K reaches the cutoff only after about 2.6e7 factors; the
        # cap is 2e6.  Before, all 2e6 factors ran and math.exp overflowed.
        with pytest.raises(InvalidArgumentError, match="factors"):
            qpoch_infinite(1e100, 0.99999)
        # About 3.8e5 factors: under the cap, so it evaluates.
        ev = qpoch_infinite(0.5, 0.9999)
        assert 0 < ev.terms_used <= qcalculus._MAX_FACTORS
        assert math.isfinite(ev.tail_bound)

    @pytest.mark.parametrize("a, base", (
        # Euler's tail: finite parts whose modulus abs cannot return.
        (complex(-11976007705743.62, 26168054239776.934), 0.5),
        # The log series' tail: exp(-s) past the float range.
        (-0.5, 0.9999),
    ), ids=("euler", "log-series"))
    def test_value_past_the_float_range_uncertified(self, a, base):
        ev = qpoch_infinite(a, base)
        assert not cmath.isfinite(ev.value)
        assert ev.tail_bound == math.inf and not ev.degenerate

    def test_zero_factor_before_an_unbounded_rest(self):
        # 1 - a 0.9986 is computed as 0 at a = 1/0.9986, which is not exactly
        # 0.9986**-1; the factors after it are bounded only by
        # e^{0.9986/0.0014} > e^700: the value 0, uncertified.
        ev = qpoch_infinite(1 / 0.9986, 0.9986)
        assert ev.value == 0 and ev.tail_bound == math.inf
        assert not ev.degenerate


class TestModulusPastTheFloatRange:
    """``abs`` of finite parts whose modulus is past the float range raises
    ``OverflowError``; the helpers read it as inf."""

    BIG = complex(1.5e308, 1.5e308)

    def test_helpers_read_inf(self):
        assert qcalculus._modulus(self.BIG) == math.inf
        assert qcalculus._rel_bound(self.BIG, 1.0) == math.inf
        assert qcalculus._tail(self.BIG, 1e-16) == math.inf

    def test_power_distance_skips_a_power_that_underflows(self):
        # 0.5**1075 is 0 (x / 0 raises): the neighbour 0.5**1074 matches.
        assert qcalculus._power_distance(5e-324, 0.5) == 0.0


class TestQpochMulti:
    def test_matches_individual_product(self):
        args = [0.3, -0.4 + 0.2j, 1.7j]
        multi = qpoch_multi(args, 0.5, 1e-13)
        single = 1.0 + 0.0j
        for a in args:
            single *= qpoch_infinite(a, 0.5, 1e-13).value
        assert multi.value == pytest.approx(single, rel=1e-12)

    def test_degenerate_propagates(self):
        ev = qpoch_multi([0.3, 1.0, -0.2], 0.5, 1e-12)
        assert ev.value == 0.0
        assert ev.degenerate

    @pytest.mark.parametrize("bad", (math.inf, complex(1.5e308, 1.5e308),
                                     complex(math.nan, 0.0)))
    @pytest.mark.parametrize("where", (0, 2, 4))
    def test_argument_without_finite_modulus_refused(self, bad, where):
        # A degenerate factor elsewhere does not hide the refusal.
        args = [0.3 + 0.2j, 1.0, -0.7, 1e-3j, -2.5 + 1.0j]
        args[where] = bad
        with pytest.raises(InvalidArgumentError, match="no finite modulus"):
            qpoch_multi(args, 0.5, 1e-13)

    @staticmethod
    def _refusal(call):
        try:
            call()
        except InvalidArgumentError as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("args, base, tol", (
        ([0.3, math.inf, -0.2], 0.5, 1e-12),                   # non-finite a
        ([complex(math.nan, 0.0), 0.3], 0.5, 0.0),             # tol first
        ([0.3, 0.2], 0.5, -1.0),
        ([0.3, 0.2], 0.5, math.nan),
        ([0.3, 0.2, 0.1], 0.5, 5e-324),                        # tol / 3 is 0
        ([math.inf, 0.3], 0.5, 2e-323),                        # a, then
        ([0.3, math.inf], 0.5, 2e-323),                        # the cutoff
        ([math.inf, 0.3], 1.5, 1e-12),                         # base first
        ([0.3], 0.0, math.nan),
        ([0.3], math.nan, 1e-12),
        ([0.3, 1e100, math.inf], 0.99999, 1e-12),              # factors
        ([0.3, math.inf, 1e100], 0.99999, 1e-12),
    ))
    def test_refusals_are_qpoch_infinites(self, args, base, tol):
        # The base first, then each argument's refusal by qpoch_infinite at
        # the split tol, in argument order.
        def each():
            qcalculus._base_value(base)
            for a in args:
                qpoch_infinite(a, base, tol / len(args))

        want = self._refusal(each)
        assert want is not None
        assert self._refusal(lambda: qpoch_multi(args, base, tol)) == want

    @pytest.mark.parametrize("tol", (0.0, -1.0, math.nan))
    def test_empty_list_refuses_a_tol_that_is_not_positive(self, tol):
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            qpoch_multi([], 0.5, tol)
        assert qpoch_multi([], 0.5, 1e-12) == SeriesEval(1 + 0j, 0, 0.0)


class TestThetaPair:
    def test_k0_sides_identical(self):
        tp = theta_pair(2.0, 0, 0.3)
        assert tp.lhs == tp.rhs
        assert tp.residual == 0.0

    def test_positive_shift(self):
        assert theta_pair(2.0, 3, 0.3).residual < 1e-10

    def test_negative_shift_complex(self):
        assert theta_pair(-1.5 + 0.5j, -2, 0.5).residual < 1e-10

    def test_absolute_mode_near_lattice_zero(self):
        tp = theta_pair(0.3 ** 2, 5, 0.3)
        assert tp.absolute
        assert abs(tp.lhs) < 1e-12 and abs(tp.rhs) < 1e-12

    def test_zero_a_rejected(self):
        with pytest.raises(InvalidArgumentError):
            theta_pair(0.0, 1, 0.5)

    def test_rhs_scale_underflow_refused(self):
        # (-a)**(-k) divides by a power of a that underflows to 0
        with pytest.raises(InvalidArgumentError,
                           match="rhs scale is past the float range"):
            theta_pair(1e-300 + 1e-300j, 40, QBase(0.5))

    @pytest.mark.parametrize("a,k", [
        (0.5 + 0.9j, 5), (1.9 - 0.3j, -5), (-0.6 - 0.6j, 2), (1.2, 4),
    ])
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.8])
    def test_spot_grid(self, a, k, b):
        assert theta_pair(a, k, b, tol=1e-13).residual < 1e-10


class TestPhi21Direct:
    def test_z_zero_is_one(self):
        ev = phi21_direct(0.7, -0.3, 0.4, 0.25, 0.0)
        assert ev.value == 1.0
        assert ev.terms_used <= 2  # the k=1 term is exactly 0
        assert ev.tail_bound == 0.0

    def test_unit_upper_parameter_terminates(self):
        ev = phi21_direct(1.0, 0.2, 0.3, 0.5, 0.4)
        assert ev.value == 1.0
        assert ev.tail_bound == 0.0

    def test_unit_second_parameter_terminates(self):
        ev = phi21_direct(0.2, 1.0, 0.3, 0.5, 0.4)
        assert ev.value == 1.0

    def test_truncation_self_consistency(self):
        kw = dict(tol=1e-13)
        e50 = phi21_direct(-0.5, 0.25, 0.5, 0.25, 0.3, max_terms=50, **kw)
        e100 = phi21_direct(-0.5, 0.25, 0.5, 0.25, 0.3, max_terms=100, **kw)
        assert abs(e50.value - e100.value) <= e50.tail_bound + e100.tail_bound

    def test_terminating_snap_exact_terms(self):
        # a = base^{-3}: exactly 4 terms, no tail; the bound covers their
        # rounding
        mp = pytest.importorskip("mpmath").mp
        ev = phi21_direct(8.0, 0.3, 0.7, 0.5, 2.5)
        assert ev.terms_used == 4
        with mp.workdps(40):
            exact = phi21_terms(mp, 8.0, 0.3, 0.7, 0.5, 2.5, 4)
            assert abs(mp.mpc(ev.value) - exact) <= ev.tail_bound \
                < 1e-13 * abs(ev.value)

    def test_snap_tolerates_relative_jitter(self):
        exact = phi21_direct(8.0, 0.3, 0.7, 0.5, 2.5)
        jitter = phi21_direct(8.0 * (1.0 + 1e-10), 0.3, 0.7, 0.5, 2.5)
        assert jitter.terms_used == exact.terms_used

    def test_pole_in_c(self):
        with pytest.raises(PoleInCError):
            phi21_direct(0.3, 0.2, 4.0, 0.5, 0.1)

    def test_divergent_outside_disc(self):
        with pytest.raises(DivergentSeriesError):
            phi21_direct(0.3, 0.2, 0.7, 0.5, 1.2)

    def test_terminating_overrides_divergence(self):
        mp = pytest.importorskip("mpmath").mp
        ev = phi21_direct(8.0, 0.2, 0.7, 0.5, 1.5)
        assert math.isfinite(abs(ev.value))
        with mp.workdps(40):
            exact = phi21_terms(mp, 8.0, 0.2, 0.7, 0.5, 1.5, 4)
            assert abs(mp.mpc(ev.value) - exact) <= ev.tail_bound \
                < 1e-13 * abs(ev.value)

    def test_exhaustion_reports_infinite_tail(self):
        ev = phi21_direct(0.9, 0.9, 0.3, 0.9, 0.99, max_terms=5)
        assert math.isinf(ev.tail_bound)

    def test_tail_bound_is_honest(self):
        loose = phi21_direct(-0.5, 0.25, 0.5, 0.25, 0.3, tol=1e-4)
        tight = phi21_direct(-0.5, 0.25, 0.5, 0.25, 0.3, tol=1e-15)
        assert abs(loose.value - tight.value) <= loose.tail_bound


class TestPhi21Continued:
    def test_zero_lambda_rejected(self):
        with pytest.raises(InvalidArgumentError, match="lam must be nonzero"):
            phi21_continued(0j, 0.5, B)

    def test_overlap_agreement_with_direct(self):
        q, kappa = 0.5, 0.5
        lam = cmath.exp(0.3j)
        direct = phi21_direct(q / lam, lam * q, q * q, q * q, -q * q / kappa,
                              tol=1e-13)
        cont = phi21_continued(lam, kappa, B, tol=1e-13)
        assert abs(direct.value - cont.value) / abs(direct.value) < 1e-10

    def test_pole_guard_on_lambda_lattice(self):
        for lam in (0.5, 1.0, 2.0):
            with pytest.raises(PoleGuardError):
                phi21_continued(lam, 0.4, B)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -1.3, complex(1.5e308, 1.5e308)])
    def test_kappa_domain(self, kappa):
        with pytest.raises(InvalidArgumentError):
            phi21_continued(cmath.exp(0.3j), kappa, B)

    @pytest.mark.parametrize("phase", (1.0, cmath.exp(0.3j)))
    def test_products_past_the_float_range_refused_before_any_series_term(
            self, phase, monkeypatch):
        # (-q^3/(lam kappa); q^2)_inf leaves the float range at kappa = q^66.
        def no_sum(*args):
            raise AssertionError("a series was summed")

        lam = B.q ** 0.9
        assert math.isfinite(phi21_continued(lam, B.q ** 64, B).tail_bound)
        monkeypatch.setattr(qcalculus, "phi21_kernel", no_sum)
        monkeypatch.setattr(qcalculus, "phi21_window_kernel", no_sum)
        with pytest.raises(InvalidArgumentError, match="at kappa = .* past the float"):
            phi21_continued(lam, phase * B.q ** 66, B)

    def test_small_second_term_near_degeneracy(self):
        # With lam just off q, the lam-branch prefactor dominates the sum.
        q = B.q
        q2 = q * q
        lam = q * (1.0 + 1e-3)
        kappa = q ** 3
        num = qpoch_multi(
            [lam * q, lam * q, -q2 * q / (lam * kappa), -lam * kappa / q],
            q2, 1e-13)
        den = qpoch_multi([q2, lam * lam, -q2 / kappa, -kappa], q2, 1e-13)
        inner = phi21_direct(q / lam, q / lam, q2 / (lam * lam), q2, -kappa,
                             tol=1e-13)
        term_a = num.value / den.value * inner.value
        total = phi21_continued(lam, kappa, B, tol=1e-13)
        assert abs(total.value - term_a) < 0.1 * abs(term_a)


def _two_term_reference(mp, q, lam, kappa):
    """T(lam) + T(1/lam) of :func:`phi21_continued` at mp's precision."""
    q, lam, kappa = mp.mpf(q), mp.mpc(lam), mp.mpc(kappa)
    q2 = q * q
    total = 0
    for u in (lam, 1 / lam):
        num = mp.qp(u * q, q2) ** 2 * mp.qp(-q2 * q / (u * kappa), q2) \
            * mp.qp(-u * kappa / q, q2)
        den = mp.qp(q2, q2) * mp.qp(u * u, q2) * mp.qp(-q2 / kappa, q2) \
            * mp.qp(-kappa, q2)
        total += num / den * mp.qhyper([q / u, q / u], [q2 / (u * u)], q2, -kappa)
    return total


class TestContinuationPole:
    """At kappa = -q^{2k}, k >= 1, the factor ``1 + q^{2k}/kappa`` of
    ``(-q^2/kappa; q^2)_inf`` vanishes: ``phi21_continued`` has a pole.
    Within EPS_POLE of it the input is refused; just outside, the value
    carries the rounding of -q^2/kappa amplified by 1/d (it missed its
    certificate 3.8x at d = 1e-4 and 13,000x at d = 1e-8)."""

    @pytest.mark.parametrize("d", (0.0, 5e-10, -5e-10))
    @pytest.mark.parametrize("k", (1, 2, 32))
    def test_refused_before_any_kernel(self, k, d, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("a kernel ran")

        qcalculus._qpoch_infinite.cache_clear()
        monkeypatch.setattr(qcalculus, "qpoch_infinite_kernel", no_kernel)
        monkeypatch.setattr(qcalculus, "phi21_kernel", no_kernel)
        monkeypatch.setattr(qcalculus, "phi21_window_kernel", no_kernel)
        with pytest.raises(PoleGuardError, match=rf"\(k = {k}\)"):
            phi21_continued(B.q ** 0.9, -B.q ** (2 * k) * (1.0 + d), B)

    @pytest.mark.parametrize("k", (1, 2))
    def test_within_its_bound_outside_the_guard_band(self, k):
        mp = pytest.importorskip("mpmath").mp
        q, lam = B.q, B.q ** 0.9
        with mp.workdps(40):
            for d in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, -1e-6):
                kappa = -q ** (2 * k) * (1.0 + d)
                ev = phi21_continued(lam, kappa, B)
                ref = _two_term_reference(mp, q, lam, kappa)
                assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, d


class TestContinuationNearTheLambdaLattice:
    """Near lam**2 = q^{2j} a factor 1 - f of the two-term sum is about d
    in size, d the relative distance of lam**2 from the lattice, and the
    rounding of 1/lam, u q and u^2 enters the value amplified by 1/d.
    The sum's near-lattice term covers it (a bound without it missed by
    up to 5,700x at q = 0.5, j = 0, d = 1e-7)."""

    @pytest.mark.parametrize("j", range(-2, 3))
    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_within_its_certificate(self, q, j):
        mp = pytest.importorskip("mpmath").mp
        base = QBase(q)
        with mp.workdps(50):
            for d in (1e-3, 1e-5, 1e-7, -1e-6, 1e-6j):
                lam = q ** j * cmath.sqrt(1.0 + d)
                for kappa in (0.3, -0.2 + 0.3j):
                    ev = phi21_continued(lam, kappa, base)
                    ref = _two_term_reference(mp, q, lam, kappa)
                    assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (d, kappa)


class TestPhi21Heine:
    def test_agrees_with_direct_inside_disc(self):
        args = (-2.0, 0.3, 0.7, 0.5, 0.6)
        d = phi21_direct(*args, tol=1e-13)
        h = phi21_heine(*args, tol=1e-13)
        assert abs(d.value - h.value) / abs(d.value) < 1e-10

    def test_extends_past_unit_disc(self):
        ev = phi21_heine(-4.0, 0.3, 0.25, 0.5, -1.5, tol=1e-12)
        assert math.isfinite(abs(ev.value))
        assert ev.tail_bound < 1e-9 * abs(ev.value)

    def test_outside_disc_self_consistent(self):
        a = phi21_heine(-4.0, 0.3, 0.25, 0.5, -1.5, tol=1e-8)
        b = phi21_heine(-4.0, 0.3, 0.25, 0.5, -1.5, tol=1e-14)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound

    def test_large_b_rejected(self):
        with pytest.raises(InvalidArgumentError):
            phi21_heine(0.3, 1.1, 0.7, 0.5, 0.2)

    @pytest.mark.parametrize("b", (0.0, 0j, 1e-200 * 1e-200))
    def test_zero_b_rejected(self, b):
        # The transformed upper parameter c / b is undefined; a b that
        # underflowed to 0 included.
        with pytest.raises(InvalidArgumentError, match="needs b != 0"):
            phi21_heine(0.3, b, 0.25, 0.5, 3.0)

    def test_pole_in_c(self):
        with pytest.raises(PoleInCError):
            phi21_heine(0.3, 0.2, 2.0, 0.5, 0.1)

    def test_pole_in_transformed_c(self):
        # a*z = 2 = base^{-1} poisons the transformed lower parameter
        with pytest.raises(PoleInCError):
            phi21_heine(4.0, 0.2, 0.7, 0.5, 0.5)

    def test_z_on_lattice_is_guarded(self):
        with pytest.raises(PoleGuardError):
            phi21_heine(-0.5, 0.3, 0.7, 0.5, 2.0)


class TestGuardBandConstant:
    def test_value(self):
        assert EPS_POLE == 1e-9


_NON_FINITE_CALLS = {
    "phi21_direct_a": lambda x: phi21_direct(x, 0.3, 0.7, 0.5, 0.2),
    "phi21_direct_b": lambda x: phi21_direct(0.2, x, 0.7, 0.5, 0.2),
    "phi21_direct_c": lambda x: phi21_direct(0.2, 0.3, x, 0.5, 0.2),
    "phi21_direct_z": lambda x: phi21_direct(0.2, 0.3, 0.7, 0.5, x),
    "phi21_direct_z_terminating": lambda x: phi21_direct(4.0, 0.3, 0.7, 0.5, x),
    "qpoch_infinite": lambda x: qpoch_infinite(x, 0.5),
    "qpoch_finite": lambda x: qpoch_finite(x, 0.5, 3),
    "qpoch_signed": lambda x: qpoch_signed(x, 0.5, 2),
    "theta_pair": lambda x: theta_pair(x, 2, 0.5),
    "phi21_continued": lambda x: phi21_continued(x, 0.4, B),
    "phi21_heine": lambda x: phi21_heine(0.3, 0.2, 0.7, 0.5, x),
    "pochhammer_ratio_k1": lambda x: pochhammer_ratio(B, x, 1),
    "pochhammer_ratio_k3": lambda x: pochhammer_ratio(B, x, 3),
    "pochhammer_ratio_naive": lambda x: pochhammer_ratio_naive(B, x, 2),
    "coamen_direct": lambda x: coamen_coeff(B, 0, x, IqPoint.positive(-1)),
    "coamen_heine": lambda x: coamen_coeff(B, 0, x, IqPoint.positive(1)),
    "coamen_raw": lambda x: coamen_coeff(B, 0, x, IqPoint.positive(-1),
                                         form="raw"),
    "from_z": lambda x: SpectralParam.from_z(x, B),
}


class TestNonFiniteRefusal:
    """Non-finite input is refused with a typed error at every entry."""

    @pytest.mark.parametrize("bad", (complex("nan"), math.inf,
                                     complex(0.0, -math.inf)),
                             ids=("nan", "inf", "imag_inf"))
    @pytest.mark.parametrize("entry", sorted(_NON_FINITE_CALLS))
    def test_refused(self, entry, bad):
        with pytest.raises(InvalidArgumentError):
            _NON_FINITE_CALLS[entry](bad)

    @pytest.mark.parametrize("z", (-2000.0, complex(-2000.0, 1.0), 2000.0))
    def test_from_z_refuses_lam_past_the_float_range(self, z):
        # |lam| = q**Re z overflows (Re z = -2000) or underflows to 0
        with pytest.raises(InvalidArgumentError):
            SpectralParam.from_z(z, B)
        assert SpectralParam.from_z(complex(z).real / 2.0, B).lam != 0

    @pytest.mark.parametrize("entry", (
        "qpoch_infinite", "theta_pair", "phi21_direct_a", "phi21_direct_b",
        "phi21_direct_c", "phi21_direct_z", "phi21_direct_z_terminating",
        "phi21_heine"))
    def test_refuses_a_modulus_past_the_float_range(self, entry):
        # Finite parts, but abs() of the number overflows.
        with pytest.raises(InvalidArgumentError):
            _NON_FINITE_CALLS[entry](complex(1.5e308, 1.5e308))

    @pytest.mark.parametrize("call", (
        lambda: qpoch_infinite(0.5, 0.5, math.nan),
        lambda: qpoch_multi([0.3], 0.5, math.nan),
        lambda: phi21_direct(0.2, 0.3, 0.7, 0.5, 0.2, tol=math.nan),
    ), ids=("qpoch_infinite", "qpoch_multi", "phi21_direct"))
    def test_nan_tol_refused(self, call):
        with pytest.raises(InvalidArgumentError):
            call()

    def test_tol_that_underflows_the_cutoff_refused(self):
        # tol (1 - base) / 4 rounds to 0: no truncation could meet it.
        with pytest.raises(InvalidArgumentError, match="cutoff"):
            qpoch_infinite(0.3, 0.5, 1e-323)
        # At 1e-300 the truncation is below 1e-300 and the bound is the
        # kernel's rounding bound: 4 u per factor, 8 u to close, and (the
        # tail starting below |a| b^K < 1e-9) far less than 4 u per term.
        mp = pytest.importorskip("mpmath").mp
        ev = qpoch_infinite(0.3, 0.5, 1e-300)
        with mp.workdps(40):
            err = abs(mp.mpc(ev.value) - explicit_qpoch(mp, 0.3, 0.5))
        assert err <= ev.tail_bound \
            <= (4 * ev.terms_used + 8) * 2.0 ** -53 * abs(ev.value)

    def test_overflowing_product_is_uncertified(self):
        # |a| is finite, but the factors 1 - a base**i overflow to nan:
        # the bound must say inf, which a check for an uncertified result
        # catches, not nan.
        a = complex(-1e307, 1.5e308)
        ev = qpoch_infinite(a, 0.5)
        assert not cmath.isfinite(ev.value)
        assert ev.tail_bound == math.inf
        assert qpoch_multi([0.3, a], 0.5).tail_bound == math.inf

    @pytest.mark.parametrize("k", (1, 2, 3, math.inf))
    @pytest.mark.parametrize("lam", (complex(1.5e308, 1.5e308), 1e200, 1e-200),
                             ids=("modulus_overflows", "square_overflows",
                                  "square_underflows"))
    def test_pochhammer_ratio_refuses_a_square_past_the_float_range(self, lam, k):
        with pytest.raises(InvalidArgumentError, match="float range"):
            pochhammer_ratio(B, lam, k)

    def test_pole_scan_past_the_float_range_is_no_refusal(self):
        # |c| is finite, but the pole scan's candidates base**(-1024) and
        # c - base**(-1023) are not: c is simply far from every pole.
        mp = pytest.importorskip("mpmath").mp
        ev = phi21_direct(0.2, 0.3, complex(-1e307, 1.5e308), 0.5, 0.2)
        assert abs(ev.value - 1.0) < 1e-300
        with mp.workdps(40):  # the terms after the first are below 1e-308
            exact = phi21_terms(mp, 0.2, 0.3, complex(-1e307, 1.5e308), 0.5, 0.2,
                                ev.terms_used + 5)
            assert abs(mp.mpc(ev.value) - exact) <= ev.tail_bound < 1e-15


_UNCACHED = qcalculus._qpoch_infinite.__wrapped__


class TestQpochInfiniteCache:
    """The memoised :func:`qpoch_infinite` returns what a fresh evaluation
    of its arguments returns, field for field (``repr`` tells signed zeros
    apart), cold or warm."""

    @staticmethod
    def _assert_fresh(a, base, tol=1e-12):
        b = base.q if isinstance(base, QBase) else base
        fresh = _UNCACHED(complex(a), b, tol)
        assert repr(qpoch_infinite(a, base, tol)) == repr(fresh)

    def test_seeded_random_inputs(self):
        rng = random.Random(6)
        draws = [(complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
                  rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-15.0, -2.0))
                 for _ in range(300)]
        qcalculus._qpoch_infinite.cache_clear()
        for _ in range(2):  # cold, then warm
            for a, base, tol in draws:
                self._assert_fresh(a, base, tol)
        info = qcalculus._qpoch_infinite.cache_info()
        assert info.maxsize == 1024
        assert info.hits == info.misses == len(draws)

    @pytest.mark.parametrize("group", (
        (complex(0.7, 0.0), complex(0.7, -0.0)),
        (complex(-2.5, 0.0), complex(-2.5, -0.0)),
        (complex(0.0, 0.7), complex(-0.0, 0.7)),
        (complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
         complex(-0.0, -0.0)),
        (complex(1.0, 0.0), complex(1.0, -0.0)),
    ), ids=("real", "negative_real", "imaginary", "zero", "degenerate"))
    def test_signed_zeros_share_an_entry_harmlessly(self, group):
        # complex(x, 0.0) == complex(x, -0.0), so these are one cache key:
        # whichever sign fills the entry, the other gets its own result, at
        # a base on either side of the switch between the two tails.
        for base in (0.5, 0.99):
            for fill, ask in itertools.permutations(group, 2):
                qcalculus._qpoch_infinite.cache_clear()
                qpoch_infinite(fill, base)
                self._assert_fresh(ask, base)

    def test_degenerate_entry(self):
        qcalculus._qpoch_infinite.cache_clear()
        for _ in range(2):
            self._assert_fresh(0.5 ** -3, 0.5)
        assert qpoch_infinite(0.5 ** -3, 0.5).degenerate

    def test_tol_and_base_are_part_of_the_key(self):
        a = -1.3 + 0.7j
        qcalculus._qpoch_infinite.cache_clear()
        for base, tol in ((0.5, 1e-12), (0.5, 1e-4), (0.45, 1e-12),
                          (B, 1e-4), (0.5, 1e-12)):
            self._assert_fresh(a, base, tol)
        assert qpoch_infinite(a, 0.5, 1e-4).terms_used \
            < qpoch_infinite(a, 0.5, 1e-12).terms_used
        assert qpoch_infinite(a, 0.45).value != qpoch_infinite(a, 0.5).value

    def test_refusal_is_not_cached(self):
        qcalculus._qpoch_infinite.cache_clear()
        for _ in range(2):
            for bad in ((0.5, 0.5, math.nan), (complex("nan"), 0.5, 1e-12),
                        (complex(1.5e308, 1.5e308), 0.5, 1e-12),
                        (0.5, 1.5, 1e-12)):
                with pytest.raises(InvalidArgumentError):
                    qpoch_infinite(*bad)
            self._assert_fresh(0.5, 0.5)
        info = qcalculus._qpoch_infinite.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_shared_result_is_read_only(self):
        ev = qpoch_infinite(0.3, 0.5)
        assert qpoch_infinite(0.3, 0.5) is ev
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.value = 0j


def _arith_tools():
    """hypothesis and mpmath, which the arithmetic property tests need."""
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies, pytest.importorskip("mpmath")


def _series_evals(st, count):
    """``count`` SeriesEvals: |value| in [1e-3, 1e3], relative error in [1e-20, 0.9]."""
    one = st.builds(
        lambda lg, phase, lr, terms: SeriesEval(
            cmath.rect(10.0 ** lg, phase), terms, 10.0 ** (lg + lr)),
        st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi),
        st.floats(-20.0, math.log10(0.9)), st.integers(0, 50))
    return st.tuples(*[one] * count)


def _disc_points(mp, ev):
    """ev's value and eight points on the edge of its error disc, exactly.

    Four directions are fixed in the plane and four are turned with the
    value's phase, so relative and absolute worst cases both occur.
    """
    v, t = mp.mpc(ev.value), mp.mpf(ev.tail_bound)
    turns = (1, 1j, -1, -1j)
    return [v] + [v + t * d for d in turns] + [v + t * v / abs(v) * d for d in turns]


def _assert_covers(mp, op, result, *evs):
    """Moving each operand within its disc moves the exact ``op`` by <= the bound."""
    with mp.workdps(50):
        centre = op(*(mp.mpc(ev.value) for ev in evs))
        worst = max(abs(op(*pts) - centre) for pts in
                    itertools.product(*(_disc_points(mp, ev) for ev in evs)))
    # Only the rounding of the bound's own few flops is forgiven.
    assert worst <= result.tail_bound * (1.0 + 1e-12)


class TestSeriesEvalArithmetic:
    """The one propagation rule that every composite evaluator uses."""

    @pytest.mark.parametrize("op", [operator.mul, operator.truediv, operator.add],
                             ids=["mul", "truediv", "add"])
    def test_binary_bound_covers_the_discs(self, op):
        hyp, st, mp = _arith_tools()

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(_series_evals(st, 2))
        def check(pair):
            a, b = pair
            res = op(a, b)
            assert res.value == op(a.value, b.value)
            assert res.terms_used == a.terms_used + b.terms_used
            _assert_covers(mp, op, res, a, b)

        check()

    def test_scalar_product_and_sqrt_cover_the_disc(self):
        hyp, st, mp = _arith_tools()
        scalars = st.builds(cmath.rect, st.floats(1e-3, 1e3), st.floats(-4.0, 4.0))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(_series_evals(st, 1), st.one_of(st.just(0.0), scalars))
        def check(single, s):
            (a,) = single
            scaled, root = s * a, a.sqrt()
            assert scaled.value == s * a.value and scaled.terms_used == a.terms_used
            assert root.value == cmath.sqrt(a.value)
            _assert_covers(mp, lambda x: mp.mpc(s) * x, scaled, a)
            _assert_covers(mp, mp.sqrt, root, a)

        check()

    def test_quotient_worst_case(self):
        # A divisor off by 50% can halve, so the quotient can double; the
        # quotient's own rounding comes on top.
        res = SeriesEval(1.0, 1, 0.0) / SeriesEval(2.0, 1, 1.0)
        assert res.tail_bound == 0.5 * (1.0 + qcalculus._OP_ROUNDING)
        assert (SeriesEval(1.0, 1, 0.0) / SeriesEval(2.0, 1, 2.0)).tail_bound \
            == math.inf
        with pytest.raises(TypeError):
            SeriesEval(1.0, 1, 0.0) / 2.0

    def test_tiny_relative_errors_survive_compounding(self):
        # Beside each product's own rounding, relative errors far below it
        # are not lost.
        a = SeriesEval(1.0, 1, 1e-20)
        op = qcalculus._OP_ROUNDING
        assert (a * a).tail_bound == 2e-20 + op
        assert (a * a * a).tail_bound - 2 * op == pytest.approx(3e-20, rel=1e-3)

    @pytest.mark.parametrize("divisor", [SeriesEval(0.0, 4, 0.0, degenerate=True),
                                         SeriesEval(0.0, 4, 1e-3),
                                         SeriesEval(0j, 4, 0.0)])
    def test_vanishing_divisor_raises(self, divisor):
        with pytest.raises(PoleGuardError):
            SeriesEval(1.0, 1, 0.0) / divisor

    def test_uncertified_operand_gives_inf(self):
        unc = SeriesEval(2.0 + 1.0j, 200, math.inf)
        exact_zero = SeriesEval(0j, 3, 0.0, degenerate=True)
        ok = SeriesEval(0.5, 3, 1e-14)
        for res in (unc * ok, ok * unc, unc * exact_zero, exact_zero * unc,
                    0.0 * unc, unc / ok, ok / unc, unc + ok, 1.0 + unc,
                    unc.sqrt(), sum([ok, unc])):
            assert res.tail_bound == math.inf

    def test_sqrt_refuses_a_disc_across_the_branch_cut(self):
        assert SeriesEval(-1.0 + 1e-3j, 1, 1e-2).sqrt().tail_bound == math.inf
        assert math.isfinite(SeriesEval(-1.0 + 1e-1j, 1, 1e-2).sqrt().tail_bound)
        assert SeriesEval(4.0, 1, 8.0).sqrt().tail_bound == math.inf


def _outcome(call):
    """``repr`` of ``call()``, or of the error it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return repr(exc)


def _heine_reference(a, b, c, base, z, tol, max_terms):
    """``phi21_heine`` composed from its guards, ``qpoch_multi``,
    ``phi21_direct`` and the ``SeriesEval`` operators."""
    if abs(b) >= 1.0:
        raise InvalidArgumentError("phi21_heine needs |b| < 1")
    for x, pole in ((c, "c on the pole lattice base**(-j)"),
                    (a * z, "transformed parameter a*z on the pole lattice")):
        if qcalculus._near_inv_power(x, base) is not None:
            raise PoleInCError(pole)
    jz = qcalculus._near_inv_power(z, base)
    if jz is not None:
        raise PoleGuardError(f"z within {EPS_POLE} of base**(-{jz}): continuation pole")
    num = qpoch_multi([b, a * z], base, tol / 8.0)
    den = qpoch_multi([c, z], base, tol / 8.0)
    ratio = num / den
    if not ratio.tail_bound < math.inf and not all(
            math.isfinite(qcalculus._modulus(v))
            for v in (num.value, den.value, ratio.value)):
        raise InvalidArgumentError(
            f"a q-Pochhammer product at z = {z!r} is past the float range")
    return ratio * phi21_direct(c / b, z, a * z, base, b, tol=tol / 8.0,
                                max_terms=max_terms)


def _theta_reference(a, k, base, tol):
    """``theta_pair`` composed from ``qpoch_multi`` and the ``SeriesEval``
    operators (the refusals of its powers are ``theta_pair``'s own)."""
    b = base
    shifted = [a * b ** k, b ** (1 - k) / a]
    scale = (-a) ** (-k) * b ** (-k * (k - 1) // 2)
    lhs = qpoch_multi(shifted, b, tol).value
    rhs = (scale * qpoch_multi([a, b / a], b, tol)).value
    diff = abs(lhs - rhs)
    if qcalculus._near_power(a, b) is not None:
        return qcalculus.ThetaPair(lhs, rhs, diff, absolute=True)
    return qcalculus.ThetaPair(lhs, rhs, diff / max(abs(lhs), abs(rhs), 1e-300))


#: The tolerances and term budgets of the float-built reference tests.
REF_TOLS = (1e-6, 1e-9, 1e-12, 1e-16, 1e-100, 1e-300)
REF_TERMS = (3, 200)


class TestFloatBuiltReference:
    """``phi21_heine`` and ``theta_pair`` form their products on floats and
    apply ``SeriesEval``'s rules there; each equals, by ``repr``, refusals
    included, its composition from public calls and the operators."""

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
    def test_heine(self, q):
        rng = random.Random(f"heine-{q}")
        refused = uncertified = 0
        for _ in range(300):
            base = rng.choice((q, q * q))
            a = cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi))
            b = rng.choice((cmath.rect(10.0 ** rng.uniform(-6.0, 0.05),
                                       rng.uniform(-math.pi, math.pi)),
                            -base ** rng.randint(1, 4) * (1.0 + 1e-10)))
            c = rng.choice((base, cmath.rect(10.0 ** rng.uniform(-2.0, 2.0), 1.3)))
            z = rng.choice((-q ** rng.randint(-80, 4),  # the coamen route's -q^e
                            cmath.rect(10.0 ** rng.uniform(-2.0, 40.0),
                                       rng.uniform(-math.pi, math.pi)),
                            base ** -rng.randint(0, 4)
                            * (1.0 + rng.choice((0.0, 1e-10, 1e-8)))))
            tol, max_terms = rng.choice(REF_TOLS), rng.choice(REF_TERMS)
            got = _outcome(lambda: phi21_heine(a, b, c, base, z, tol, max_terms))
            assert got == _outcome(lambda: _heine_reference(
                a, b, c, base, z, tol, max_terms)), (a, b, c, base, z, tol, max_terms)
            refused += "Error(" in got
            uncertified += "tail_bound=inf" in got
        assert refused and uncertified

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
    def test_theta_pair(self, q):
        rng = random.Random(f"theta-{q}")
        refused = absolute = 0
        for _ in range(300):
            base = rng.choice((q, q * q))
            a = rng.choice((cmath.rect(10.0 ** rng.uniform(-3.0, 3.0),
                                       rng.uniform(-math.pi, math.pi)),
                            base ** rng.randint(-5, 5) * (1.0 + rng.choice((0.0, 1e-10))),
                            -1.5, 2))
            k = rng.randint(-60, 60)
            tol = rng.choice(REF_TOLS + (1e-320, -1.0))
            got = _outcome(lambda: theta_pair(a, k, base, tol))
            if "past the float range" in got:  # theta_pair's own power refusal
                refused += 1
                continue
            assert got == _outcome(lambda: _theta_reference(a, k, base, tol)), \
                (a, k, base, tol)
            refused += "Error(" in got
            absolute += "absolute=True" in got
        assert refused and absolute
