"""Unit tests for sweeps, uniform gaps, symbols, and the stable ratio."""

import math

import pytest

from qsu11 import (
    SWEEP_FAMILIES,
    InvalidArgumentError,
    SeriesEval,
    IqPoint,
    PoleGuardError,
    QBase,
    SpectralParam,
    Symbol,
    approx_identity_gap,
    limit_sweep,
    pochhammer_ratio,
    pochhammer_ratio_naive,
    spherical_az,
    symbol_clip_abs,
    symbol_constant,
    uniform_sup_gap,
)
from qsu11 import harness, limitlab
from _mp_reference import Reference
from qsu11.limitlab import MONO_SLACK, SweepRow, _spectrum_window, sweep_report

B = QBase(0.5)

def _spectrum_points(depth):
    return ([IqPoint.positive(k) for k in range(-depth, depth + 1)]
            + [IqPoint.negative(k) for k in range(1, depth + 1)])


def _nan_at(index):
    """A ``spherical_window`` whose element ``index`` of every window is NaN."""
    real = limitlab.spherical_window

    def window(*args, **kw):
        evs = real(*args, **kw)
        if len(evs) > index:
            evs[index] = SeriesEval(complex("nan"), 1, math.inf)
        return evs

    return window


class TestLimitSweep:
    def test_family_roster(self):
        assert SWEEP_FAMILIES == (
            "spherical_case1", "spherical_case2", "spherical_case3",
            "coamen", "averaged_coamen", "b1_ratio",
        )

    def test_case1_chain(self):
        rep = limit_sweep("spherical_case1", B, {"k": 0},
                          (0.9, 0.99, 0.999), 1.0, 1e-3)
        assert rep.verdict == "pass"
        assert rep.monotone_deviation
        assert rep.final_deviation < 1e-3
        assert len(rep.rows) == 3

    def test_single_exact_endpoint(self):
        rep = limit_sweep("spherical_case1", B, None, (1.0,), 1.0, 1e-12)
        assert rep.rows[0].deviation == 0.0
        assert rep.verdict == "pass"

    def test_case23_families(self):
        for family in ("spherical_case2", "spherical_case3"):
            rep = limit_sweep(family, B, {"k": 2}, (0.9, 0.99, 0.999),
                              1.0, 5e-3)
            assert rep.verdict == "pass", family

    def test_case_exponent_validation(self):
        with pytest.raises(InvalidArgumentError):
            limit_sweep("spherical_case1", B, {"k": 1}, (0.9,), 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            limit_sweep("spherical_case2", B, {"k": 0}, (0.9,), 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            limit_sweep("spherical_case3", B, {"k": 0}, (0.9,), 1.0, 1.0)

    def test_coamen_family(self):
        rep = limit_sweep("coamen", B, {"m": 1, "lam": 1.0}, (2, 4, 8, 16),
                          1.0, 1e-6)
        assert rep.verdict == "pass"
        assert rep.monotone_deviation

    def test_averaged_family_takes_pairs(self):
        rep = limit_sweep("averaged_coamen", B, {"m": 0, "lam": 1.0},
                          ((5, 10), (10, 20), (20, 40)), 1.0, 0.15)
        assert rep.verdict == "pass"
        devs = [r.deviation for r in rep.rows]
        assert devs[0] > devs[1] > devs[2]

    def test_b1_family(self):
        lams = tuple(B.q * (1.0 + 10.0 ** -j) for j in (1, 2, 3))
        rep = limit_sweep("b1_ratio", B, {"k": 3}, lams, 0.0, 1e-2)
        assert rep.verdict == "pass"
        assert rep.monotone_deviation

    def test_error_rows_marked_and_failed(self):
        rep = limit_sweep("b1_ratio", B, {"k": 3}, (-B.q,), 0.0, 10.0)
        assert rep.verdict == "fail"
        assert rep.rows[0].note != ""
        assert math.isinf(rep.rows[0].deviation)

    @pytest.mark.parametrize("family, fixed, approach", (
        ("spherical_case1", {}, (0.9, complex("nan"), 0.99)),
        ("spherical_case3", {"k": 1}, (0.9, complex("nan"), 0.99)),
        ("b1_ratio", {"k": 1}, (1.5, complex("nan"), 1.2)),
    ))
    def test_non_finite_point_is_a_failing_row(self, family, fixed, approach):
        rep = limit_sweep(family, B, fixed, approach, 1.0, 10.0)
        assert rep.verdict == "fail"
        assert [bool(r.note) for r in rep.rows] == [False, True, False]
        assert "finite" in rep.rows[1].note
        assert math.isinf(rep.rows[1].deviation)

    def test_lam_with_an_unrepresentable_square_is_a_failing_row(self):
        rep = limit_sweep("b1_ratio", B, {"k": math.inf}, (1.5, 1e-200, 1.2),
                          1.0, 10.0)
        assert rep.verdict == "fail"
        assert [bool(r.note) for r in rep.rows] == [False, True, False]
        assert "float range" in rep.rows[1].note
        assert math.isinf(rep.rows[1].deviation)

    @pytest.mark.parametrize("family, fixed, approach", (
        ("spherical_case1", {"k": -0.5}, (0.9,)),
        ("spherical_case2", {"k": 2.5}, (0.9,)),
        ("spherical_case3", {"k": 2.0}, (0.9,)),
        ("spherical_case1", {"max_terms": 50.7}, (0.9,)),
        ("coamen", {"m": 0.5}, (2,)),
        ("averaged_coamen", {"m": 0.5}, ((3, 2),)),
        ("b1_ratio", {"k": 2.5}, (0.8,)),
        ("b1_ratio", {"k": math.inf, "trunc_K": 60.5}, (0.8,)),
    ))
    def test_non_integer_fixed_param_refused_at_set_up(self, family, fixed,
                                                       approach):
        # It was int()-truncated: {"m": 0.5} evaluated m = 0.
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            limit_sweep(family, B, fixed, approach, 1.0, 10.0)

    @pytest.mark.parametrize("family, approach", (
        ("coamen", (2, 2.7, 3)),
        ("averaged_coamen", ((3, 2), (3, 2.7), (3, 3))),
        ("averaged_coamen", ((3, 2), (3.5, 2), (3, 3))),
    ))
    def test_non_integer_approach_element_is_an_error_row(self, family, approach):
        # 2.7 reported the j = 2 value under param 2.7.
        rep = limit_sweep(family, B, {"m": 0, "lam": 1.0}, approach, 1.0, 10.0,
                          require_monotone=False)
        assert rep.verdict == "fail"
        assert [bool(r.note) for r in rep.rows] == [False, True, False]
        assert "must be an integer" in rep.rows[1].note
        assert math.isinf(rep.rows[1].deviation)

    def test_b1_ratio_takes_an_infinite_k(self):
        rep = limit_sweep("b1_ratio", B, {"k": math.inf, "trunc_K": 60}, (1.5,),
                          0.0, 10.0)
        assert rep.rows[0].note == ""

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            limit_sweep("case1", B, {}, (0.9,), 1.0, 1e-3)

    def test_unknown_fixed_key(self):
        with pytest.raises(InvalidArgumentError):
            limit_sweep("coamen", B, {"m": 0, "depth": 4}, (2,), 1.0, 1.0)

    def test_empty_approach(self):
        with pytest.raises(InvalidArgumentError):
            limit_sweep("spherical_case1", B, {}, (), 1.0, 1e-3)

    def test_bad_threshold(self):
        with pytest.raises(InvalidArgumentError):
            limit_sweep("spherical_case1", B, {}, (0.9,), 1.0, 0.0)

    def test_monotone_flag_optional(self):
        # Reversed chain: deviations increase, final still over threshold
        rep = limit_sweep("spherical_case1", B, {"k": 0},
                          (0.999, 0.9), 1.0, 1.0, require_monotone=False)
        assert not rep.monotone_deviation
        assert rep.verdict == "pass"
        rep = limit_sweep("spherical_case1", B, {"k": 0},
                          (0.999, 0.9), 1.0, 1.0, require_monotone=True)
        assert rep.verdict == "fail"


class TestSweepReport:
    @staticmethod
    def _rows(*devs, note=""):
        return [SweepRow(i, complex(d), d, note if i == 0 else "")
                for i, d in enumerate(devs)]

    def test_monotone_slack_edge(self):
        rep = sweep_report("edge", self._rows(0.0, MONO_SLACK), 1.0)
        assert rep.monotone_deviation
        assert rep.verdict == "pass"
        rep = sweep_report("edge", self._rows(0.0, 2 * MONO_SLACK), 1.0)
        assert not rep.monotone_deviation
        assert rep.verdict == "fail"
        rep = sweep_report("edge", self._rows(0.0, 2 * MONO_SLACK), 1.0,
                           require_monotone=False)
        assert rep.verdict == "pass"

    def test_final_deviation_against_threshold(self):
        assert sweep_report("t", self._rows(0.5, 0.25), 0.25).verdict == "pass"
        assert sweep_report("t", self._rows(0.5, 0.25), 0.2).verdict == "fail"
        # One row (a scalar check) keeps the rule deviation <= threshold.
        for dev in (0.0, 0.25, 0.5, math.nan, math.inf):
            for thr in (0.0, 0.25, math.inf):
                rep = sweep_report("t", self._rows(dev), thr)
                assert rep.monotone_deviation
                assert rep.verdict == ("pass" if dev <= thr else "fail")

    def test_error_note_or_empty_chain_fails(self):
        rep = sweep_report("t", self._rows(0.5, 0.0, note="boom"), 1.0)
        assert rep.monotone_deviation
        assert rep.verdict == "fail"
        rep = sweep_report("t", [], 1.0)
        assert rep.verdict == "fail"
        assert math.isinf(rep.final_deviation)
        # The one row of a check that raised: nan, inf, threshold 0.0.
        (row,) = harness._REFUSED.rows
        assert math.isnan(row.value.real) and row.deviation == math.inf
        assert (harness._REFUSED.threshold, harness._REFUSED.verdict) \
            == (0.0, "fail")

    def test_bounds_count_against_the_threshold(self):
        rows = [SweepRow(0, 0j, 0.5, bound=0.01),
                SweepRow(1, 0j, 0.2, bound=0.05)]
        assert sweep_report("t", rows, 0.25).verdict == "pass"
        assert sweep_report("t", rows, 0.24).verdict == "fail"
        # an uncertified row fails the chain wherever it sits
        rows[0] = SweepRow(0, 0j, 0.5, bound=math.inf)
        rep = sweep_report("t", rows, 1.0)
        assert rep.monotone_deviation and rep.verdict == "fail"
        # One row: judged the same, and the report row gets no chain params.
        for bound, verdict in ((0.25, "pass"), (0.375, "fail"),
                               (math.inf, "fail")):
            row = harness._run_check("s", harness.Check(
                "c", "Eq4.1", {"x": 1}, lambda b=bound: sweep_report(
                    "t", [SweepRow(None, 2j, 0.25, bound=b)], 0.5)))
            assert row["params"] == {"x": 1}
            assert (row["value_re"], row["value_im"], row["deviation"],
                    row["threshold"], row["verdict"]) \
                == (0.0, 2.0, 0.25, 0.5, verdict)


class TestUniformSupGap:
    def test_exactly_zero_at_endpoint(self):
        g = uniform_sup_gap(B, SpectralParam.from_z(1.0, B), 24)
        assert g == 0.0

    def test_window_stability(self):
        zp = SpectralParam.from_z(0.95, B)
        g20 = uniform_sup_gap(B, zp, 20)
        g40 = uniform_sup_gap(B, zp, 40)
        assert abs(g20 - g40) <= 1e-14

    def test_decreases_toward_endpoint(self):
        gaps = [uniform_sup_gap(B, SpectralParam.from_z(z, B), 24)
                for z in (0.9, 0.99, 0.999)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 5e-3

    def test_negative_depth_rejected(self):
        with pytest.raises(InvalidArgumentError):
            uniform_sup_gap(B, SpectralParam.from_z(0.9, B), -1)

    @pytest.mark.parametrize("depth", (2.0, 2.5))
    def test_depth_that_is_not_an_integer_rejected(self, depth):
        # It leaked TypeError from range.
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            uniform_sup_gap(B, SpectralParam.from_z(0.9, B), depth)

    def test_equals_the_pointwise_sup(self):
        # Case 1 in a window is one kernel sum per k, as pointwise; the
        # gap is the sup of |a - 1| + tail_bound, a certified upper bound.
        for z in (0.9, 0.99, 0.3 + 1.7j):
            zp = SpectralParam.from_z(z, B)
            evs = [spherical_az(B, zp, IqPoint.positive(k))
                   for k in range(-24, 1)]
            assert uniform_sup_gap(B, zp, 24) == max(
                abs(ev.value - 1.0) + ev.tail_bound for ev in evs)

    @pytest.mark.parametrize("index", (0, 7, 24))
    def test_nan_coefficient_fails_the_gap(self, index, monkeypatch):
        monkeypatch.setattr(limitlab, "spherical_window", _nan_at(index))
        with pytest.raises(InvalidArgumentError, match="not finite"):
            uniform_sup_gap(B, SpectralParam.from_z(0.9, B), 24)


class TestSymbols:
    def test_clip_abs_profile(self):
        sym = symbol_clip_abs()
        assert sym.decay_at_zero
        assert sym.eval(IqPoint.positive(-5), B) == 1.0
        vals = [abs(sym.eval(IqPoint.positive(k), B)) for k in range(0, 25)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-7

    def test_constant_profile(self):
        sym = symbol_constant(1.0)
        assert not sym.decay_at_zero
        assert sym.eval(IqPoint.positive(9), B) == 1.0


class TestApproxIdentityGap:
    def test_indicator_symbol_reduces_to_single_point(self):
        target = IqPoint.positive(3)
        sym = Symbol("indicator",
                     lambda p, base: 1.0 if p == target else 0.0)
        zp = SpectralParam.from_z(0.9, B)
        g = approx_identity_gap(B, zp, sym, 12)
        expected = abs(spherical_az(B, zp, target).value - 1.0)
        assert g.gap == pytest.approx(expected, rel=1e-12)
        assert g.unit_region == 0.0
        assert g.decay_region == g.gap

    def test_decaying_symbol_gap_shrinks(self):
        sym = symbol_clip_abs()
        gaps = [approx_identity_gap(B, SpectralParam.from_z(z, B), sym, 12).gap
                for z in (0.9, 0.99, 0.999)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.02

    def test_constant_symbol_gives_unweighted_sup(self):
        zp = SpectralParam.from_z(0.999, B)
        g = approx_identity_gap(B, zp, symbol_constant(1.0), 12)
        window_sup = max(
            abs(spherical_az(B, zp, p).value - 1.0)
            for p in [IqPoint.positive(k) for k in range(-12, 13)]
            + [IqPoint.negative(k) for k in range(1, 13)]
        )
        assert g.gap == pytest.approx(window_sup, rel=1e-12)
        # weighting by a symbol bounded by 1 can only shrink the gap
        g_clip = approx_identity_gap(B, zp, symbol_clip_abs(), 12)
        assert g_clip.gap <= g.gap

    def test_depth_validation(self):
        with pytest.raises(InvalidArgumentError):
            approx_identity_gap(B, SpectralParam.from_z(0.9, B),
                                symbol_clip_abs(), 0)

    @pytest.mark.parametrize("depth", (2.0, 2.5))
    def test_depth_that_is_not_an_integer_rejected(self, depth):
        # It leaked TypeError from range.
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            approx_identity_gap(B, SpectralParam.from_z(0.9, B),
                                symbol_clip_abs(), depth)

    @pytest.mark.parametrize("sym", (symbol_clip_abs(), symbol_constant(1.0)),
                             ids=("clip_abs", "constant"))
    def test_matches_a_pointwise_loop(self, sym):
        for z in (0.9, 0.99, 0.999, 0.4 + 2.1j):
            zp = SpectralParam.from_z(z, B)
            g = approx_identity_gap(B, zp, sym, 24)
            unit = decay = 0.0
            unit_tol = decay_tol = 0.0
            for p, win in _spectrum_window(B, zp, 24):
                ev = spherical_az(B, zp, p)
                w = abs(sym.eval(p, B))
                gap = (abs(ev.value - 1.0) + ev.tail_bound) * w
                # the window's value is within this of ev.value
                tol = (win.tail_bound + ev.tail_bound) * w
                if p.sign > 0 and p.exponent <= 0:
                    unit, unit_tol = max(unit, gap), max(unit_tol, tol)
                else:
                    decay, decay_tol = max(decay, gap), max(decay_tol, tol)
            assert g.unit_region == unit
            assert abs(g.decay_region - decay) <= decay_tol, z
            assert g.gap == max(g.unit_region, g.decay_region)

    @pytest.mark.parametrize("index", (0, 12, 30))
    def test_nan_coefficient_fails_the_gap(self, index, monkeypatch):
        # max(decay, nan) keeps decay: a NaN must not drop out of the sup.
        monkeypatch.setattr(limitlab, "spherical_window", _nan_at(index))
        with pytest.raises(InvalidArgumentError, match="not finite"):
            approx_identity_gap(B, SpectralParam.from_z(0.9, B),
                                symbol_constant(1.0), 24)

    def test_depth_past_the_closed_form_frontier(self):
        # From k = 33 the two-term products overflow at z = 0.9 (the gap
        # was refused); the recurrence in k reaches depth 40, and each
        # added point is within its certificate of mpmath's closed form.
        mp = pytest.importorskip("mpmath").mp
        zp = SpectralParam.from_z(0.9, B)
        g32 = approx_identity_gap(B, zp, symbol_constant(1.0), 32)
        g40 = approx_identity_gap(B, zp, symbol_constant(1.0), 40)
        added = [(p, ev) for p, ev in _spectrum_window(B, zp, 40)
                 if p.exponent > 32]
        assert g40.gap == max(g32.gap, max(abs(ev.value - 1.0) + ev.tail_bound
                                           for _, ev in added))
        with mp.workdps(40):
            ref = Reference(mp, 0.5, zp.lam)
            for sign in (1, -1):
                evs = [ev for p, ev in added if p.sign == sign]
                for ev, r in zip(evs, ref.window(sign, range(33, 41))):
                    assert abs(mp.mpc(ev.value) - r) <= ev.tail_bound


class TestTermBudget:
    """``max_terms`` reaches the windows of both gap experiments."""

    ZP = SpectralParam.from_z(0.9, B)

    def test_small_budget_leaves_the_seeds_uncertified(self):
        full = _spectrum_window(B, self.ZP, 12)
        assert all(math.isfinite(ev.tail_bound) for _, ev in full)
        short = _spectrum_window(B, self.ZP, 12, max_terms=3)
        assert any(math.isinf(ev.tail_bound) for _, ev in short)

    def test_approx_identity_gap_uses_the_budget(self):
        sym = symbol_clip_abs()
        by_hand = max((abs(ev.value - 1.0) + ev.tail_bound) * abs(sym.eval(p, B))
                      for p, ev in _spectrum_window(B, self.ZP, 12,
                                                    max_terms=3))
        short = approx_identity_gap(B, self.ZP, sym, 12, max_terms=3)
        assert short.gap == by_hand
        full = approx_identity_gap(B, self.ZP, sym, 12)
        assert short.gap != full.gap
        assert repr(full) == repr(approx_identity_gap(B, self.ZP, sym, 12,
                                                      max_terms=200))

    def test_uniform_sup_gap_uses_the_budget(self):
        evs = [spherical_az(B, self.ZP, IqPoint.positive(k), max_terms=3)
               for k in range(-12, 1)]
        by_hand = max(abs(ev.value - 1.0) + ev.tail_bound for ev in evs)
        assert uniform_sup_gap(B, self.ZP, 12, max_terms=3) == by_hand


class TestSpectrumWindow:
    def test_points_and_values(self):
        zp = SpectralParam.from_z(0.95 + 0.3j, B)
        pts = _spectrum_window(B, zp, 6)
        assert [p for p, _ in pts] == _spectrum_points(6)
        for p, ev in pts:
            one = spherical_az(B, zp, p)
            assert abs(ev.value - one.value) <= ev.tail_bound + one.tail_bound

    def test_depth_zero_and_negative(self):
        zp = SpectralParam.from_z(0.5, B)
        assert [p for p, _ in _spectrum_window(B, zp, 0)] == [IqPoint.positive(0)]
        with pytest.raises(InvalidArgumentError):
            _spectrum_window(B, zp, -1)


class TestPochhammerRatio:
    def test_exact_zero_at_k1_endpoint(self):
        assert pochhammer_ratio(B, B.q, 1) == 0.0

    def test_small_modulus_near_endpoint(self):
        lam = B.q * (1.0 + 1e-3)
        for k in (1, 2, 3, 10, math.inf):
            assert abs(pochhammer_ratio(B, lam, k)) < 1e-2

    def test_agrees_with_naive_product(self):
        lam = B.q + 0.1
        a = pochhammer_ratio(B, lam, 4)
        b = pochhammer_ratio_naive(B, lam, 4)
        assert abs(a - b) / abs(b) < 1e-12

    def test_infinite_truncation_converged(self):
        lam = 0.8 + 0.3j
        inf_val = pochhammer_ratio(B, lam, math.inf)
        deep = pochhammer_ratio(B, lam, math.inf, trunc_K=90)
        assert abs(inf_val - deep) / abs(deep) < 1e-13

    def test_pole_guards(self):
        with pytest.raises(PoleGuardError):
            pochhammer_ratio(B, 1.0, 3)          # lam^2 = 1
        with pytest.raises(PoleGuardError):
            pochhammer_ratio(B, -B.q, 2)         # head factor 1 + q/lam = 0
        with pytest.raises(PoleGuardError):
            pochhammer_ratio(B, B.q ** 2, 3)     # lam^2 = q^4 tail factor
        with pytest.raises(PoleGuardError, match="naive denominator vanished"):
            pochhammer_ratio_naive(B, 1.0, 2)    # (1/lam^2; q^2)_2 = 0

    def test_k2_off_pole_window_evaluates(self):
        # lam^2 = q^4 is outside the k = 2 denominator window
        v = pochhammer_ratio(B, B.q ** 2, 2)
        assert math.isfinite(abs(v))

    def test_k_validation(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(InvalidArgumentError):
                pochhammer_ratio(B, 0.8, bad)
        with pytest.raises(InvalidArgumentError):
            pochhammer_ratio(B, 0.0, 2)
        with pytest.raises(InvalidArgumentError):
            pochhammer_ratio_naive(B, 0.8, 0)

    @pytest.mark.parametrize("lam", (0.0, 1e200, 1e-200))
    def test_naive_refuses_what_the_stable_form_refuses(self, lam):
        # Zero, or a square past the float range: the stable form's checks.
        for ratio in (pochhammer_ratio, pochhammer_ratio_naive):
            with pytest.raises(InvalidArgumentError):
                ratio(B, lam, 2)
