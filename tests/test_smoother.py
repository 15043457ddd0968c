"""Unit tests for contour paths, quadrature specs, and Gaussian smoothing."""

import functools
import math
import random

import pytest
from _mp_reference import phi21_reference

from qsu11 import (
    ContourPath,
    InvalidArgumentError,
    IqPoint,
    PathOutsideDomainError,
    QBase,
    QuadratureSpec,
    QuadratureUnderResolvedError,
    SpectralParam,
    gaussian_smooth,
    path_independence,
    spherical_az,
)
from qsu11 import smoother
from qsu11.smoother import (_case1_kernel, _case1_line, _default_integrand,
                            _fine_nodes, _grid, _log_trapezoid, _node_values)

B = QBase(0.5)


class TestContourPath:
    def test_vertical_point_and_derivative(self):
        p = ContourPath("vertical_line", 0.5)
        assert p.point(0.3) == complex(0.5, 0.3)
        assert p.derivative(0.3) == 1j

    def test_perturbed_point_and_derivative(self):
        p = ContourPath("perturbed", 0.5, wiggle_amplitude=0.05)
        s = 0.7
        assert p.point(s) == complex(0.5 + 0.05 * math.sin(s), s)
        assert p.derivative(s) == complex(0.05 * math.cos(s), 1.0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ContourPath("circle", 0.5)
        with pytest.raises(InvalidArgumentError):
            ContourPath("vertical_line", 0.5, wiggle_amplitude=0.1)
        with pytest.raises(InvalidArgumentError):
            ContourPath("vertical_line", 0.5, half_span=0.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(half_span=0.0)
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(half_span=1.0, nodes_per_unit=0)
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec(half_span=1.0, tol_quad=0.0)

    @pytest.mark.parametrize("tol_quad", (1e-6, 1e-8, 1e-12))
    @pytest.mark.parametrize("n", (4.0, 16.0, 64.0, 256.0))
    def test_for_width_span_meets_the_erfc_budget(self, n, tol_quad):
        q = QuadratureSpec.for_width(n, B, tol_quad=tol_quad)
        assert math.exp(-n * q.half_span ** 2) == pytest.approx(tol_quad / 4)
        assert q.gaussian_tail(n) <= tol_quad / 4
        assert q.nodes_per_unit is None
        with pytest.raises(InvalidArgumentError):
            QuadratureSpec.for_width(0.0, B)

    @pytest.mark.parametrize("tol_quad", (1e-6, 1e-8, 1e-12))
    @pytest.mark.parametrize("n", (4.0, 16.0, 64.0, 256.0))
    def test_chosen_step_meets_the_certificate(self, n, tol_quad):
        # The coarse step is the largest 2S/m whose strip bound is within
        # tol_quad/4: one interval fewer breaks it.
        quad = QuadratureSpec.for_width(n, B, tol_quad=tol_quad)
        for k, p0 in ((2, IqPoint.positive(0)), (5, IqPoint.positive(-4))):
            path = ContourPath("vertical_line", 1.0 - 1.0 / k)
            span, m, bound = _grid(B, p0, k, n, path, quad, None)
            assert bound is not None
            trap = [math.exp(_log_trapezoid(n, 0.0, bound.a, bound.strip,
                                            2.0 * span / mm))
                    for mm in (m, m - 1)]
            assert trap[0] <= tol_quad / 4 < trap[1]
            sm = gaussian_smooth(B, p0, k, n, path, quad)
            assert sm.tail_bound <= tol_quad

    def test_gaussian_tail(self):
        q = QuadratureSpec(half_span=2.0)
        assert q.gaussian_tail(4.0) == math.erfc(2.0 * 2.0)
        # the auto-sized span keeps the tail under budget
        auto = QuadratureSpec.for_width(4.0, B)
        assert auto.gaussian_tail(4.0) < auto.tol_quad / 2.0


class TestGaussianSmooth:
    def test_constant_integrand_has_unit_mean(self):
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        sm = gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, quad,
                             integrand=lambda z: 1.0 + 0.0j)
        assert abs(sm.value - 1.0) < quad.tol_quad
        assert abs(sm.mass - 1.0) < quad.tol_quad

    def test_affine_integrand_recovers_constant_term(self):
        c0 = 0.7 - 0.2j
        c1 = 0.31 + 0.11j
        center = 0.5  # k = 2
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", center)
        sm = gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, quad,
                             integrand=lambda z: c0 + c1 * (z - center))
        assert abs(sm.value - c0) < quad.tol_quad

    def test_concentration_chain(self):
        p0 = IqPoint.positive(-2)
        k = 2
        center = 1.0 - 1.0 / k
        target = spherical_az(B, SpectralParam.from_z(center, B), p0).value
        devs = []
        for n in (4.0, 16.0, 64.0, 256.0):
            quad = QuadratureSpec.for_width(n, B)
            path = ContourPath("vertical_line", center)
            sm = gaussian_smooth(B, p0, k, n, path, quad)
            devs.append(abs(sm.value - target))
            assert abs(sm.mass - 1.0) < quad.tol_quad
        assert all(b <= a + 1e-13 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-2

    def test_deterministic(self):
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        a = gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, quad)
        b = gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, quad)
        assert repr(a.value) == repr(b.value)
        assert repr(a.mass) == repr(b.mass)

    def test_argument_validation(self):
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        with pytest.raises(InvalidArgumentError):
            gaussian_smooth(B, IqPoint.positive(0), 0, 16.0, path, quad)
        with pytest.raises(InvalidArgumentError):
            gaussian_smooth(B, IqPoint.positive(0), 2, 0.0, path, quad)

    def test_nan_k_refused(self):
        # nan passed k < 1 and leaked ValueError from math.ceil.
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        with pytest.raises(InvalidArgumentError, match="k must be >= 1"):
            gaussian_smooth(B, IqPoint.positive(0), math.nan, 16.0, path, quad)

    def test_pole_on_path_is_reported(self):
        # The coefficient at +q^3 is pole-guarded where lam^2 hits an
        # even power of q; the node s = 0 of a path anchored at 1.0
        # lands exactly there.
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 1.0)
        with pytest.raises(PathOutsideDomainError):
            gaussian_smooth(B, IqPoint.positive(3), 2, 16.0, path, quad)

    def test_truncated_tail_is_rejected(self):
        quad = QuadratureSpec(half_span=0.5, tol_quad=1e-8)
        path = ContourPath("vertical_line", 0.5)
        with pytest.raises(QuadratureUnderResolvedError):
            gaussian_smooth(B, IqPoint.positive(0), 2, 4.0, path, quad,
                            integrand=lambda z: 1.0 + 0.0j)

    def test_path_half_span_override_checked(self):
        # A generous spec cannot mask a path that truncates the kernel.
        quad = QuadratureSpec.for_width(4.0, B)
        path = ContourPath("vertical_line", 0.5, half_span=0.5)
        with pytest.raises(QuadratureUnderResolvedError):
            gaussian_smooth(B, IqPoint.positive(0), 2, 4.0, path, quad,
                            integrand=lambda z: 1.0 + 0.0j)

    def test_under_resolved_grid_is_rejected(self):
        quad = QuadratureSpec.for_width(256.0, B, nodes_per_unit=1)
        path = ContourPath("vertical_line", 0.5)
        with pytest.raises(QuadratureUnderResolvedError):
            gaussian_smooth(B, IqPoint.positive(0), 2, 256.0, path, quad,
                            integrand=lambda z: 1.0 + 0.0j)

    def test_certificate_only_where_the_majorant_applies(self):
        quad = QuadratureSpec.for_width(16.0, B)
        line = ContourPath("vertical_line", 0.5)
        sm = gaussian_smooth(B, IqPoint.positive(-1), 2, 16.0, line, quad)
        assert 0.0 < sm.tail_bound <= quad.tol_quad
        wiggly = ContourPath("perturbed", 0.5, wiggle_amplitude=0.05)
        uncovered = (
            (IqPoint.positive(0), line, lambda z: 1.0 + 0.0j),
            (IqPoint.positive(0), wiggly, None),
            (IqPoint.positive(1), line, None),
        )
        for p0, path, f in uncovered:
            sm = gaussian_smooth(B, p0, 2, 16.0, path, quad, integrand=f)
            assert sm.tail_bound == math.inf

    def test_certificate_over_budget_is_rejected(self):
        # 1.0 off the kernel center the weight is e^16 times larger on
        # the line, and the value, of modulus 1, is what is left after
        # cancellation: the rounding term alone is past the budget.
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 1.5)
        with pytest.raises(QuadratureUnderResolvedError, match="certificate"):
            gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, quad)

    def test_node_doubling_stability(self):
        path = ContourPath("vertical_line", 0.5)
        qa = QuadratureSpec.for_width(16.0, B, nodes_per_unit=64)
        qb = QuadratureSpec.for_width(16.0, B, nodes_per_unit=128)
        va = gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, qa)
        vb = gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, path, qb)
        assert abs(va.value - vb.value) < qa.tol_quad


class TestPathIndependence:
    def test_same_path_is_exactly_zero(self):
        quad = QuadratureSpec.for_width(16.0, B)
        p = ContourPath("vertical_line", 0.5)
        d = path_independence(B, IqPoint.positive(0), 2, 16.0, p, p, quad)
        assert d == 0.0

    def test_vertical_vs_perturbed(self):
        quad = QuadratureSpec.for_width(16.0, B)
        pa = ContourPath("vertical_line", 0.5)
        pb = ContourPath("perturbed", 0.5, wiggle_amplitude=0.05)
        d = path_independence(B, IqPoint.positive(0), 2, 16.0, pa, pb, quad)
        assert d < 1e-6


def _assert_line_parity(base: QBase, p0_k: int, path: ContourPath,
                        span: float, m: int, tol: float = 1e-12) -> None:
    """The line route equals per-node ``spherical_az`` bit for bit, or
    names the same uncertified node as the per-node loop."""
    p0 = IqPoint.positive(p0_k)
    assert _case1_line(p0, path)
    s, zz, _ = _fine_nodes(path, span, m)
    assert s == [-v for v in reversed(s)]
    try:
        line = _node_values(_case1_kernel(base, p0, tol, 200), s, zz,
                            certified=True, mirrored=True)
    except QuadratureUnderResolvedError as err:
        with pytest.raises(QuadratureUnderResolvedError) as looped:
            _node_values(_default_integrand(base, p0, tol), s, zz,
                         certified=True)
        assert str(err) == str(looped.value)
        return
    assert len(line) == len(zz)
    for z, ev in zip(zz, line):
        ref = spherical_az(base, SpectralParam.from_z(z, base), p0, tol=tol)
        assert (ev.value, ev.terms_used, ev.tail_bound) \
            == (ref.value, ref.terms_used, ref.tail_bound), z


def _strip_nodes() -> list[complex]:
    """2,000 seeded nodes with Re z in [-1.5, 1.5], |Im z| <= period / 2."""
    rng = random.Random(7)
    return [complex(rng.uniform(-1.5, 1.5),
                    rng.uniform(-B.period / 2, B.period / 2))
            for _ in range(2000)]


def _assert_within_series(base, x, p0_k, ev):
    """The case-1 value at z = x is within its bound of its whole series
    at 40 digits, at the float lam."""
    mp = pytest.importorskip("mpmath").mp
    q, lam = base.q, SpectralParam.from_z(x, base).lam
    with mp.workdps(40):
        exact = phi21_reference(mp, q / lam, lam * q, q * q, q * q,
                                -q ** (2 - 2 * p0_k))
        assert abs(mp.mpc(ev.value) - exact) <= ev.tail_bound, (x, p0_k)


class TestLineRoute:
    """Case-1 lines: the series guards once, half the nodes by the kernel,
    the other half by conjugation, each equal to ``spherical_az``."""

    @pytest.mark.parametrize("q", (0.41, 0.5, 0.56, 0.9))
    @pytest.mark.parametrize("k", (2, 5))
    def test_smoothing_suite_cells(self, q, k):
        base = QBase(q)
        path = ContourPath("vertical_line", 1.0 - 1.0 / k)
        for n in (4.0, 16.0, 64.0, 256.0):
            quad = QuadratureSpec.for_width(n, base)
            for p0_k in (0, -1, -2, -4):
                p0 = IqPoint.positive(p0_k)
                span, m, bound = _grid(base, p0, k, n, path, quad, None)
                # the series default, and the tolerance gaussian_smooth
                # uses on the line (at q = 0.9 some nodes run out of terms)
                for tol in (1e-12, quad.tol_quad / (4.0 * bound.sup)):
                    _assert_line_parity(base, p0_k, path, span, m, tol)

    def test_strip_lines(self):
        # lines through some strip nodes, at three densities
        for x in (z.real for z in _strip_nodes()[::97]):
            path = ContourPath("vertical_line", x, half_span=B.period / 2)
            for p0_k, m in ((0, 8), (-1, 9), (-3, 30)):
                _assert_line_parity(B, p0_k, path, B.period / 2, m)

    def test_other_integrands_take_the_node_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("line route taken")

        monkeypatch.setattr(smoother, "_case1_kernel", refuse)
        quad = QuadratureSpec.for_width(16.0, B)
        line = ContourPath("vertical_line", 0.5)
        cases = (
            (IqPoint.positive(0),
             ContourPath("perturbed", 0.5, wiggle_amplitude=0.05), None),
            (IqPoint.positive(1), line, None),
            (IqPoint.negative(1), line, None),
            (IqPoint.positive(0), line, lambda z: 1.0 + 0.0j),
        )
        for p0, path, f in cases:
            gaussian_smooth(B, p0, 2, 16.0, path, quad, integrand=f)
        with pytest.raises(AssertionError, match="line route"):
            gaussian_smooth(B, IqPoint.positive(0), 2, 16.0, line, quad)

    def test_terminating_snap(self):
        # lam = q^(2j+1) makes q/lam = (q^2)^(-j) and lam = q^-(2j+1)
        # makes lam q = (q^2)^(-j), where phi21_direct would snap the series
        # onto a terminating one.  Case 1 sums it in full: on the real axis
        # inside, near and outside the former snap band (d up to 2.5e-9)
        # the value is within its bound of the whole series, and every
        # such line takes the line route.
        for j in range(6):
            for sign in (1, -1):
                for d in (0.0, 5e-10, 1.5e-9, 2.5e-9, 1e-6):
                    x = sign * (2 * j + 1) + d / B.log_q
                    path = ContourPath("vertical_line", x)
                    for p0_k in (0, -2):
                        p0 = IqPoint.positive(p0_k)
                        assert _case1_line(p0, path)
                        ev = spherical_az(B, SpectralParam.from_z(x, B), p0)
                        _assert_within_series(B, x, p0_k, ev)
        # the line through z = 1 (q/lam = 1 at s = 0): kernel sums and
        # conjugates equal spherical_az node by node on its own grid
        quad = QuadratureSpec.for_width(16.0, B)
        for p0_k in (0, -2):
            path = ContourPath("vertical_line", 1.0)
            span, m, _ = _grid(B, IqPoint.positive(p0_k), 2, 16.0, path, quad, None)
            _assert_line_parity(B, p0_k, path, span, m)

    def test_perturbed_path(self):
        # off vertical lines the default integrand is summed node by node
        # on the grid a supplied integrand gets, with no certificate
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("perturbed", 0.5, wiggle_amplitude=0.05)
        for p0_k in (0, -2):
            p0 = IqPoint.positive(p0_k)
            assert not _case1_line(p0, path)
            f = _default_integrand(B, p0, 1e-12)
            sm = gaussian_smooth(B, p0, 2, 16.0, path, quad)
            looped = gaussian_smooth(B, p0, 2, 16.0, path, quad,
                                     integrand=lambda z: f(z).value)
            assert sm.value == looped.value
            assert sm.tail_bound == math.inf

    @pytest.mark.parametrize("tol, max_terms", (
        (0.0, 200), (-1.0, 200), (math.nan, 200), (math.inf, 200),
        (1e-12j, 200), (1e-12, 0)),
        ids=("zero", "negative", "nan", "inf", "complex", "max_terms"))
    def test_bad_budgets_refused_before_any_node(self, tol, max_terms,
                                                 monkeypatch):
        # These reached the node loop, which raised PathOutsideDomainError
        # at the first node (a complex tol: a bare TypeError).
        def no_nodes(*args, **kwargs):
            raise AssertionError("a node was evaluated")

        monkeypatch.setattr(smoother, "_node_values", no_nodes)
        quad = QuadratureSpec.for_width(16.0, B, nodes_per_unit=8)
        path = ContourPath("vertical_line", 0.5)
        p0 = IqPoint.positive(0)
        with pytest.raises(InvalidArgumentError):
            gaussian_smooth(B, p0, 2, 16.0, path, quad, tol=tol,
                            max_terms=max_terms)
        with pytest.raises(InvalidArgumentError):
            path_independence(B, p0, 2, 16.0, path, path, quad, tol=tol,
                              max_terms=max_terms)

    def test_gaussian_smooth_matches_node_loop(self):
        # A fixed span and density, so the certified default integrand
        # and the uncertified closure are summed on one grid.
        quad = QuadratureSpec.for_width(16.0, B, nodes_per_unit=16)
        span = quad.half_span
        for path in (ContourPath("vertical_line", 0.5, half_span=span),
                     ContourPath("perturbed", 0.5, wiggle_amplitude=0.05,
                                 half_span=span)):
            p0 = IqPoint.positive(-1)
            sm = gaussian_smooth(B, p0, 2, 16.0, path, quad)
            f = _default_integrand(B, p0, 1e-12)
            looped = gaussian_smooth(B, p0, 2, 16.0, path, quad,
                                     integrand=lambda z: f(z).value)
            assert sm.value == looped.value


class TestCase1Oracle:
    """Case-1 values of ``spherical_az`` against mpmath's 2phi1 at 40
    digits."""

    # At tol = 1e-16 the truncation tail falls below the rounding error,
    # so the bound's rounding term is what is tested.
    @pytest.mark.parametrize("tol", (1e-12, 1e-16))
    @pytest.mark.parametrize("p0_k", (0, -1, -4))
    def test_strip_subsample(self, p0_k, tol):
        mpmath = pytest.importorskip("mpmath")
        zs = _strip_nodes()[::33]
        evs = [spherical_az(B, SpectralParam.from_z(z, B),
                            IqPoint.positive(p0_k), tol=tol) for z in zs]
        assert all(math.isfinite(ev.tail_bound) for ev in evs)
        with mpmath.workdps(40):
            q = mpmath.mpf(B.q)
            for z, ev in zip(zs, evs):
                lam = q ** mpmath.mpc(z)
                ref = mpmath.qhyper([q / lam, lam * q], [q * q], q * q,
                                    -q ** (2 - 2 * p0_k))
                assert abs(mpmath.mpc(ev.value) - ref) <= ev.tail_bound


class TestUncertifiedNodes:
    """A node whose series exhausts its term budget refuses the smoothing."""

    @pytest.mark.parametrize("p0", (IqPoint.positive(0), IqPoint.positive(2),
                                    IqPoint.negative(1)))
    def test_raises_naming_the_node(self, p0):
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        with pytest.raises(QuadratureUnderResolvedError, match="node s="):
            gaussian_smooth(B, p0, 2, 16.0, path, quad, tol=1e-300)

    def test_both_routes_name_the_same_node(self):
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        p0 = IqPoint.positive(0)
        s, zz, _ = _fine_nodes(path, *_grid(B, p0, 2, 16.0, path, quad,
                                            None)[:2])
        with pytest.raises(QuadratureUnderResolvedError) as line:
            gaussian_smooth(B, p0, 2, 16.0, path, quad, tol=1e-300)
        with pytest.raises(QuadratureUnderResolvedError) as looped:
            _node_values(_default_integrand(B, p0, 1e-300), s, zz,
                         certified=True)
        assert str(line.value) == str(looped.value)
        assert f"s={s[0]!r}" in str(line.value)
        assert "after 201 terms" in str(line.value)

    def test_term_budget_reaches_the_nodes(self):
        # A chain cell of the smoothing suite: 3 terms leave its first
        # node uncertified; the default budget is 200.
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        p0 = IqPoint.positive(-1)
        s, _, _ = _fine_nodes(path, *_grid(B, p0, 2, 16.0, path, quad,
                                           None)[:2])
        with pytest.raises(QuadratureUnderResolvedError,
                           match=f"node s={s[0]!r} is uncertified after 4 "):
            gaussian_smooth(B, p0, 2, 16.0, path, quad, max_terms=3)
        with pytest.raises(QuadratureUnderResolvedError, match="after 4 "):
            path_independence(B, p0, 2, 16.0, path, path, quad, max_terms=3)
        assert repr(gaussian_smooth(B, p0, 2, 16.0, path, quad)) \
            == repr(gaussian_smooth(B, p0, 2, 16.0, path, quad,
                                    max_terms=200))


_NON_FINITE_CALLS = {
    "path_anchor": lambda x: ContourPath("vertical_line", x),
    "path_wiggle": lambda x: ContourPath("perturbed", 0.5, wiggle_amplitude=x),
    "path_half_span": lambda x: ContourPath("vertical_line", 0.5, half_span=x),
    "quad_half_span": lambda x: QuadratureSpec(half_span=x),
    "quad_tol_quad": lambda x: QuadratureSpec(half_span=1.0, tol_quad=x),
    "for_width_n": lambda x: QuadratureSpec.for_width(x, B),
    "smooth_n": lambda x: gaussian_smooth(
        B, IqPoint.positive(0), 2, x, ContourPath("vertical_line", 0.5),
        QuadratureSpec.for_width(16.0, B)),
}


class TestNonFiniteRefusal:
    """Non-finite or complex input is refused with a typed error at every
    entry."""

    @pytest.mark.parametrize("bad", (complex("nan"), math.inf,
                                     complex(0.0, -math.inf)),
                             ids=("nan", "inf", "imag_inf"))
    @pytest.mark.parametrize("entry", sorted(_NON_FINITE_CALLS))
    def test_refused(self, entry, bad):
        with pytest.raises(InvalidArgumentError):
            _NON_FINITE_CALLS[entry](bad)

    @pytest.mark.parametrize("bad", (complex("nan"), math.inf,
                                     complex(0.0, -math.inf)),
                             ids=("nan", "inf", "imag_inf"))
    def test_supplied_integrand_not_finite_is_named(self, bad):
        # node doubling compares nan with nan as a pass: the node refuses
        quad = QuadratureSpec.for_width(16.0, B)
        path = ContourPath("vertical_line", 0.5)
        p0 = IqPoint.positive(0)

        def f(z):
            return bad if z.imag > 0.0 else 1.0

        s, _, _ = _fine_nodes(path, *_grid(B, p0, 2, 16.0, path, quad, f)[:2])
        first = min(v for v in s if v > 0.0)
        with pytest.raises(PathOutsideDomainError,
                           match=f"node s={first!r} is .*, not finite"):
            gaussian_smooth(B, p0, 2, 16.0, path, quad, integrand=f)


@functools.lru_cache(maxsize=None)
def _laurent(mp, q, p0_k, prec):
    """Coefficients ``{j: c_j}`` of case 1 as a Laurent series in lam,
    ``a_z(+q^k) = sum_j c_j lam^j``, at mpmath's working precision.

    Term m of ``sum_m (q/lam, lam q; q^2)_m / (q^2; q^2)_m^2 x^m``,
    ``x = -q^(2-2k)``, is expanded exactly: each factor pair
    ``(1 - c/lam)(1 - c lam)`` is ``1 + c^2 - c (lam + 1/lam)``.  Terms are
    added until their bound at ``q <= |lam| <= 1/q`` is below 1e-34
    (``prec``, mpmath's working precision in bits, keys the cache).
    """
    q = mp.mpf(q)
    q2 = q * q
    x = -q ** (2 - 2 * p0_k)
    poly = [mp.mpf(1)]  # coefficients of lam^-m .. lam^m
    coeffs = {0: mp.mpf(1)}
    scale, envelope = mp.mpf(1), mp.mpf(2)
    m = 0
    while abs(scale) * envelope > mp.mpf(10) ** -34 or m < 5:
        c = q ** (2 * m + 1)
        new = [mp.mpf(0)] * (len(poly) + 2)
        for i, p in enumerate(poly):
            new[i] -= c * p
            new[i + 1] += (1 + c * c) * p
            new[i + 2] -= c * p
        poly = new
        m += 1
        scale *= x / (1 - q2 ** m) ** 2
        envelope *= (1 + c / q) * (1 + c * q)
        for i, p in enumerate(poly):
            coeffs[i - m] = coeffs.get(i - m, 0) + scale * p
    return coeffs


def _smoothed_reference(mp, q, p0_k, center, n):
    """Exact Gaussian mean of case 1 on the vertical line through
    ``center``: ``E[lam^j] = lam0^j exp(-(j log q)^2 / (4 n))`` for
    ``lam = q^(center + i s)``, s normal with variance ``1/(2n)``."""
    log_q = mp.log(mp.mpf(q))
    return mp.fsum(c * mp.exp(j * log_q * center - (j * log_q) ** 2 / (4 * n))
                   for j, c in _laurent(mp, q, p0_k, mp.prec).items())


class TestSmoothingOracle:
    """Smoothed case-1 values against an exact reference at 30 digits.

    The reference shares no formula with the quadrature or its bounds:
    the series is expanded in powers of lam and each power is averaged
    in closed form.  Every cell of the smoothing suite's chains, at
    three q and three quadrature budgets, must have its error within
    ``tail_bound`` and ``tail_bound`` within ``tol_quad``.
    """

    @pytest.mark.parametrize("tol_quad", (1e-6, 1e-8, 1e-12))
    @pytest.mark.parametrize("q", (0.41, 0.5, 0.56))
    def test_error_within_certificate(self, q, tol_quad):
        mpmath = pytest.importorskip("mpmath")
        base = QBase(q)
        with mpmath.workdps(30):
            for k in (2, 5):
                center = 1.0 - 1.0 / k
                path = ContourPath("vertical_line", center)
                for p0_k in (0, -1, -2, -4):
                    for n in (4.0, 16.0, 64.0, 256.0):
                        quad = QuadratureSpec.for_width(n, base, tol_quad)
                        sm = gaussian_smooth(base, IqPoint.positive(p0_k), k,
                                             n, path, quad)
                        ref = _smoothed_reference(mpmath.mp, q, p0_k,
                                                  center, n)
                        err = abs(mpmath.mpc(sm.value) - ref)
                        assert err <= sm.tail_bound <= tol_quad, \
                            (k, p0_k, n, float(err), sm.tail_bound)

    @pytest.mark.parametrize("anchor", (1.0, 1.0 + 5e-10 / B.log_q, -1.0),
                             ids=("1", "1-band", "-1"))
    def test_odd_integer_lines_within_certificate(self, anchor):
        """Lines through Re z = +-1 at q = 0.5, where q/lam or lam q meets
        q^0 on the real axis, off the kernel center: certified, with the
        error against the Gaussian mean about the center within
        ``tail_bound`` and ``tail_bound`` within ``tol_quad``.  (At Re z =
        -1 only n = 4 resolves: 1.5 from the center the weights reach
        e^{n 2.25}.)"""
        mpmath = pytest.importorskip("mpmath")
        cells = [(2, 4.0)] if anchor < 0 else [(2, 4.0), (2, 16.0), (5, 64.0)]
        path = ContourPath("vertical_line", anchor)
        checked = 0
        with mpmath.workdps(30):
            for k, n in cells:
                center = 1.0 - 1.0 / k
                quad = QuadratureSpec.for_width(n, B)
                for p0_k in (0, -2):
                    sm = gaussian_smooth(B, IqPoint.positive(p0_k), k, n, path,
                                         quad)
                    ref = _smoothed_reference(mpmath.mp, B.q, p0_k, center, n)
                    err = abs(mpmath.mpc(sm.value) - ref)
                    assert err <= sm.tail_bound <= quad.tol_quad, \
                        (k, p0_k, n, float(err), sm.tail_bound)
                    checked += 1
        assert checked == 2 * len(cells)


class TestMajorantPastTheFloatRange:
    """The case-1 majorant is inf where ``|lam| = q^x`` or its terms leave
    the float range; the line then gets no certificate."""

    def test_lambda_past_the_float_range(self):
        assert smoother._majorant(B, 0, 2000.0) == (math.inf,) * 3

    @pytest.mark.parametrize("x0", (40.0, 100.0), ids=("strip-edge", "line"))
    def test_no_line_bound(self, x0):
        # Re z = 40: finite on the line, past the float range at the strip's
        # edges; Re z = 100: past it on the line too.
        quad = QuadratureSpec.for_width(0.5, B, 1e-8)
        path = ContourPath("vertical_line", x0)
        assert smoother._line_bound(B, IqPoint.positive(0), path, x0 - 0.5,
                                    0.5, quad) is None


class TestBudgetPastTheFloatRange:
    """A tol_quad far below what the nodes' float values can meet is
    refused, typed.  The coarse step exists (the strip bound is solved
    as a difference of logs, so no quotient leaves the float range): the
    refusal comes from the nodes or the node doubling.  Where the bound's
    log itself overflows, no step h > 0 exists and :func:`_grid` refuses."""

    @pytest.mark.parametrize("tol_quad, integrand, match", (
        (1e-300, None, "node s=-13.16.* uncertified after 201 terms"),
        (3e-308, None, "node s=-13.32.* uncertified after 201 terms"),
        (3e-308, lambda z: 1.0 + 0.0j, "node doubling moved the value"),
    ), ids=("majorant-1e-300", "majorant-3e-308", "supplied-3e-308"))
    def test_refused(self, tol_quad, integrand, match):
        quad = QuadratureSpec.for_width(4.0, B, tol_quad)
        with pytest.raises(QuadratureUnderResolvedError, match=match):
            gaussian_smooth(B, IqPoint.positive(0), 2, 4.0,
                            ContourPath("vertical_line", 0.5), quad,
                            integrand=integrand)

    def test_tiny_budget_gets_a_step(self):
        # 1e-200 / 4 times 1/(2 F(a)) at Re z = 10 was past the float
        # range as one quotient; its log, about 745, is not.
        quad = QuadratureSpec.for_width(0.5, B, 1e-200)
        span, m, bound = _grid(B, IqPoint.positive(0), 2, 0.5,
                               ContourPath("vertical_line", 10.0), quad, None)
        assert bound is not None and math.isfinite(span) and 0 < m < 10 ** 6

    @pytest.mark.parametrize("tol_quad", (1e-8, 5e-324))
    def test_no_step_h(self, tol_quad):
        # n (|d| + a)^2 = 1e308 * 4 overflows the log of the strip bound.
        quad = QuadratureSpec(half_span=1.0, tol_quad=tol_quad)
        with pytest.raises(QuadratureUnderResolvedError, match="no step h > 0"):
            _grid(B, IqPoint.positive(0), 2, 1e308,
                  ContourPath("vertical_line", 1.5), quad,
                  lambda z: 1.0 + 0.0j)


class TestWeightsPastTheFloatRange:
    """A path far from the kernel center, where the weights e^{n (z - z0)^2}
    leave the float range, is refused before any node, through
    :func:`gaussian_smooth` and :func:`path_independence`."""

    @pytest.mark.parametrize("anchor", (-3.0, -3.5, -3.0 - 2e-10))
    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_refused(self, q, anchor, monkeypatch):
        def no_nodes(*args, **kwargs):
            raise AssertionError("a node was evaluated")

        monkeypatch.setattr(smoother, "_node_values", no_nodes)
        base = QBase(q)
        quad = QuadratureSpec.for_width(64.0, base)
        far = ContourPath("vertical_line", anchor)
        near = ContourPath("vertical_line", 0.8)
        p0 = IqPoint.positive(0)
        with pytest.raises(QuadratureUnderResolvedError, match="float range"):
            gaussian_smooth(base, p0, 5, 64.0, far, quad)
        with pytest.raises(QuadratureUnderResolvedError, match="float range"):
            path_independence(base, p0, 5, 64.0, far, near, quad)
        with pytest.raises(QuadratureUnderResolvedError, match="float range"):
            gaussian_smooth(base, p0, 5, 64.0, far, quad,
                            integrand=lambda z: 1.0 + 0.0j)

    def test_wiggle_counts_towards_the_weights(self):
        # d = 3.2 from the center, n d^2 = 655 < 700, but the wiggle moves
        # Re z out to d + 0.5 sin s: near s = 1 the weight is about
        # e^{64 (3.62^2 - 1)} = e^775, past the float range.
        quad = QuadratureSpec.for_width(64.0, B)
        p0 = IqPoint.positive(0)
        path = ContourPath("perturbed", 4.0, wiggle_amplitude=0.5)
        with pytest.raises(QuadratureUnderResolvedError, match="float range"):
            gaussian_smooth(B, p0, 5, 64.0, path, quad,
                            integrand=lambda z: 1.0 + 0.0j)
