"""Kernel values are the same in a fresh interpreter as in this one, and
the 2phi1 kernel's loops are the general step bit for bit."""

import cmath
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qsu11 import (QBase, _kernels, backend, harness, qcalculus, qpoch_infinite,
                   theta_pair)
from qsu11._kernels import (_U, _phi21_rounding, euler_table, phi21_kernel,
                            phi21_window_kernel, qpoch_infinite_kernel)


def _probe_script() -> str:
    return (
        "from qsu11 import QBase, backend, qpoch_infinite, theta_pair\n"
        "b = QBase(0.5)\n"
        "v = qpoch_infinite(complex(0.3, 0.1), b).value\n"
        "t = theta_pair(complex(-1.5, 0.5), 3, b)\n"
        "print(backend())\n"
        "print(repr(v))\n"
        "print(repr(t.lhs))\n"
        "print(repr(t.residual))\n"
    )


def _run_probe() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", _probe_script()],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()


def test_in_process_values_match_fallback_subprocess():
    b = QBase(0.5)
    v = qpoch_infinite(complex(0.3, 0.1), b).value
    t = theta_pair(complex(-1.5, 0.5), 3, b)
    lines = _run_probe()
    assert lines[0] == backend() == "python"
    assert lines[1] == repr(v)
    assert lines[2] == repr(t.lhs)
    assert lines[3] == repr(t.residual)


def test_import_loads_no_numpy():
    # The package is plain Python: importing it pulls in no numpy.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsu11; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("base", (0.25, 0.5, 0.81))
def test_euler_horner_pass_within_its_allowance(base):
    """The Horner pass of the Euler tail (``qpoch_infinite_kernel``), at
    real y = +-rho (1 - 2**-20) and for every N of the table, against the
    exact value of the same float coefficients e_0..e_N (Fractions), so
    that only the pass's own rounding is measured: the error is within
    the kernel's allowance ``u (1 + _C_HORNER sum_n n |e_n| r^n)`` (one
    rounding for e_0's addition, ``_C_HORNER`` n for term n).  The pass
    is the kernel's: at the N the kernel selects, its value is the
    kernel's, bit for bit."""
    for budget in (2.5e-17, 2.5e-13, 2.5e-7):
        rho, table = euler_table(base, budget)
        th, rev = table[0], table[1]
        r = rho * (1.0 - 2.0 ** -20)
        for y in (r, -r):
            x = complex(y, 0.0)
            for n_last in range(1, len(rev)):
                s = rev[-1 - n_last]
                for e in rev[-n_last:]:
                    s = s * x + e
                coef = rev[::-1][:n_last + 1]  # e_0, ..., e_N
                exact = sum(Fraction(e) * Fraction(y) ** n for n, e in enumerate(coef))
                allowance = _U * (1.0 + _kernels._C_HORNER * sum(
                    n * abs(e) * r ** n for n, e in enumerate(coef)))
                assert s.imag == 0.0
                assert abs(Fraction(s.real) - exact) <= allowance, (y, n_last)
                if th[n_last - 1] < r <= th[n_last]:  # the kernel's N
                    assert qpoch_infinite_kernel(x, base, 0, 0, budget, table)[0] == s


@pytest.mark.parametrize("seed", range(4))
def test_phi21_rounding_at_least_the_gamma_form(seed):
    """``_phi21_rounding`` of n-term sums with seeded term moduli |t_j|
    (j = 1..n-1, t_0 = 1; m and w their sums, correctly rounded) and
    drift D is at least ``sum_j gamma_{k_j} |t_j|`` (Higham, Lemma 3.1),
    exact in Fractions, with k_j the units term j carries: ``_C_STEP`` j
    + D + n - j, and n - 1 for t_0.  The first-order sum of ``k_j u
    |t_j|`` falls short of it."""
    rng = random.Random(f"gamma-form-{seed}")
    u = Fraction(_U)
    c_step = Fraction(_kernels._C_STEP)

    def gamma(k):
        return k * u / (1 - k * u)

    for _ in range(40):
        n = rng.randint(2, 300)
        r = rng.uniform(0.1, 0.999)
        terms = [Fraction(rng.uniform(0.01, 1.0) * r ** j) for j in range(1, n)]
        m = sum(terms)
        w = sum(j * t for j, t in enumerate(terms, 1))
        drift = rng.choice((0.0, rng.uniform(0.0, 50.0), rng.uniform(50.0, 1e4)))
        d = Fraction(drift)
        want = gamma(n - 1) + sum(gamma(c_step * j + d + n - j) * t
                                  for j, t in enumerate(terms, 1))
        got = _phi21_rounding(0j, 0j, 0j, 0.5, n, float(m), float(w), drift)
        assert Fraction(got) >= want, (n, r, drift)


def _reference_phi21(a, b, c, base, z, n_exact, rel_tol, max_terms):
    """The general 2phi1 step, one loop for every input shape: the kernel
    before it selected a terminating loop and two special shapes, with the
    running sums of ``|t_j|`` and ``j |t_j|`` that its rounding bound
    (``_phi21_rounding``) is formed from."""
    s = 1.0 + 0.0j
    if n_exact == 0:
        return s, 1, 0.0
    t = 1.0 + 0.0j
    fa = a
    fb = b
    fc = c
    fq = base
    k = 0
    m = w = 0.0
    try:
        while k < max_terms:
            t = t * (1.0 - fa) * (1.0 - fb) / ((1.0 - fc) * (1.0 - fq)) * z
            k += 1
            s += t
            if t == 0:
                return s, k + 1, _phi21_rounding(a, b, c, base, k, m, w)
            m, w = m + abs(t), w + k * abs(t)
            if n_exact > 0 and k == n_exact:
                return s, k + 1, _phi21_rounding(a, b, c, base, k + 1, m, w)
            fa *= base
            fb *= base
            fc *= base
            fq *= base
            if n_exact < 0:
                bc = abs(fc)
                if bc < 1.0:
                    r = abs(z) * (1.0 + abs(fa)) * (1.0 + abs(fb)) \
                        / ((1.0 - bc) * (1.0 - fq))
                    if r < 1.0:
                        tail = abs(t) * r / (1.0 - r)
                        if tail <= rel_tol * max(abs(s), 1e-300):
                            return s, k + 1, tail + _phi21_rounding(
                                a, b, c, base, k + 1, m, w)
    except OverflowError:
        pass
    return s, k + 1, math.inf


def _assert_same_bits(args):
    # repr tells signed zeros apart; == would not.
    assert repr(phi21_kernel(*args)) == repr(_reference_phi21(*args)), args


def _disc(rng, radius):
    return cmath.rect(radius * rng.random(), rng.uniform(-math.pi, math.pi))


def _seeded_calls(seed, count):
    """Seeded kernel inputs of every shape the kernel selects from."""
    rng = random.Random(seed)
    for _ in range(count):
        base = rng.uniform(0.05, 0.95)
        a, b = _disc(rng, 3.0), _disc(rng, 3.0)
        c = _disc(rng, 3.0)
        shape = rng.choice(("a=b", "c=base", "both", "neither", "signed"))
        if shape in ("a=b", "both"):
            b = complex(a)
        if shape in ("c=base", "both"):
            c = complex(base, rng.choice((0.0, -0.0)))
        if shape == "signed":  # == but not bit for bit: the general step
            a = complex(rng.uniform(-2.0, 2.0), 0.0)
            b = complex(a.real, -0.0)
        n_exact = rng.choice((-1, -1, -1, 0, rng.randint(1, 30)))
        z = _disc(rng, 1.0 if n_exact < 0 else 4.0)
        yield (a, b, c, base, z, n_exact, 10.0 ** rng.uniform(-16, -2),
               rng.choice((1, 3, 10, 200, 2000)))


class TestPhi21KernelShapes:
    """The terminating loop and the shape selections of ``phi21_kernel``
    return the general step's tuple bit for bit."""

    def test_seeded_inputs_of_every_shape(self):
        for args in _seeded_calls(16, 3000):
            _assert_same_bits(args)

    @pytest.mark.parametrize("same", (True, False), ids=("a=b", "a!=b"))
    @pytest.mark.parametrize("c", (0.5, complex(0.5, -0.0), 0.3 - 0.2j),
                             ids=("c=base", "c=base-0j", "c"))
    def test_factor_exactly_zero(self, same, c):
        # 1 - a 0.5^2 = 0 at a = 4: the third term is 0 and the sum stops.
        a = complex(4.0)
        b = a if same else complex(0.3, 0.4)
        for n_exact in (-1, 2, 3, 5):
            for max_terms in (1, 2, 3, 4, 200):
                _assert_same_bits((a, b, c, 0.5, 0.6 - 0.3j, n_exact, 1e-12,
                                   max_terms))
        _assert_same_bits((a, b, c, 0.5, 0j, -1, 1e-12, 200))  # z = 0

    @pytest.mark.parametrize("n_exact", (1, 4, 7, 8, 9, 40))
    def test_terminating_below_and_above_the_budget(self, n_exact):
        for c in (0.5, 0.1 + 0.2j):
            for max_terms in (0, 1, 7, 8, 200):
                _assert_same_bits((0.2 + 0.1j, -1.3, c, 0.5, 2.5 - 1.0j,
                                   n_exact, 1e-12, max_terms))

    @pytest.mark.parametrize("ab", ((0.9 - 0.1j, 0.9 - 0.1j), (0.9, -0.7j)),
                             ids=("a=b", "a!=b"))
    @pytest.mark.parametrize("c", (0.9, -0.4j), ids=("c=base", "c"))
    def test_budget_exhaustion(self, ab, c):
        # |z| close to 1 at base 0.9: no certificate within a few terms.
        for max_terms in (0, 1, 2, 5, 30):
            args = (*ab, c, 0.9, 0.999j, -1, 1e-14, max_terms)
            _assert_same_bits(args)
            assert phi21_kernel(*args)[2] == math.inf

    @pytest.mark.parametrize("c", (0.5, 0j), ids=("c=base", "c"))
    @pytest.mark.parametrize("n_exact", (-1, 3))
    def test_term_past_the_float_range(self, c, n_exact):
        # Without c = base, t_1 = complex(1.4e308, 1.4e308) has finite parts
        # and a modulus past the float range (abs raises); with it, t_1 is
        # inf.  Either way the value is uncertified.
        args = (complex(-0.7e308), 0j, c, 0.5, 1 + 1j, n_exact, 1e-12, 200)
        _assert_same_bits(args)
        assert phi21_kernel(*args)[2] == math.inf

    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_calls_of_a_default_run(self, q, tmp_path, monkeypatch, capsys):
        # Every series that the default verification run sums, by a kernel
        # call or as a point of a window, with the tuple it got.
        sums = []

        def recorded(*args):
            result = phi21_kernel(*args)
            sums.append((args, result))
            return result

        def recorded_window(a, b, base, zs, rel_tol, max_terms):
            results = phi21_window_kernel(a, b, base, zs, rel_tol, max_terms)
            sums.extend(((a, b, base, base, z, -1, rel_tol, max_terms), result)
                        for z, result in zip(zs, results))
            return results

        monkeypatch.setattr(qcalculus, "phi21_kernel", recorded)
        monkeypatch.setattr(qcalculus, "phi21_window_kernel", recorded_window)
        # One process: a forked worker's calls would not be recorded here.
        monkeypatch.setattr(harness, "_workers", lambda: 1)
        harness.main(["--q", str(q), "--out", str(tmp_path)])
        capsys.readouterr()
        assert len(sums) > 1900
        for args, result in sums:
            assert repr(result) == repr(_reference_phi21(*args)), args


class TestPhi21WindowKernel:
    """``phi21_window_kernel`` returns, at each point of a window, the
    general step's tuple at that point with c equal to the base, bit for
    bit (``_reference_phi21``; a ``c`` of ``complex(base, -0.0)`` gives
    the same tuple)."""

    @staticmethod
    def _assert_window(a, b, base, zs, rel_tol, max_terms, c=None):
        got = phi21_window_kernel(a, b, base, zs, rel_tol, max_terms)
        assert len(got) == len(zs)
        for z, result in zip(zs, got):
            args = (a, b, base if c is None else c, base, z, -1, rel_tol, max_terms)
            # repr tells signed zeros apart; == would not.
            assert repr(result) == repr(_reference_phi21(*args)), args

    def test_seeded_windows_of_every_shape(self):
        rng = random.Random(25)
        for a, b, c, base, z, n_exact, rel_tol, max_terms in _seeded_calls(16, 3000):
            if n_exact >= 0:
                continue
            zs = [z] + [_disc(rng, 1.0) for _ in range(rng.randint(1, 38))]
            zs.append(rng.choice(zs))  # a repeated point
            if rng.random() < 0.25:
                zs.append(rng.choice((0j, -0j)))
            rng.shuffle(zs)
            # The reference's c: the seeded one where it equals the base.
            self._assert_window(a, b, base, zs, rel_tol, max_terms,
                                c if c == base else None)

    @pytest.mark.parametrize("order", (1, -1), ids=("ascending", "descending"))
    def test_lattice_window_either_way(self, order):
        # A window of case-1 arguments -q^{2-2k}: the longest sum first or last.
        q = 0.5
        lam = complex(q ** 0.3, 0.2)
        zs = [-q ** (2 - 2 * k) for k in range(-24, 1)][::order]
        self._assert_window(q / lam, lam * q, q * q, zs, 1e-12, 200)

    @pytest.mark.parametrize("same", (True, False), ids=("a=b", "a!=b"))
    @pytest.mark.parametrize("c", (0.5, complex(0.5, -0.0)), ids=("c=base", "c=base-0j"))
    def test_factor_exactly_zero(self, same, c):
        # 1 - a 0.5^2 = 0 at a = 4: every sum stops at its third term.
        a = complex(4.0)
        b = a if same else complex(0.3, 0.4)
        zs = [0.6 - 0.3j, 0j, 0.1, -0.9j, 0.6 - 0.3j]
        for max_terms in (1, 2, 3, 4, 200):
            self._assert_window(a, b, 0.5, zs, 1e-12, max_terms, c)

    @pytest.mark.parametrize("ab", ((0.9 - 0.1j, 0.9 - 0.1j), (0.9, -0.7j)),
                             ids=("a=b", "a!=b"))
    @pytest.mark.parametrize("c", (0.9, complex(0.9, -0.0)), ids=("c=base", "c=base-0j"))
    def test_budget_exhaustion(self, ab, c):
        # |z| close to 1 at base 0.9: no certificate within a few terms,
        # beside points that certify within them.
        zs = [0.999j, 1e-3, -0.5, 0.999j, 0j]
        for max_terms in range(6):
            self._assert_window(*ab, 0.9, zs, 1e-14, max_terms, c)

    @pytest.mark.parametrize("c", (0.5, complex(0.5, -0.0)), ids=("c=base", "c=base-0j"))
    def test_term_past_the_float_range(self, c):
        # At z = 1 + 1j the first term leaves the float range; at the small
        # z of the other points it does not.
        a = complex(-0.7e308)
        zs = [1e-300, 1 + 1j, 0j, 1e-300j, 1 + 1j]
        got = phi21_window_kernel(a, 0j, 0.5, zs, 1e-12, 200)
        assert got[1][2] == math.inf
        self._assert_window(a, 0j, 0.5, zs, 1e-12, 200, c)

    def test_term_modulus_past_the_float_range(self):
        # At z = 4 + 4j the first term is 1.6e308 (1 + 1j): finite parts
        # whose abs overflows, which ends that sum (only).
        zs = [4 + 4j, 1e-300, 4 + 4j]
        got = phi21_window_kernel(-1e154, -1e153, 0.5, zs, 1e-12, 200)
        assert got[0] == (complex(1.6e308, 1.6e308), 2, math.inf)
        self._assert_window(-1e154, -1e153, 0.5, zs, 1e-12, 200)

    def test_parameter_modulus_past_the_float_range(self):
        # |a| overflows abs while its parts and the first step do not (at
        # base 0.05 the denominator 0.95^2 is near 1): a one-term sum
        # (z = 0) needs no rounding bound and is certified, the others end
        # uncertified.
        a = complex(1.3e308, 1.3e308)
        zs = [0j, 1e-300, 0j, 1e-300j]
        got = phi21_window_kernel(a, 0j, 0.05, zs, 1e-12, 200)
        assert got[0] == (1, 2, 0.0)
        assert [result[2] for result in got] == [0.0, math.inf, 0.0, math.inf]
        self._assert_window(a, 0j, 0.05, zs, 1e-12, 200)
