"""Work that one evaluation would repeat is done once: the pole-guard scans
of ``phi21_heine`` and of the series the package sums itself (none, as
their c is the base or their lam**2 is guarded), and the product lookups (``qcalculus._qpoch_infinite``,
memoised or not) of the closed form of cases 2 and 3 and of the raw coamen
form.  Recorders count the calls; the values are checked against the
evaluations composed from the public evaluators."""

import cmath
import math
import random

import pytest

from qsu11 import (EPS_POLE, InvalidArgumentError, IqPoint, PoleGuardError,
                   PoleInCError, QBase, SpectralParam, coamen_coeff, phi21_direct,
                   phi21_heine, qcalculus, qpoch_multi, spherical_az,
                   spherical_window, su11core)
from qsu11.smoother import _case1_kernel
from qsu11.su11core import _coamen_window

B = QBase(0.5)

#: The memoised lookup itself, for its cache_clear.
_QPOCH_INFINITE = qcalculus._qpoch_infinite


@pytest.fixture
def scans(monkeypatch):
    calls = []
    near_power = qcalculus._near_power

    def recorded(*args, **kwargs):
        calls.append(args)
        return near_power(*args, **kwargs)

    monkeypatch.setattr(qcalculus, "_near_power", recorded)
    return calls


@pytest.fixture
def lookups(monkeypatch):
    calls = []
    qpoch_infinite = qcalculus._qpoch_infinite

    def recorded(a, b, tol):
        calls.append((a, b, tol))
        return qpoch_infinite(a, b, tol)

    monkeypatch.setattr(qcalculus, "_qpoch_infinite", recorded)
    return calls


@pytest.mark.parametrize("args", (
    (-4.0, 0.3, 0.25, 0.5, -1.5),    # past the unit disc
    (-2.0, 0.3, 0.7, 0.5, 0.6),      # inside it
    (1.0, 0.25, 0.5, 0.5, -3.0),     # c / b = 2 = base**-1: the series snaps
))
def test_heine_scans_each_parameter_once(args, scans):
    a, b, c, base, z = args
    phi21_heine(*args)
    # c, a z and z for the refusals, then c / b for the snap.
    assert [x for x, *_ in scans] == [c, a * z, z, c / b]


def test_internal_series_scan_nothing(scans):
    q = B.q
    zp = SpectralParam.from_z(complex(0.3, 0.4), B)
    lam = zp.lam
    for p in (IqPoint.positive(2), IqPoint.negative(3)):  # cases 2 and 3
        scans.clear()
        spherical_az(B, zp, p)
        assert [x for x, *_ in scans] == [lam * lam]  # the lam**2 pole guard
    scans.clear()
    qcalculus.phi21_continued(lam, 0.3 + 0.1j, B)
    # lam**2's pole guard and kappa's; neither series scans its c or snaps.
    assert [x for x, *_ in scans] == [lam * lam, -(0.3 + 0.1j)]
    scans.clear()
    spherical_az(B, zp, IqPoint.positive(-1))  # a case-1 point
    spherical_window(B, zp, 1, range(-6, 1))  # and window
    f = _case1_kernel(B, IqPoint.positive(-2), 1e-12, 200)  # a smoothing line
    f(complex(0.0, 0.7))
    f(complex(0.0, -1.3))
    # A coamen window of direct points (e > 0), then one of a single point.
    _coamen_window(B, 1, cmath.exp(0.4j), range(-8, -2), "both", 1e-12, 200)
    coamen_coeff(B, 0, cmath.exp(0.4j), IqPoint.positive(-1))
    assert scans == []


def test_closed_form_looks_up_each_lambda_factor_once(lookups):
    _QPOCH_INFINITE.cache_clear()
    su11core._normaliser.cache_clear()
    q = B.q
    q2 = q * q
    for i, z in enumerate((complex(0.3, 0.4), complex(-0.7, 1.1))):
        lookups.clear()
        lam = SpectralParam.from_z(z, B).lam
        spherical_az(B, SpectralParam.from_z(z, B), IqPoint.positive(2))
        assert len(lookups) == len(set(lookups))  # none looked up twice
        # theta(-q lam), and per u in (lam, 1/lam) its u q and u^2.
        lam_factors = {complex(x) for u in (lam, 1.0 / lam) for x in (u * q, u * u)}
        lam_factors |= {complex(-q * lam), complex(-q / lam)}
        assert len(lam_factors) == 6
        keys = [a for a, _, _ in lookups]
        assert sorted(keys, key=repr) == sorted(
            lam_factors | ({complex(q2), complex(-q2)} if i == 0 else set()), key=repr)


def test_raw_coamen_looks_up_each_factor_once(lookups):
    q2 = B.q * B.q
    coamen_coeff(B, 1, cmath.exp(0.3j), IqPoint.positive(-2), form="raw")  # warm
    for L in (-2, 0, 1):  # direct and Heine routes
        lookups.clear()
        coamen_coeff(B, 1, cmath.exp(0.7j), IqPoint.positive(L), form="raw")
        assert len(lookups) == len(set(lookups))
        # (q^2; q^2)_inf^2 of (q^2, q^2, z; q^2)_inf, to tol / 16 / 3.
        assert lookups.count((complex(q2), q2, 1e-12 / 16.0 / 3)) == 1


def _heine_composed(a, b, c, base, z, tol=1e-12, max_terms=200):
    """The Heine route composed from the public evaluators: the refusals
    of c, a z and z, the prefactor's products by ``qpoch_multi``, and the
    series by ``phi21_direct`` with all of its guards."""
    bb = float(base)
    if abs(b) >= 1.0:
        raise InvalidArgumentError("phi21_heine needs |b| < 1")
    az = a * z
    for x, error in ((c, PoleInCError), (az, PoleInCError), (z, PoleGuardError)):
        if qcalculus._near_inv_power(x, bb) is not None:
            raise error()
    num = qpoch_multi([b, az], bb, tol / 8.0)
    den = qpoch_multi([c, z], bb, tol / 8.0)
    ratio = num / den
    if not ratio.tail_bound < math.inf:
        qcalculus._refuse_overflow("z", z, num.value, den.value, ratio.value)
    return ratio * phi21_direct(c / b, z, az, bb, b, tol / 8.0, max_terms)


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except Exception as exc:  # the error type is part of the contract
        return type(exc)


def test_heine_as_composed_from_the_public_evaluators():
    rng = random.Random("heine-composed")
    # max_terms below 1, with and without a snap; an upper parameter c / b
    # past the float range; b and c not finite; a z and z whose products
    # leave the float range.
    cases = [((0.3, 0.2, 0.7, 0.5, 0.6), 0), ((0.3, 0.2, 0.7, 0.5, 0.6), -1),
             ((1.0, 0.25, 0.5, 0.5, -3.0), 0), ((0.3, 1e-320, 0.7, 0.5, 0.6), 200),
             ((0.3, math.nan, 0.7, 0.5, 0.6), 200),
             ((0.3, 0.2, math.inf, 0.5, 0.6), 200),
             ((1e300, 0.2, 0.7, 0.5, 1e10), 200)]
    for _ in range(300):
        base = rng.choice((0.3, 0.5, 0.9))
        b = cmath.rect(rng.uniform(0.01, 0.99), rng.uniform(-math.pi, math.pi))
        z = cmath.rect(10.0 ** rng.uniform(-2.0, 3.0), rng.uniform(-math.pi, math.pi))
        a = cmath.rect(10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(-math.pi, math.pi))
        c = cmath.rect(rng.uniform(0.05, 5.0), rng.uniform(-math.pi, math.pi))
        pick = rng.randrange(6)
        jitter = 1.0 + rng.uniform(-0.5, 0.5) * EPS_POLE
        n = rng.randint(0, 4)
        if pick == 1:  # c / b on the lattice: the series terminates
            c = b * base ** -n * jitter
        elif pick == 2:
            c = base ** -n * jitter
        elif pick == 3:
            a = base ** -n * jitter / z
        elif pick == 4:
            z = base ** -n * jitter
        cases.append(((a, b, c, base, z), rng.choice((200, 200, 3, 0))))
    terminating = 0
    for args, max_terms in cases:
        got = _outcome(phi21_heine, *args, 1e-12, max_terms)
        want = _outcome(_heine_composed, *args, 1e-12, max_terms)
        assert got == want, (args, max_terms)
        a, b, c, base, z = args
        terminating += (isinstance(got, str) and math.isfinite(abs(c / b))
                        and qcalculus._near_inv_power(c / b, base) is not None)
    assert terminating
