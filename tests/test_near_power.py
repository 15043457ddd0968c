"""The pole-guard scan ``qcalculus._near_power`` against the four-candidate
scan it replaced, kept here as the reference: the same return (or the
same error type) on every call of default runs (with one call of
``phi21_direct``'s terminating snap for the matching verdict) and on
seeded points at, near and between the powers of bases from 1e-3 to
1 - 1e-12."""

import math
import random
import sys

import pytest

from qsu11 import EPS_POLE, harness, limitlab, qcalculus
from qsu11.qcalculus import _finite_modulus, _near_power


def _reference(x, base, eps=EPS_POLE, lo=None, hi=None):
    """The four-candidate scan: floor(t), ceil(t), floor(t) - 1 and
    ceil(t) + 1 for ``t = log|x| / log(base)``, the first match returned."""
    r = _finite_modulus(x)
    if r == 0:
        return None
    t = math.log(r) / math.log(base)
    for j in (math.floor(t), math.ceil(t), math.floor(t) - 1, math.ceil(t) + 1):
        if lo is not None and j < lo:
            continue
        if hi is not None and j > hi:
            continue
        try:
            p = base ** j
            if abs(x - p) <= eps * p:
                return j
        except OverflowError:
            continue
    return None


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error type is part of the contract
        return type(exc)


def _assert_same(*args, **kwargs):
    got = _outcome(_near_power, *args, **kwargs)
    want = _outcome(_reference, *args, **kwargs)
    assert got == want, (args, kwargs, got, want)
    return want


@pytest.mark.parametrize("q", ("0.3", "0.5", "0.9"))
def test_every_call_of_a_default_run(q, tmp_path, monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return _near_power(*args, **kwargs)

    # limitlab imports the scan by name; qcalculus calls its own global.
    monkeypatch.setattr(qcalculus, "_near_power", recorded)
    monkeypatch.setattr(limitlab, "_near_power", recorded)
    # One process: a forked worker's calls would not be recorded here.
    monkeypatch.setattr(harness, "_workers", lambda: 1)
    harness.main(["--q", q, "--out", str(tmp_path)])
    # 663 to 669 scans: the package's own series make none (case 1 and
    # the coamen series have c = q^2, the closed form guards lam**2).
    assert len(calls) > 600
    # No call of a default run matches (the series of case 1 and of the
    # coamen windows are summed in full, unsnapped).  The matching verdict
    # comes from phi21_direct's terminating snap, a = 1 = q**0.
    qcalculus.phi21_direct(1.0, 0.3, 0.7, float(q), 0.4)
    monkeypatch.undo()
    found = {_assert_same(*args, **kwargs) is not None
             for args, kwargs in calls}
    assert found == {True, False}  # both verdicts are exercised


#: Bases from 1e-3 to 1 - 1e-12; those within 2 EPS_POLE of 1 have two or
#: more powers within EPS_POLE of one x.
_BASES = (1e-3, 0.01, 0.09, 0.25, 0.3, 0.5, 0.81, 0.9, 0.99, 0.999999,
          1 - 1e-7, 1 - 4e-9, 1 - 2.5e-9, 1 - 2e-9, 1 - 1.5e-9, 1 - 1e-9,
          1 - 5e-10, 1 - 1e-10, 1 - 1e-11, 1 - 1e-12)

_DELTAS = tuple(f * EPS_POLE for f in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0))

_CUTS = ((None, None), (0, None), (None, 0), (1, None), (-1, 1))


def _exponent_range(base):
    """Exponents whose powers are finite and normal, widened by 3 on each side."""
    lb = math.log(base)
    return (math.floor(math.log(sys.float_info.max) / lb) - 3,
            math.ceil(math.log(sys.float_info.min) / lb) + 3)


@pytest.mark.parametrize("base", _BASES)
def test_seeded_points_at_and_near_the_powers(base):
    rng = random.Random(f"near-power-{base!r}")
    j_min, j_max = _exponent_range(base)
    js = {j_min, j_min + 1, j_min + 2, j_min + 3, j_min + 4, -1, 0, 1, 2,
          j_max - 1, j_max}
    js |= {rng.randint(j_min, j_max) for _ in range(12)}
    matched = 0
    for j in sorted(js):
        try:
            p = base ** j
        except OverflowError:  # no x at a power past the float range
            continue
        for delta in _DELTAS:
            for x in (p * (1.0 + delta), -p * (1.0 + delta),
                      complex(p, p * delta), p * (1.0 + delta) * (1.0 + 1e-12j)):
                for lo, hi in _CUTS + ((j, None), (j + 1, None), (None, j),
                                       (None, j - 1), (j - 1, j + 1),
                                       (j + 1, j + 3), (j - 3, j - 1)):
                    matched += _assert_same(x, base, lo=lo, hi=hi) is not None
    assert matched


@pytest.mark.parametrize("base", _BASES)
def test_seeded_points_between_the_powers(base):
    rng = random.Random(f"between-{base!r}")
    for _ in range(400):
        x = math.exp(rng.uniform(-745.0, 709.0))
        x *= rng.choice((1.0, -1.0, 1j, complex(0.6, 0.8)))
        for lo, hi in _CUTS:
            _assert_same(x, base, lo=lo, hi=hi)


@pytest.mark.parametrize("base", (0.09, 0.25, 0.3, 0.5, 0.9, 1 - 1e-9))
def test_subnormal_and_extreme_points(base):
    tiny = 5e-324
    xs = [tiny, 2 * tiny, 3 * tiny, 1e-320, 1e-315, 1e-310, 2.2e-308,
          sys.float_info.max, -sys.float_info.max, complex(1e308, 1e308)]
    j_min, j_max = _exponent_range(base)
    for j in (j_max, j_max + 1, j_max + 20, j_max + 40):
        p = base ** j
        if p:
            xs += [p, p * (1 + EPS_POLE), p * (1 - 0.5 * EPS_POLE), -p]
    for x in xs:
        for lo, hi in _CUTS + ((j_max, None), (None, j_min)):
            _assert_same(x, base, lo=lo, hi=hi)


@pytest.mark.parametrize("x", (0.0, 0j, math.inf, complex(math.nan, 0.0)))
def test_zero_and_non_finite_points(x):
    _assert_same(x, 0.5)
