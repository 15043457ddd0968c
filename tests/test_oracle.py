"""Oracle tests: evaluators against an independent high-precision reference.

Each returned ``tail_bound`` must bound the actual error, rounding
included, with no allowance on top.  The reference is mpmath at 40
digits on formulas that share no code with the evaluator.
"""

import cmath
import math
import random

import pytest
from _mp_reference import explicit_qpoch

from qsu11 import qpoch_infinite, qpoch_multi

#: The bases of the product sweep: the squares of the q values the suites
#: use (0.09, 0.25, 0.81), the bases of the theta identities (0.3, 0.5,
#: 0.8), and bases towards 1.
BASES = (0.09, 0.25, 0.3, 0.5, 0.64, 0.8, 0.81, 0.9, 0.99)

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


@pytest.mark.parametrize("b", BASES)
def test_products_within_their_tail_bound(b):
    """qpoch_infinite and qpoch_multi at tol log-uniform in [1e-16, 1e-3]:
    |value - explicit product| <= tail_bound, or, for a value past the float
    range, tail_bound = inf."""
    mp = pytest.importorskip("mpmath").mp
    rng = random.Random(f"qpoch-{b}")
    drawn = checked = 0
    with mp.workdps(40):
        for i in range(CALLS):
            tol = 10.0 ** rng.uniform(-16.0, -3.0)
            args = []
            for _ in range(3 if i % 4 == 0 else 1):
                args.append(_parameter(rng, b, drawn % 5 == 0))
                drawn += 1
            ev = qpoch_infinite(args[0], b, tol) if len(args) == 1 \
                else qpoch_multi(args, b, tol)
            if not math.isfinite(math.hypot(ev.value.real, ev.value.imag)):
                assert ev.tail_bound == math.inf, (args, tol)
                continue
            ref = mp.fprod(explicit_qpoch(mp, a, b) for a in args)
            assert abs(mp.mpc(ev.value) - ref) <= ev.tail_bound, (args, tol, ev)
            checked += 1
    assert checked >= CALLS // 3  # values past the float range aside
