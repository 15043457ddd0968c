"""A fixed pure-Python loop that measures how fast the host runs now.

On a small shared host the speed of one CPU drifts by 30-40% over
seconds to minutes with the load on the rest of the machine, and every
timing of qsu11 drifts with it.  :func:`time_once` times a fixed piece
of work of the same character as qsu11's hot path: a truncated 2phi1
series in complex arithmetic, one small frozen result object per call.
It never calls qsu11, so a change to the program cannot move it.

``run.py`` times this loop next to every block of work and scales the
block's time by ``NOMINAL_S / loop time``: a timing is reported as it
would read on a host on which the loop takes ``NOMINAL_S``.  A program
change keeps its full effect on the scaled time, while a change of the
host's speed, which slows the loop and the program alike, cancels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from time import perf_counter

#: The loop time that scaled timings refer to; about what the loop
#: takes on an idle core of a 2-core Intel Xeon host.
NOMINAL_S = 0.025

_CALLS = 450


@dataclass(frozen=True)
class _Eval:
    value: complex
    tail: float
    terms: int


def _series(a: complex, b: complex, c: complex, q: float, z: complex,
            tol: float) -> _Eval:
    s = term = 1 + 0j
    k = 0
    while abs(term) > tol * abs(s) and k < 200:
        qk = q ** k
        term = term * (1 - a * qk) * (1 - b * qk) \
            / ((1 - c * qk) * (1 - q * qk)) * z
        s += term
        k += 1
    return _Eval(s, abs(term), k)


def time_once() -> float:
    """Seconds the fixed loop takes now."""
    t0 = perf_counter()
    acc = 0j
    for j in range(_CALLS):
        z = 0.6 * cmath.exp(0.01j * j)
        r = _series(0.3 + 0.1j, -0.2j, 0.7, 0.5, z, 1e-12)
        acc += r.value * math.exp(-r.tail)
    elapsed = perf_counter() - t0
    if not math.isfinite(abs(acc)):
        raise RuntimeError("reference loop produced a non-finite sum")
    return elapsed
