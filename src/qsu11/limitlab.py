"""Limit experiments: parameter sweeps, uniform gaps, averaged identities.

Everything here is a thin, deterministic layer over the evaluators in
:mod:`qsu11.su11core`: it runs fixed parameter chains toward a limit,
records per-step deviations, and reports whether the chain behaves
(monotone decrease, final deviation under a threshold).  No randomness
and no adaptive stepping, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import InvalidArgumentError, PoleGuardError, QSU11Error
from .qcalculus import (EPS_POLE, QBase, SeriesEval, _frozen_slots, _integer,
                        _modulus, _near_power, qpoch_finite)
from .su11core import (IqPoint, SpectralParam, averaged_coamen,
                       coamen_coeff, spherical_az, spherical_window)

__all__ = [
    "MONO_SLACK",
    "SWEEP_FAMILIES",
    "SweepRow",
    "SweepReport",
    "sweep_report",
    "Symbol",
    "symbol_clip_abs",
    "symbol_constant",
    "limit_sweep",
    "uniform_sup_gap",
    "ApproxIdentityGap",
    "approx_identity_gap",
    "pochhammer_ratio",
    "pochhammer_ratio_naive",
]

#: Absolute slack when comparing consecutive deviations for monotonicity;
#: allows ties and rounding jitter at the no-signal floor.
MONO_SLACK = 1e-13

#: Truncation depth for the k = inf Pochhammer ratio; the discarded
#: factors change the value by less than 1e-16 relative for the
#: parameter windows used here (q <= 0.95, |lam| >= q).
RATIO_TRUNC_K = 60

#: Largest ``|log |lam||`` for which ``lam**2`` and ``lam**-2`` are both
#: normal floats.
_LOG_LAM_MAX = -math.log(sys.float_info.min) / 2.0


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One step of a limit sweep: parameter, value, deviation from target,
    in ``note`` the error text of a step that raised, and in ``bound`` a
    certificate on the deviation (the value's and the target's error
    bounds; ``inf`` when either is uncertified, 0 when none is kept).

    Frozen and slotted; ``__init__`` stores the fields through their
    slots, as every scalar check of the harness builds one.
    """

    param: object
    value: complex
    deviation: float
    note: str = ""
    bound: float = 0.0

    def __init__(self, param: object, value: complex, deviation: float,
                 note: str = "", bound: float = 0.0) -> None:
        _set_param(self, param)
        _set_value(self, value)
        _set_deviation(self, deviation)
        _set_note(self, note)
        _set_bound(self, bound)


_set_param, _set_value, _set_deviation, _set_note, _set_bound = \
    _frozen_slots(SweepRow)


@dataclass(frozen=True, slots=True)
class SweepReport:
    """Outcome of a limit sweep, or of one scalar check (one row).

    ``verdict`` follows the rule of :func:`sweep_report`.  Frozen and
    slotted, built as :class:`SweepRow` is.
    """

    label: str
    rows: tuple[SweepRow, ...]
    verdict: str
    monotone_deviation: bool
    threshold: float

    def __init__(self, label: str, rows: tuple[SweepRow, ...], verdict: str,
                 monotone_deviation: bool, threshold: float) -> None:
        _set_label(self, label)
        _set_rows(self, rows)
        _set_verdict(self, verdict)
        _set_monotone_deviation(self, monotone_deviation)
        _set_threshold(self, threshold)

    @property
    def final_deviation(self) -> float:
        return self.rows[-1].deviation if self.rows else math.inf


_set_label, _set_rows, _set_verdict, _set_monotone_deviation, _set_threshold = \
    _frozen_slots(SweepReport)


def sweep_report(label: str, rows: Sequence[SweepRow], threshold: float,
                 require_monotone: bool = True) -> SweepReport:
    """Judge a chain of sweep rows: the one verdict rule for every report
    row of :mod:`qsu11.harness`, where a scalar check is a one-row chain.

    The verdict is "pass" when the chain is nonempty, no row carries an
    error note, every row's ``bound`` is finite, the final deviation
    plus its bound is within ``threshold``, and (if required) the
    deviations decrease monotonically up to :data:`MONO_SLACK`.  One
    row is monotone, so it passes when deviation + bound <= threshold
    (a nan deviation fails).
    """
    rows = tuple(rows)
    # Plain loops, no generators: every scalar check of the harness runs
    # this once.
    monotone, ok = True, bool(rows)
    for a, b in zip(rows, rows[1:]):
        monotone = monotone and b.deviation <= a.deviation + MONO_SLACK
    for r in rows:
        ok = ok and not r.note and math.isfinite(r.bound)
    ok = ok and rows[-1].deviation + rows[-1].bound <= threshold \
        and (monotone or not require_monotone)
    return SweepReport(label, rows, "pass" if ok else "fail", monotone,
                       threshold)


#: Evaluator families understood by :func:`limit_sweep`.
SWEEP_FAMILIES = ("spherical_case1", "spherical_case2", "spherical_case3",
                  "coamen", "averaged_coamen", "b1_ratio")


def _sweep_evaluator(family: str, base: QBase,
                     fixed: dict) -> Callable[[object], complex]:
    """Build the per-step evaluator for one sweep family.

    Consumes the keys it understands from ``fixed`` (leftovers are the
    caller's error).  The meaning of one approach-sequence element:

    * ``spherical_case1/2/3`` — a spectral parameter z (fixed key
      ``k``: point exponent; sign and range follow the case).
    * ``coamen`` — an exponent j with ``p1 = q^-j`` (fixed keys ``m``,
      ``lam``, optional ``form``).
    * ``averaged_coamen`` — a pair (n, j) (fixed keys ``m``, ``lam``).
    * ``b1_ratio`` — a value of lam (fixed key ``k``: int or math.inf).

    The exponents and counts (``k``, ``m``, ``max_terms``, ``trunc_K``, and
    the elements' j and n) must be integers, as
    :func:`qsu11.qcalculus._integer` takes them: a fixed one that is not
    raises :class:`InvalidArgumentError` here, an element in its own row.
    """
    tol = float(fixed.pop("tol", 1e-12))
    max_terms = _integer("max_terms", fixed.pop("max_terms", 200))
    if family in ("spherical_case1", "spherical_case2", "spherical_case3"):
        k = _integer("k", fixed.pop("k", 0 if family == "spherical_case1" else 1))
        if family == "spherical_case1":
            if k > 0:
                raise InvalidArgumentError("case-1 points need exponent <= 0")
            p0 = IqPoint.positive(k)
        elif family == "spherical_case2":
            if k < 1:
                raise InvalidArgumentError("case-2 points need exponent >= 1")
            p0 = IqPoint.positive(k)
        else:
            p0 = IqPoint.negative(k)

        def evaluate(z: object) -> complex:
            zp = z if isinstance(z, SpectralParam) \
                else SpectralParam.from_z(z, base)
            return spherical_az(base, zp, p0, tol=tol,
                                max_terms=max_terms).value

        return evaluate
    if family == "coamen":
        m = _integer("m", fixed.pop("m", 0))
        lam = complex(fixed.pop("lam", 1.0))
        form = str(fixed.pop("form", "simplified"))

        def evaluate(j: object) -> complex:
            p1 = IqPoint.positive(-_integer("j", j))
            return coamen_coeff(base, m, lam, p1, form=form, tol=tol,
                                max_terms=max_terms).value

        return evaluate
    if family == "averaged_coamen":
        m = _integer("m", fixed.pop("m", 0))
        lam = complex(fixed.pop("lam", 1.0))

        def evaluate(nj: object) -> complex:
            n, j = nj
            return averaged_coamen(base, n, IqPoint.positive(-_integer("j", j)),
                                   m, lam, tol=tol,
                                   max_terms=max_terms).value

        return evaluate
    if family == "b1_ratio":
        k = fixed.pop("k", 1)
        if k != math.inf:
            k = _integer("k", k)
        trunc = _integer("trunc_K", fixed.pop("trunc_K", RATIO_TRUNC_K))

        def evaluate(lam: object) -> complex:
            return pochhammer_ratio(base, complex(lam), k, trunc_K=trunc)

        return evaluate
    raise InvalidArgumentError(
        f"unknown sweep family {family!r}; expected one of {SWEEP_FAMILIES}")


def limit_sweep(family: str, base: QBase, fixed_params: dict | None,
                approach: Sequence[object], target: complex,
                threshold: float, require_monotone: bool = True) -> SweepReport:
    """Evaluate one family along ``approach`` and compare against ``target``.

    Each approach element is evaluated with the family's fixed
    parameters, and the deviation ``|value - target|`` is recorded; the
    verdict follows :func:`sweep_report`.  Rows where the evaluator
    raises a package error are recorded with an infinite deviation and
    the error text (the class name if the text is empty), and fail the
    sweep.
    """
    if not approach:
        raise InvalidArgumentError("limit_sweep needs a nonempty approach")
    if threshold <= 0:
        raise InvalidArgumentError("threshold must be positive")
    fixed = dict(fixed_params or {})
    evaluate = _sweep_evaluator(family, base, fixed)
    if fixed:
        raise InvalidArgumentError(
            f"fixed_params keys not understood by {family}: {sorted(fixed)}")
    rows = []
    for p in approach:
        try:
            v = evaluate(p)
            rows.append(SweepRow(p, v, abs(v - target)))
        except QSU11Error as err:
            rows.append(SweepRow(p, complex("nan"), math.inf,
                                 str(err) or type(err).__name__))
    return sweep_report(family, rows, threshold, require_monotone)


def _window(base: QBase, zp: SpectralParam, sign: int, ks: range, tol: float,
            max_terms: int = 200) -> list[tuple[IqPoint, SeriesEval]]:
    """:func:`spherical_window` paired with its points; a coefficient that
    is not finite raises :class:`InvalidArgumentError`, so no sup can
    silently drop it."""
    evs = spherical_window(base, zp, sign, ks, tol=tol, max_terms=max_terms)
    for k, ev in zip(ks, evs):
        if not math.isfinite(_modulus(ev.value)):
            raise InvalidArgumentError(
                f"a_z at {'+' if sign > 0 else '-'}q^{k} is {ev.value!r}, "
                f"not finite")
    return [(IqPoint(sign, k), ev) for k, ev in zip(ks, evs)]


def _spectrum_window(base: QBase, zp: SpectralParam, depth: int,
                    tol: float = 1e-12,
                    max_terms: int = 200) -> list[tuple[IqPoint, SeriesEval]]:
    """``(p, a_z(p))`` over the truncated spectrum: ``+q^k`` for k in
    [-depth, depth], then ``-q^k`` for k in [1, depth].

    Each branch is one :func:`qsu11.su11core.spherical_window`.  A
    coefficient that is not finite raises :class:`InvalidArgumentError`
    naming its point, as do a negative ``depth`` and the refusals of the
    evaluator.
    """
    if depth < 0:
        raise InvalidArgumentError("depth must be >= 0")
    return (_window(base, zp, 1, range(-depth, depth + 1), tol, max_terms)
            + _window(base, zp, -1, range(1, depth + 1), tol, max_terms))


def uniform_sup_gap(base: QBase, zp: SpectralParam, max_exponent: int = 24,
                    tol: float = 1e-12, max_terms: int = 200) -> float:
    """Sup of ``|a_z(q^k) - 1|`` over the outward points k = -max_exponent..0.

    The points are one :func:`qsu11.su11core.spherical_window` (case 1:
    the direct series' guards once, the series at every k in one kernel
    pass), each summed within ``tol`` and ``max_terms``.  A coefficient
    that is not finite raises :class:`InvalidArgumentError` rather than
    drop out of the sup, and so does a ``max_exponent`` that is not an
    integer (a float of integral value included) or is negative.

    The coefficient deviations decay geometrically in -k on this range,
    so the sup over the truncated window already equals the sup over
    the full branch to well below the verification thresholds
    (deepening the window leaves the value unchanged at 1e-14 level;
    the suites check that directly).
    """
    max_exponent = _integer("max_exponent", max_exponent)
    if max_exponent < 0:
        raise InvalidArgumentError("max_exponent must be >= 0")
    return max(abs(ev.value - 1.0) for _, ev in
               _window(base, zp, 1, range(-max_exponent, 1), tol, max_terms))


@dataclass(frozen=True)
class Symbol:
    """A scalar symbol on the classical points.

    ``eval`` maps (point, base) to a complex weight; ``decay_at_zero``
    declares whether the symbol tends to 0 along ``q^k, k -> +inf``
    (the property that makes the weighted gap vanish in the limit).
    """

    name: str
    eval: Callable[[IqPoint, QBase], complex] = field(repr=False)
    decay_at_zero: bool = True


def symbol_clip_abs() -> Symbol:
    """The symbol ``p -> min(1, |p|)``: 1 outward, decaying at zero."""
    return Symbol("clip_abs",
                  lambda p, base: min(1.0, abs(p.value(base))),
                  decay_at_zero=True)


def symbol_constant(c: complex = 1.0) -> Symbol:
    """A constant symbol; does not decay at zero (non-example)."""
    return Symbol(f"const_{c}", lambda p, base: c, decay_at_zero=False)


@dataclass(frozen=True)
class ApproxIdentityGap:
    """Weighted sup gaps split by region.

    ``unit_region`` covers the outward points ``+q^k, k <= 0`` and
    ``decay_region`` the points near zero ``+-q^k, k >= 1``; ``gap`` is
    the max of the two.
    """

    gap: float
    unit_region: float
    decay_region: float


def approx_identity_gap(base: QBase, zp: SpectralParam, sym: Symbol,
                        max_exponent: int = 24, tol: float = 1e-12,
                        max_terms: int = 200) -> ApproxIdentityGap:
    """Weighted gap ``sup_p |a_z(p) - 1| |sym(p)|`` over the truncated spectrum.

    Samples ``+q^k`` for k in [-max_exponent, max_exponent] and
    ``-q^k`` for k in [1, max_exponent] (:func:`_spectrum_window`: one
    window evaluation per branch within ``tol`` and ``max_terms``, and a
    coefficient that is not finite raises :class:`InvalidArgumentError`,
    as does a ``max_exponent`` that is not an integer or is below 1).
    For symbols that decay at
    zero the gap vanishes as z -> 1; for non-decaying symbols it stays
    bounded but need not vanish (the deviation at points near zero does
    not go away, only its weight can kill it).
    """
    max_exponent = _integer("max_exponent", max_exponent)
    if max_exponent < 1:
        raise InvalidArgumentError("max_exponent must be >= 1")
    unit = decay = 0.0
    for p, ev in _spectrum_window(base, zp, max_exponent, tol, max_terms):
        g = abs(ev.value - 1.0) * abs(sym.eval(p, base))
        if p.sign > 0 and p.exponent <= 0:
            unit = max(unit, g)
        else:
            decay = max(decay, g)
    return ApproxIdentityGap(max(unit, decay), unit, decay)


def _ratio_pole_guard(base: QBase, lam: complex, depth: int) -> None:
    q2 = base.q * base.q
    lam2 = lam * lam
    if abs(lam2 - 1.0) <= EPS_POLE:
        raise PoleGuardError("lam**2 within the guard band of 1")
    # Unpaired denominator zeros of the stable grouping: the head factor
    # (1 + q/lam) vanishes at lam = -q (lam**2 = q**2), the tail factors
    # at lam**2 = q**(2i), 2 <= i <= depth - 1.
    j = _near_power(lam2, q2, lo=1, hi=depth - 1) if depth >= 2 else None
    if j is not None:
        raise PoleGuardError(
            f"lam**2 within {EPS_POLE} of q**({2 * j}): denominator zero"
        )


def _check_lam(lam: complex) -> None:
    """Refuse a ``lam`` that is zero or not finite, or whose square or
    reciprocal square leaves the normal float range."""
    if lam == 0 or not cmath.isfinite(lam):
        raise InvalidArgumentError(f"lam must be finite and nonzero, got {lam!r}")
    if abs(cmath.log(lam).real) >= _LOG_LAM_MAX:  # log|lam|, without overflow
        raise InvalidArgumentError(
            f"lam**2 or 1/lam**2 leaves the float range at lam = {lam!r}")


def pochhammer_ratio(base: QBase, lam: complex, k: int | float,
                     trunc_K: int = RATIO_TRUNC_K) -> complex:
    """Stable evaluation of ``(q/lam; q^2)_k^2 / (1/lam^2; q^2)_k``.

    The naive quotient loses all precision as ``lam -> q`` because the
    leading factors of numerator and denominator separately blow up or
    vanish; grouping each numerator factor against its denominator
    partner keeps every intermediate bounded:

    * k = 1: ``(1 - q/lam)^2 / (1 - 1/lam^2)``.
    * k >= 2: ``(1 - q/lam) / (1 + q/lam) * prod_{i=1}^{k-1}
      (1 - q^{1+2i}/lam)^2 / [(1 - 1/lam^2) prod_{i=2}^{k-1}
      (1 - q^{2i}/lam^2)]``.

    ``k = math.inf`` truncates the products at ``trunc_K`` factors,
    after which the remaining factors are 1 to double precision on the
    documented parameter window.

    A ``lam`` that is zero or not finite, or whose square or reciprocal
    square leaves the normal float range, raises
    :class:`InvalidArgumentError` for every k.
    """
    q = base.q
    _check_lam(lam)
    is_inf = k == math.inf
    if not is_inf:
        if not isinstance(k, int) or k < 1:
            raise InvalidArgumentError("k must be a positive integer or math.inf")
    K = trunc_K if is_inf else int(k)
    _ratio_pole_guard(base, lam, K)
    if K == 1:
        return (1.0 - q / lam) ** 2 / (1.0 - 1.0 / lam ** 2)
    head = (1.0 - q / lam) / (1.0 + q / lam)
    num = 1.0 + 0.0j
    for i in range(1, K):
        num *= (1.0 - q ** (1 + 2 * i) / lam) ** 2
    den = 1.0 - 1.0 / lam ** 2
    for i in range(2, K):
        den *= 1.0 - q ** (2 * i) / lam ** 2
    return head * num / den


def pochhammer_ratio_naive(base: QBase, lam: complex, k: int) -> complex:
    """Reference quotient of plain finite products (finite k only).

    Agrees with :func:`pochhammer_ratio` away from the pole set; used
    to cross-check the stable grouping.  Refuses the ``lam`` that
    :func:`pochhammer_ratio` refuses.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidArgumentError("k must be a positive integer")
    _check_lam(lam)
    q2 = base.q * base.q
    num = qpoch_finite(base.q / lam, q2, k)
    den = qpoch_finite(1.0 / lam ** 2, q2, k)
    if den == 0:
        raise PoleGuardError("naive denominator vanished")
    return num ** 2 / den
