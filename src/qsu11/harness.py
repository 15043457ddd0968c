"""Verification harness: fixed check suites with CSV/JSON reports.

Every suite yields a deterministic sequence of checks (:class:`Check`)
over published parameter grids.  Each check returns one shape, a
:class:`~qsu11.limitlab.SweepReport` (a scalar check is a one-row
chain), judged by one rule, :func:`~qsu11.limitlab.sweep_report`; one
runner turns each report into a report row.  Reports carry no
timestamps, hostnames, or random state, so two runs with the same
configuration produce byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 invalid configuration (no reports written in that case, except that
suites computed before a mid-run crash are still flushed).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from ._kernels import backend
from .errors import QSU11Error
from .grids import OVERLAP_GRID, RATIO_LAMBDA_GRID, THETA_BASES, THETA_GRID
from .limitlab import (
    MONO_SLACK,
    SweepReport,
    SweepRow,
    _spectrum_window,
    approx_identity_gap,
    limit_sweep,
    pochhammer_ratio,
    pochhammer_ratio_naive,
    symbol_clip_abs,
    symbol_constant,
    sweep_report,
    sweep_row,
    uniform_sup_gap,
)
from .qcalculus import (
    QBase,
    SeriesEval,
    phi21_continued,
    phi21_direct,
    qpoch_infinite,
    theta_pair,
)
from .smoother import ContourPath, QuadratureSpec, gaussian_smooth, path_independence
from .su11core import (
    IqPoint,
    SpectralParam,
    _coamen_window,
    averaged_coamen,
    coamen_coeff,
    spherical_az,
)

__all__ = ["SUITES", "RunConfig", "run_suite", "main"]

SUITES = ("identities", "spherical", "coamenability", "smoothing", "approxid")

_FORMATS = ("csv", "json", "both")

_CSV_COLUMNS = (
    "suite", "check_id", "paper_anchor", "param_json",
    "value_re", "value_im", "deviation", "threshold", "verdict",
)

_SUMMARY_COLUMNS = ("suite", "checks", "failures", "verdict")


#: One encoder for every compact row: ``json.dumps`` with these keywords
#: builds a new one per call.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _compact_json(d: dict) -> str:
    return _COMPACT.encode(d)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one harness run (defaults match the CLI)."""

    q: float = 0.5
    tol: float = 1e-10
    tol_quad: float = 1e-8
    max_exponent: int = 24
    max_terms: int = 200
    suites: tuple[str, ...] = SUITES
    out_dir: str = "reports"
    format: str = "csv"

    def problems(self) -> list[str]:
        errs = []
        try:
            QBase(self.q)  # q in (0, 1), with a square that does not underflow
        except QSU11Error as err:
            errs.append(str(err))
        for name in ("tol", "tol_quad"):
            if not (0.0 < getattr(self, name) < math.inf):
                errs.append(f"{name} must be positive and finite")
        if self.max_exponent < 1:
            errs.append("max_exponent must be >= 1")
        if self.max_terms < 1:
            errs.append("max_terms must be >= 1")
        if not self.suites:
            errs.append("at least one suite must be selected")
        for s in self.suites:
            if s not in SUITES:
                errs.append(f"unknown suite {s!r} (choose from {SUITES})")
        if self.format not in _FORMATS:
            errs.append(f"format must be one of {_FORMATS}")
        return errs

    def warnings(self) -> list[str]:
        warns = []
        if self.q < 0.41 or self.q > 0.56:
            warns.append(
                f"q={self.q!r} is outside [0.41, 0.56], where every suite passes "
                "at default settings (checked in 0.01 steps from 0.40 to 0.60)"
            )
        return warns

    @property
    def series_tol(self) -> float:
        """Series tolerance driven by tol: two orders tighter, floored."""
        return max(min(self.tol / 100.0, 1e-12), 1e-15)


@dataclass(frozen=True)
class Check:
    """One report row, written once; ``run`` returns its
    :class:`SweepReport`: a chain from :func:`limit_sweep`, or from
    :func:`sweep_report` over :func:`sweep_row`'s rows, or a scalar
    check's one row from a row builder: :func:`_versus` (a value against
    a target), :func:`_relative` (two routes to one value) or, where the
    deviation is no distance between two values, :func:`_scalar` (see
    :func:`_run_check`)."""

    check_id: str
    anchor: str
    params: dict
    run: Callable[[], SweepReport]


def _scalar(value: complex, deviation: float, thr: float,
            bound: float = 0.0) -> SweepReport:
    """A scalar check's report: one row, judged by :func:`sweep_report`
    (it passes when ``deviation + bound <= thr`` and the bound is
    finite).  ``bound`` certifies the deviation; a row whose computation
    keeps no certificate leaves it 0.  Only for a deviation that is no
    distance between two values: :func:`_versus` and :func:`_relative`
    form those."""
    return sweep_report("check", (SweepRow(None, value, deviation, bound=bound),), thr)


def _versus(value: object, target: object, thr: float) -> SweepReport:
    """A scalar check of a certified value against a target, a number or
    a certified value: :func:`sweep_row`'s one row, judged as above."""
    return sweep_report("check", (sweep_row(None, value, target),), thr)


def _relative(value: object, other: object, thr: float) -> SweepReport:
    """A scalar check of two routes to one value, each taken as by
    :func:`sweep_row`: deviation ``|v - o| / max(|v|, |o|)``, bound the
    two ``tail_bound``s over the same modulus; the row's value is v."""
    r = sweep_row(None, value, other)
    m = max(abs(r.value), abs(getattr(other, "value", other)))
    return _scalar(r.value, r.deviation / m, thr, r.bound / m)


#: The report of a check that raised: nan value, infinite deviation and
#: threshold 0, so it fails.
_REFUSED = _scalar(complex("nan"), math.inf, 0.0)


def _run_check(suite: str, check: Check) -> dict:
    """Run ``check`` into its report row, a dict in the order of
    :data:`_CSV_COLUMNS` (key ``params`` for ``param_json``): the value
    and deviation of its report's last row, the report's threshold and
    verdict; a chain's steps go into the params (``deviations``,
    ``monotone``, and any ``bounds`` and ``errors``), and a raised
    :class:`QSU11Error` into ``error`` with the :data:`_REFUSED`
    report."""
    params = dict(check.params)
    try:
        out = check.run()
    except QSU11Error as err:
        params["error"] = str(err)
        out = _REFUSED
    if out.rows[1:]:
        params["deviations"] = [float(r.deviation) for r in out.rows]
        params["monotone"] = bool(out.monotone_deviation)
        if any(r.bound for r in out.rows):
            params["bounds"] = [float(r.bound) for r in out.rows]
        notes = [r.note for r in out.rows if r.note]
        if notes:
            params["errors"] = notes
    value = complex(out.rows[-1].value)
    return {"suite": suite, "check_id": check.check_id,
            "paper_anchor": check.anchor, "params": params,
            "value_re": value.real, "value_im": value.imag,
            "deviation": float(out.final_deviation),
            "threshold": float(out.threshold), "verdict": out.verdict}


# ---------------------------------------------------------------- suites


def _identities_checks(cfg: RunConfig, base: QBase) -> Iterator[Check]:
    st = cfg.series_tol
    for b in THETA_BASES:
        for i, (re, im, k) in enumerate(THETA_GRID):
            def run(a=complex(re, im), k=k, b=b):
                tp = theta_pair(a, k, b, tol=st)
                return _scalar(tp.lhs, tp.residual, cfg.tol)

            yield Check(f"theta_b{b}_{i:03d}", "Eq4.1",
                        {"a_re": re, "a_im": im, "k": k, "base": b}, run)
    for b in THETA_BASES:
        # The products at 1e-16, as QBase sums cq's: at series_tol their
        # truncation alone could reach the row's threshold.
        def run(b=b):
            b2 = b * b
            p1, p2, p3 = (qpoch_infinite(a, b2, 1e-16) for a in (b2, -1.0, -b2))
            return _versus(QBase(b).cq ** 2 * b2 * (p1 * p1) * p2 * p3, 1.0,
                           cfg.tol / 100.0)

        yield Check(f"cq_norm_b{b}", "Eq4.1", {"base": b}, run)
    q = base.q
    q2 = q * q
    budget = {"tol": st, "max_terms": cfg.max_terms}
    for i, (theta, kap) in enumerate(OVERLAP_GRID):
        def run(lam=cmath.exp(1j * theta), kap=kap):
            direct = phi21_direct(q / lam, lam * q, q2, q2, -q2 / kap,
                                  **budget)
            cont = phi21_continued(lam, complex(kap), base, **budget)
            return _relative(cont, direct, 100.0 * cfg.tol)

        yield Check(f"overlap_{i:02d}", "PropB2.Case2",
                    {"theta": theta, "kappa": kap}, run)


def _coamenability_checks(cfg: RunConfig, base: QBase) -> Iterator[Check]:
    q = base.q
    budget = {"tol": cfg.series_tol, "max_terms": cfg.max_terms}
    lams = (("one", 1.0 + 0.0j), ("phase04", cmath.exp(0.4j)),
            ("sqrtq", complex(math.sqrt(q))))
    for lname, lam in lams:
        for m in range(-3, 4):
            for j in range(0, 11):
                def run(lam=lam, m=m, j=j):
                    (raw, simp), = _coamen_window(base, m, lam, [-j], "both",
                                                  **budget)
                    # Bare values, bound 0: both forms share one series,
                    # whose certificate adding both would count twice.
                    return _relative(simp.value, raw.value, 10.0 * cfg.tol)

                yield Check(f"rawsimp_{lname}_m{m}_j{j}", "Eq5.2",
                            {"lam": lname, "m": m, "j": j}, run)
    # The j-wise upper bound q^(2j-1) is specific to the m=0, lam=1 cell;
    # for m >= 1 the deviation exceeds it at small j (only the limit is
    # claimed there, checked by the chains below).
    for j in (2, 4, 8):
        def run(j=j):
            ev = coamen_coeff(base, 0, 1.0 + 0.0j, IqPoint.positive(-j),
                              **budget)
            return _versus(ev, 1.0, q ** (2 * j - 1))

        yield Check(f"coamen_bound_m0_j{j}", "Thm5.2",
                    {"lam": "one", "m": 0, "j": j}, run)
    for lname, lam in lams[:2]:
        for m in range(-2, 3):
            def run(lam=lam, m=m):
                return limit_sweep("coamen", base,
                                   {"m": m, "lam": lam, **budget},
                                   (2, 4, 8, 16), 1.0, 1e-6)

            yield Check(f"coamen_limit_{lname}_m{m}", "Thm5.2",
                        {"lam": lname, "m": m, "js": [2, 4, 8, 16]}, run)
    for m in (0, 1, 2):
        def run(m=m):
            return limit_sweep("averaged_coamen", base,
                               {"m": m, "lam": 1.0 + 0.0j, **budget},
                               ((5, 10), (10, 20), (20, 40)), 1.0, 0.15)

        yield Check(f"averaged_m{m}", "Thm5.2",
                    {"m": m, "chain": [[5, 10], [10, 20], [20, 40]]}, run)


def _sph(cfg: RunConfig, base: QBase, z: complex, p: IqPoint) -> SeriesEval:
    zp = SpectralParam.from_z(z, base)
    return spherical_az(base, zp, p, tol=cfg.series_tol,
                        max_terms=cfg.max_terms)


def _spherical_checks(cfg: RunConfig, base: QBase) -> Iterator[Check]:
    q = base.q
    st = cfg.series_tol
    budget = {"tol": st, "max_terms": cfg.max_terms}
    z_chain = (0.9, 0.99, 0.999)
    cases = (("spherical_case1", range(-6, 1), "PropB2.Case1"),
             ("spherical_case2", range(1, 7), "PropB2.Case2"),
             ("spherical_case3", range(1, 7), "PropB2.Case3"))
    for family, ks, anchor in cases:
        for k in ks:
            def run(family=family, k=k):
                return limit_sweep(family, base, {"k": k, **budget}, z_chain,
                                   1.0, 5e-3)

            yield Check(f"{family.removeprefix('spherical_')}_k{k}", anchor,
                        {"family": family, "k": k, "zs": list(z_chain)}, run)

    gap_zs = (0.9, 0.95, 0.99, 0.999, 1.0)
    gaps = []
    for z in gap_zs:
        def run(z=z):
            g = uniform_sup_gap(base, SpectralParam.from_z(z, base),
                                cfg.max_exponent, **budget)
            gaps.append(g)
            thr = cfg.tol if z == 1.0 else (5e-3 if z == 0.999 else 0.05)
            return _versus(g, 0.0, thr)

        yield Check(f"unifgap_z{z}", "Thm6.3",
                    {"z": z, "max_exponent": cfg.max_exponent}, run)
    # The caller runs each check as it is yielded, so ``gaps`` is filled
    # by now; the monotone row is left out when any gap check errored.
    if len(gaps) == len(gap_zs):
        def run():
            # An infinite gap fails the row: max() would drop inf - inf = nan.
            worst_rise = (max(0.0, max(b - a for a, b in zip(gaps, gaps[1:])))
                          if math.isfinite(sum(gaps)) else math.inf)
            return _scalar(gaps[-1], worst_rise, MONO_SLACK)

        yield Check("unifgap_monotone", "Thm6.3", {"zs": list(gap_zs)}, run)

    def run():
        zp = SpectralParam.from_z(0.95, base)
        g20 = uniform_sup_gap(base, zp, 20, **budget)
        g40 = uniform_sup_gap(base, zp, 40, **budget)
        return _versus(g40, g20, 1e-14)

    yield Check("unifgap_window", "Thm6.3", {"z": 0.95, "depths": [20, 40]},
                run)

    lam_near = q * (1.0 + 1e-3)
    for k in (1, 2, 3, 10, math.inf):
        kname = "inf" if k == math.inf else str(k)

        def run(k=k):
            v = pochhammer_ratio(base, complex(lam_near), k)
            return _versus(v, 0.0, 1e-2)

        yield Check(f"ratio_mod_k{kname}", "LemB.1",
                    {"lam_re": lam_near, "lam_im": 0.0, "k": kname}, run)

    offsets = (0.1, 0.01, 0.001)

    def run():
        return limit_sweep("b1_ratio", base, {"k": 3},
                           tuple(q * (1.0 + o) for o in offsets), 0.0, 1e-2)

    yield Check("ratio_monotone", "LemB.1",
                {"k": 3, "offsets": list(offsets)}, run)

    for i, (re, im) in enumerate(RATIO_LAMBDA_GRID):
        for k in (1, 2, 3, 7):
            def run(lam=complex(re, im), k=k):
                return _relative(pochhammer_ratio(base, lam, k),
                                 pochhammer_ratio_naive(base, lam, k),
                                 cfg.tol / 100.0)

            yield Check(f"ratio_agree_{i:02d}_k{k}", "LemB.1",
                        {"lam_re": re, "lam_im": im, "k": k}, run)

    period = base.period
    z0 = 0.35
    refs = {}  # the reference at each point, shared by its three multiples
    for p, anchor in ((IqPoint.positive(0), "PropB2.Case1"),
                      (IqPoint.positive(3), "PropB2.Case2"),
                      (IqPoint.negative(2), "PropB2.Case3")):
        for mult in (1, 2, 4):
            def run(p=p, mult=mult):
                if p not in refs:  # a refused reference is tried again
                    refs[p] = _sph(cfg, base, complex(z0, 0.0), p)
                return _versus(_sph(cfg, base, complex(z0, mult * period), p),
                               refs[p], cfg.tol)

            yield Check(f"periodic_s{p.sign}_k{p.exponent}_m{mult}", anchor,
                        {"z0": z0, "period_multiple": mult,
                         "sign": p.sign, "k": p.exponent}, run)

    for z in (0.5, 0.9):
        for p in (IqPoint.positive(0), IqPoint.positive(-3),
                  IqPoint.positive(2), IqPoint.negative(1)):
            def run(z=z, p=p):
                v = _sph(cfg, base, complex(z, 0.0), p)
                return _versus(v, v.value.real, cfg.tol)

            yield Check(f"real_z{z}_s{p.sign}_k{p.exponent}", "PropB2.Case1",
                        {"z": z, "sign": p.sign, "k": p.exponent}, run)

    half_period = math.pi / abs(base.log_q)
    depth = min(cfg.max_exponent, 12)
    for jmid in range(20):
        t = (jmid + 0.5) / 20.0 * half_period

        def run(t=t):
            zp = SpectralParam.from_z(complex(0.0, t), base)
            worst = max((ev for _, ev in _spectrum_window(base, zp, depth, **budget)),
                        key=lambda ev: abs(ev.value) + ev.tail_bound)
            return _scalar(worst.value, max(0.0, abs(worst.value) - 1.0), 1e-8,
                           worst.tail_bound)

        yield Check(f"contract_{jmid:02d}", "Thm6.3",
                    {"t": t, "depth": depth}, run)


def _smoothing_checks(cfg: RunConfig, base: QBase) -> Iterator[Check]:
    st, mt = cfg.series_tol, cfg.max_terms
    n_chain = (4.0, 16.0, 64.0, 256.0)
    for k in (2, 5):
        for p0k in (0, -1, -2, -4):
            def run(k=k, p0=IqPoint.positive(p0k), center=1.0 - 1.0 / k):
                target = spherical_az(base, SpectralParam.from_z(center, base),
                                      p0, tol=st, max_terms=mt)
                path = ContourPath("vertical_line", center)
                rows = []
                for n in n_chain:
                    quad = QuadratureSpec.for_width(n, base, cfg.tol_quad)
                    sm = gaussian_smooth(base, p0, k, n, path, quad, tol=st,
                                         max_terms=mt)
                    rows.append(sweep_row(n, sm, target))
                return sweep_report("gaussian_smooth", rows, 1e-2)

            yield Check(f"smooth_k{k}_p{p0k}", "Thm7.4",
                        {"k": k, "p0_k": p0k, "ns": list(n_chain)}, run)

    center = 0.5
    line = ContourPath("vertical_line", center)
    quad16 = QuadratureSpec.for_width(16.0, base, cfg.tol_quad)

    def run():
        sm = gaussian_smooth(base, IqPoint.positive(0), 2, 16.0, line, quad16,
                             tol=st, max_terms=mt)
        return _versus(sm.mass, 1.0, cfg.tol_quad)

    yield Check("mass_unit", "Eq7.1", {"k": 2, "n": 16}, run)

    def run():
        wiggly = ContourPath("perturbed", center, wiggle_amplitude=0.05)
        d = path_independence(base, IqPoint.positive(0), 2, 16.0, line,
                              wiggly, quad16, tol=st, max_terms=mt)
        return _versus(d, 0.0, 100.0 * cfg.tol_quad)

    yield Check("path_independence", "Eq7.1",
                {"k": 2, "n": 16, "wiggle": 0.05}, run)

    def run():
        va, vb = (gaussian_smooth(
            base, IqPoint.positive(0), 2, 256.0, line,
            QuadratureSpec.for_width(256.0, base, cfg.tol_quad,
                                     nodes_per_unit=npu), tol=st, max_terms=mt)
            for npu in (32, 64))
        return _versus(vb, va, cfg.tol_quad)

    yield Check("node_doubling", "Eq7.1",
                {"k": 2, "n": 256, "npu": [32, 64]}, run)

    c0, c1 = 0.7 - 0.2j, 0.31 + 0.11j

    def run():
        sm = gaussian_smooth(
            base, IqPoint.positive(0), 2, 16.0, line, quad16,
            integrand=lambda z: c0 + c1 * (z - center), tol=st,
        )
        # The bare value: the smoother's majorant does not cover a
        # supplied integrand, so its tail_bound is inf.
        return _versus(sm.value, c0, cfg.tol_quad)

    yield Check("affine_mean", "Eq7.1",
                {"k": 2, "n": 16, "c0": [c0.real, c0.imag],
                 "c1": [c1.real, c1.imag]}, run)


def _approxid_checks(cfg: RunConfig, base: QBase) -> Iterator[Check]:
    budget = {"tol": cfg.series_tol, "max_terms": cfg.max_terms}
    depth = min(cfg.max_exponent, 12)
    sym = symbol_clip_abs()
    zs = (0.9, 0.99, 0.999)

    def run():
        rows = []
        for z in zs:
            g = approx_identity_gap(base, SpectralParam.from_z(z, base),
                                    sym, depth, **budget)
            rows.append(sweep_row(z, g.gap, 0.0))
        return sweep_report("approx_identity_gap", rows, 0.02)

    yield Check("weighted_gap_chain", "Thm6.3",
                {"zs": list(zs), "symbol": sym.name, "depth": depth}, run)

    const = symbol_constant(1.0)

    def run():
        g = approx_identity_gap(base, SpectralParam.from_z(0.999, base),
                                const, depth, **budget)
        return _versus(g.gap, 0.0, 3.0)

    yield Check("const_symbol_bounded", "Thm6.3",
                {"z": 0.999, "symbol": const.name, "depth": depth}, run)


#: Each suite's check generator, by suite name.
_SUITE_CHECKS: dict[str, Callable[[RunConfig, QBase], Iterator[Check]]] = {
    "identities": _identities_checks,
    "spherical": _spherical_checks,
    "coamenability": _coamenability_checks,
    "smoothing": _smoothing_checks,
    "approxid": _approxid_checks,
}


# ---------------------------------------------------------------- reports


def _write_table(out: Path, name: str, cfg: RunConfig, key: str,
                 columns: tuple[str, ...], rows: list[dict]) -> None:
    """Write ``rows`` to ``name.csv`` (header ``columns``, then each row's
    values in order, a dict as compact JSON) and/or to ``name.json``
    (``{"header": ..., key: rows}``), as ``cfg.format`` asks."""
    if cfg.format in ("csv", "both"):
        with (out / f"{name}.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(columns)
            w.writerows([_compact_json(v) if isinstance(v, dict) else v
                         for v in row.values()] for row in rows)
    if cfg.format in ("json", "both"):
        header = {
            "version": __version__,
            "backend": backend(),
            "q": cfg.q,
            "tolerances": {"tol": cfg.tol, "tol_quad": cfg.tol_quad},
            "max_exponent": cfg.max_exponent,
            "max_terms": cfg.max_terms,
            "warnings": cfg.warnings(),
        }
        (out / f"{name}.json").write_text(json.dumps(
            {"header": header, key: rows}, sort_keys=True, indent=2) + "\n")


def run_suite(cfg: RunConfig) -> int:
    """Run the configured suites, write reports, return the exit code."""
    errs = cfg.problems()
    if errs:
        for e in errs:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    for w in cfg.warnings():
        print(f"warning: {w}", file=sys.stderr)

    base = QBase(cfg.q)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary = []
    for suite in dict.fromkeys(cfg.suites):
        try:
            # Each check runs as soon as it is yielded, before the
            # generator resumes: unifgap_monotone reads the gaps of the
            # checks before it.
            rows = [_run_check(suite, check)
                    for check in _SUITE_CHECKS[suite](cfg, base)]
        except Exception as err:  # crash inside a builder: partial report
            rows = [_run_check(suite, Check(
                "suite_crashed", "Eq4.1",
                {"error": f"{type(err).__name__}: {err}"}, lambda: _REFUSED))]
        _write_table(out, suite, cfg, "rows", _CSV_COLUMNS, rows)
        failures = sum(r["verdict"] != "pass" for r in rows)
        summary.append({"suite": suite, "checks": len(rows),
                        "failures": failures,
                        "verdict": "fail" if failures else "pass"})
    _write_table(out, "summary", cfg, "suites", _SUMMARY_COLUMNS, summary)

    for s in summary:
        print(f"{s['suite']}: {s['checks'] - s['failures']}/{s['checks']} "
              f"checks passed [{s['verdict']}]")
    return 1 if any(s["failures"] for s in summary) else 0


def build_parser() -> argparse.ArgumentParser:
    d = RunConfig()
    p = argparse.ArgumentParser(
        prog="qsu11-verify",
        description="Run the qsu11 verification suites and write reports.",
    )
    p.add_argument("--q", type=float, default=d.q,
                   help="deformation parameter in (0, 1) (default %(default)s)")
    p.add_argument("--tol", type=float, default=d.tol,
                   help="identity-check tolerance (default %(default)s)")
    p.add_argument("--tol-quad", type=float, default=d.tol_quad,
                   help="quadrature tolerance (default %(default)s)")
    p.add_argument("--max-exponent", type=int, default=d.max_exponent,
                   help="spectral truncation depth (default %(default)s)")
    p.add_argument("--max-terms", type=int, default=d.max_terms,
                   help="series term budget (default %(default)s)")
    p.add_argument("--suite", action="append", choices=SUITES, default=None,
                   help="suite to run (repeatable; default: all)")
    p.add_argument("--out", default=d.out_dir,
                   help="output directory (default %(default)s)")
    p.add_argument("--format", choices=_FORMATS, default=d.format,
                   help="report format (default %(default)s)")
    return p


def config_from_args(argv: list[str] | None = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    suites = tuple(args.suite) if args.suite else SUITES
    return RunConfig(q=args.q, tol=args.tol, tol_quad=args.tol_quad,
                     max_exponent=args.max_exponent, max_terms=args.max_terms,
                     suites=suites, out_dir=args.out, format=args.format)


def main(argv: list[str] | None = None) -> int:
    return run_suite(config_from_args(argv))


if __name__ == "__main__":
    sys.exit(main())
