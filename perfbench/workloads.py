"""The three benchmark workloads: verify, pointwise and lattice.

Every workload is a closed loop: one client, one process, one thread;
the next item starts when the previous one has returned.  Work is cut
into blocks, a fixed amount of work each.  ``block(seed, index)`` is a
pure function of its arguments and returns plain tuples, so the same
seed always gives the same inputs; the program sees only those inputs.

* ``verify`` -- the shipped default ``qsu11-verify`` run (all five
  suites at q = 0.5), one run per block.  Its inputs are the committed
  grids, so the seed has no effect on it.  Chosen because it is what
  users run; about 93% of its time is Gaussian smoothing, so smoother
  and 2phi1-loop changes show here.
* ``pointwise`` -- independent scalar evaluator calls with no work
  shared between them, 100 per kind per block, drawn uniformly from
  the documented domains.  Per-call overhead (guards, prefactor
  products, result objects) dominates; it is the only workload that
  exercises spherical cases 2 and 3 and the Heine route much.
* ``lattice`` -- window experiments in which many lattice exponents
  share one spectral parameter (sup gaps, weighted gaps, averaged
  windows, limit chains).  Caching or batching over the exponent k
  shows here; quadrature changes should not.

Each workload checks its own outputs.  Cheap checks run on every item
outside the timed region; the pointwise mpmath comparison runs on a
seeded subsample after the measurement.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import random
from pathlib import Path

import qsu11 as Q

from reference import Reference, rel_error

#: Deformation parameter of every workload.  Other values are not used:
#: at q in {0.3, 0.4, 0.6, 0.7} some verify checks already fail.
QV = 0.5

#: Series tolerance the verify suites use at their default settings
#: (``RunConfig().series_tol``).
TOL = 1e-12

#: Relative agreement required against the mpmath reference and between
#: the raw and simplified coamen forms: the coamenability suite's
#: raw-vs-simplified threshold (10 x the default check tolerance 1e-10).
REL_TOL = 1e-9

#: Rows the shipped verify run writes; every one must pass.
VERIFY_ROWS = 701

PERIOD = 2.0 * math.pi / abs(math.log(QV))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _strip(rng: random.Random, re_lo: float = -1.5,
           re_hi: float = 1.5) -> tuple[float, float]:
    """z uniform in Re z in [re_lo, re_hi], |Im z| <= period / 2."""
    return rng.uniform(re_lo, re_hi), rng.uniform(-PERIOD / 2, PERIOD / 2)


def _chain_zs(rng: random.Random) -> tuple[float, float, float]:
    """z_i = 1 - 10**-u_i, u_i in [i, i + 1): the suites' (0.9, 0.99, 0.999)."""
    return tuple(1.0 - 10.0 ** -rng.uniform(i, i + 1) for i in (1, 2, 3))


def _rel(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


class Workload:
    name = ""

    def __init__(self, workdir: Path, smoke: bool) -> None:
        self.workdir = workdir
        self.smoke = smoke
        self.base = Q.QBase(QV)
        self.extra: dict[str, float] = {}

    def block(self, seed: int, index: int) -> list[tuple]:
        raise NotImplementedError

    def run(self, item: tuple, traced: bool):
        raise NotImplementedError

    def check(self, item: tuple, out, traced: bool) -> str | None:
        """Failure message for one item's output, or None when correct."""
        raise NotImplementedError

    def final_check(self, blocks: list[tuple[list, list]]) -> list[tuple]:
        """(block, item, message) failures found after the measurement."""
        return []

    def _zp(self, zr: float, zi: float):
        return Q.SpectralParam.from_z(complex(zr, zi), self.base)


# ------------------------------------------------------------------ verify


class Verify(Workload):
    name = "verify"

    def __init__(self, workdir: Path, smoke: bool) -> None:
        super().__init__(workdir, smoke)
        self.out = workdir / "reports"
        self.hashes: dict[str, str] | None = None

    def block(self, seed: int, index: int) -> list[tuple]:
        return [("verify",)]

    def run(self, item: tuple, traced: bool) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            if not traced:
                return Q.run_suite(Q.RunConfig(out_dir=str(self.out)))
            # One run_suite call per suite, so each suite gets its own span.
            return max(Q.run_suite(Q.RunConfig(out_dir=str(self.out),
                                               suites=(s,)))
                       for s in Q.harness.SUITES)

    def check(self, item: tuple, out, traced: bool) -> str | None:
        if out != 0:
            return f"exit code {out}"
        if not self.out.is_dir():
            return "no reports written"
        files = {}
        for p in sorted(self.out.iterdir()):
            files[p.name] = p.read_bytes()
            p.unlink()  # the next run must write afresh
        rows = passed = 0
        for name, data in files.items():
            if name == "summary.csv":
                continue
            lines = data.decode().splitlines()[1:]
            rows += len(lines)
            passed += sum(1 for ln in lines if ln.endswith(",pass"))
        if (rows, passed) != (VERIFY_ROWS, VERIFY_ROWS):
            return f"{passed} of {rows} rows pass, expected {VERIFY_ROWS}"
        hashes = {n: hashlib.sha256(d).hexdigest() for n, d in files.items()}
        if traced:  # summary.csv then covers only the last suite
            hashes.pop("summary.csv", None)
        else:
            self.extra["harness.report_bytes"] = sum(map(len, files.values()))
        if self.hashes is None:
            self.hashes = hashes
        elif any(self.hashes.get(n) != h for n, h in hashes.items()):
            return "reports differ between iterations"
        return None


# --------------------------------------------------------------- pointwise

POINTWISE_KINDS = (
    "sph_case1", "sph_case2", "sph_case3",
    "coamen_simplified_direct", "coamen_simplified_heine",
    "coamen_raw_direct", "coamen_raw_heine",
    "theta_pair", "pochhammer_ratio",
)

# (m, j) cells of the coamenability grid, m in [-3, 3], j in [0, 10],
# split by route: e = 2 + 2j - 4m > 0 sums directly, e <= 0 goes Heine.
_COAMEN_CELLS = {
    route: [(m, j) for m in range(-3, 4) for j in range(0, 11)
            if (2 + 2 * j - 4 * m > 0) == (route == "direct")]
    for route in ("direct", "heine")
}

_RATIO_KS = tuple(range(1, 11)) + (math.inf,)

#: Items per kind and block checked against mpmath, from the first
#: REFERENCE_BLOCKS blocks.
REFERENCE_PER_KIND = 2
REFERENCE_BLOCKS = 3


class Pointwise(Workload):
    name = "pointwise"

    def __init__(self, workdir: Path, smoke: bool) -> None:
        super().__init__(workdir, smoke)
        self.per_kind = 3 if smoke else 100

    def _draw(self, rng: random.Random, kind: str) -> tuple:
        if kind.startswith("sph_case"):
            k = rng.randint(-12, 0) if kind == "sph_case1" else rng.randint(1, 12)
            return (kind, k) + _strip(rng)
        if kind.startswith("coamen"):
            return (kind,) + rng.choice(_COAMEN_CELLS[kind.rsplit("_", 1)[1]]) \
                + _strip(rng)
        if kind == "theta_pair":
            # a uniform (by area) in the annulus 0.5 <= |a| <= 2
            a = cmath.rect(math.sqrt(rng.uniform(0.25, 4.0)),
                           rng.uniform(-math.pi, math.pi))
            return (kind, a.real, a.imag, rng.randint(-5, 5))
        # |lam| >= q: the documented window of the stable ratio
        return (kind,) + _strip(rng, -1.5, 1.0) + (rng.choice(_RATIO_KS),)

    def block(self, seed: int, index: int) -> list[tuple]:
        rng = _rng(self.name, seed, index)
        items = [self._draw(rng, kind) for kind in POINTWISE_KINDS
                 for _ in range(self.per_kind)]
        rng.shuffle(items)
        return items

    def run(self, item: tuple, traced: bool):
        kind = item[0]
        base = self.base
        if kind.startswith("sph_case"):
            _, k, zr, zi = item
            p0 = Q.IqPoint(-1 if kind == "sph_case3" else 1, k)
            return Q.spherical_az(base, self._zp(zr, zi), p0, tol=TOL)
        if kind.startswith("coamen"):
            _, m, j, zr, zi = item
            return Q.coamen_coeff(base, m, self._zp(zr, zi).lam,
                                  Q.IqPoint.positive(-j),
                                  form=kind.split("_")[1], tol=TOL)
        if kind == "theta_pair":
            _, ar, ai, k = item
            return Q.theta_pair(complex(ar, ai), k, base, tol=TOL)
        _, zr, zi, k = item
        return Q.pochhammer_ratio(base, self._zp(zr, zi).lam, k)

    def check(self, item: tuple, out, traced: bool) -> str | None:
        kind = item[0]
        if kind == "theta_pair":
            if not out.absolute and not out.residual <= 1e-10:
                return f"theta residual {out.residual!r} > 1e-10"
        elif kind == "pochhammer_ratio":
            if not math.isfinite(abs(out)):
                return "non-finite ratio"
        elif not math.isfinite(abs(out.value)):
            return "non-finite value"
        elif not math.isfinite(out.tail_bound):
            return "uncertified (tail_bound = inf)"
        return None

    def _reference(self, ref: Reference, item: tuple, out) -> str | None:
        kind = item[0]
        if kind.startswith("sph_case"):
            _, k, zr, zi = item
            sign = -1 if kind == "sph_case3" else 1
            want = ref.spherical(self._zp(zr, zi).lam, sign, k)
            got = out.value
        elif kind.startswith("coamen"):
            _, m, j, zr, zi = item
            form = kind.split("_")[1]
            lam = self._zp(zr, zi).lam
            want = ref.coamen(m, lam, -j, form)
            got = out.value
            other = Q.coamen_coeff(
                self.base, m, lam, Q.IqPoint.positive(-j),
                form="raw" if form == "simplified" else "simplified", tol=TOL)
            if not _rel(got, other.value) <= REL_TOL:
                return (f"raw and simplified forms differ by "
                        f"{_rel(got, other.value):.3g}")
        elif kind == "theta_pair":
            _, ar, ai, k = item
            want = ref.theta_lhs(complex(ar, ai), k)
            got = out.lhs
        else:
            _, zr, zi, k = item
            want = ref.pochhammer_ratio(self._zp(zr, zi).lam, k)
            got = out
        err = rel_error(got, want)
        if not err <= REL_TOL:
            return f"relative error {err:.3g} against mpmath"
        return None

    def final_check(self, blocks: list[tuple[list, list]]) -> list[tuple]:
        ref = Reference(QV)
        failures = []
        for b, (items, outs) in enumerate(blocks[:REFERENCE_BLOCKS]):
            rng = _rng("pointwise-reference", b, 0)
            for kind in POINTWISE_KINDS:
                idx = [i for i, item in enumerate(items) if item[0] == kind]
                for i in rng.sample(idx, min(REFERENCE_PER_KIND, len(idx))):
                    if isinstance(outs[i], Exception):
                        continue  # already counted as a failure
                    msg = self._reference(ref, items[i], outs[i])
                    if msg:
                        failures.append((b, i, msg))
        return failures


# ----------------------------------------------------------------- lattice

# Items per block.  A weighted chain costs 40 to 300 other items (cases
# 2 and 3 at up to 24 exponents, three times), so a block holds only 8;
# they still take about 80% of its time.
LATTICE_KINDS = (("sup_gap", 32), ("weighted_chain", 8), ("averaged", 32),
                 ("sphere_chain", 32), ("coamen_chain", 32))

_SPHERE_FAMILIES = (("spherical_case1", -6, 0), ("spherical_case2", 1, 6),
                    ("spherical_case3", 1, 6))


class Lattice(Workload):
    name = "lattice"

    def _draw(self, rng: random.Random, kind: str) -> tuple:
        # The domains are those on which the suites apply the thresholds
        # in check(): z in [0.9, 1) and chains like (0.9, 0.99, 0.999);
        # windows of n in [20, 40] at p1 = q^(-2n), as at the end of the
        # averaged chain; exponents k in the spherical suite's ranges.
        # Spectral parameters of coamen experiments lie on |lam| = 1.
        if kind == "sup_gap":
            return (kind, rng.uniform(0.9, 1.0), rng.randint(12, 24))
        if kind == "weighted_chain":
            return (kind, _chain_zs(rng), rng.randint(12, 24))
        if kind == "averaged":
            return (kind, rng.randint(20, 40), rng.randint(-2, 2),
                    rng.uniform(-math.pi, math.pi))
        if kind == "sphere_chain":
            family, lo, hi = rng.choice(_SPHERE_FAMILIES)
            return (kind, family, rng.randint(lo, hi), _chain_zs(rng))
        return (kind, rng.randint(-2, 2), rng.uniform(-math.pi, math.pi))

    def block(self, seed: int, index: int) -> list[tuple]:
        rng = _rng(self.name, seed, index)
        items = [self._draw(rng, kind) for kind, count in LATTICE_KINDS
                 for _ in range(1 if self.smoke else count)]
        rng.shuffle(items)
        return items

    def run(self, item: tuple, traced: bool):
        kind = item[0]
        base = self.base
        if kind == "sup_gap":
            _, z, depth = item
            return Q.uniform_sup_gap(base, self._zp(z, 0.0), depth, tol=TOL)
        if kind == "weighted_chain":
            _, zs, depth = item
            sym = Q.symbol_clip_abs()
            return [Q.approx_identity_gap(base, self._zp(z, 0.0), sym, depth,
                                          tol=TOL).gap for z in zs]
        if kind == "averaged":
            _, n, m, theta = item
            return Q.averaged_coamen(base, n, Q.IqPoint.positive(-2 * n), m,
                                     cmath.exp(1j * theta), tol=TOL)
        if kind == "sphere_chain":
            _, family, k, zs = item
            return Q.limit_sweep(family, base, {"k": k, "tol": TOL}, zs,
                                 1.0, 5e-3)
        _, m, theta = item
        return Q.limit_sweep("coamen", base,
                             {"m": m, "lam": cmath.exp(1j * theta), "tol": TOL},
                             (2, 4, 8, 16), 1.0, 1e-6)

    def check(self, item: tuple, out, traced: bool) -> str | None:
        # Thresholds are those of the matching suite checks.
        kind = item[0]
        if kind == "sup_gap":
            thr = 5e-3 if item[1] >= 0.999 else 0.05
            return None if out <= thr else f"sup gap {out!r} > {thr}"
        if kind == "weighted_chain":
            mono = all(out[i + 1] <= out[i] + Q.limitlab.MONO_SLACK
                       for i in range(len(out) - 1))
            if mono and out[-1] <= 0.02:
                return None
            return f"weighted gaps {out!r}: need monotone, final <= 0.02"
        if kind == "averaged":
            if not math.isfinite(out.tail_bound):
                return "uncertified average"
            dev = abs(out.value - 1.0)
            return None if dev <= 0.15 else f"average deviation {dev!r} > 0.15"
        if out.verdict != "pass":
            return f"sweep failed: {[r.deviation for r in out.rows]!r}"
        return None


WORKLOADS = {w.name: w for w in (Verify, Pointwise, Lattice)}
