"""Benchmark qsu11 end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--workload`` is ``verify``, ``pointwise`` or ``lattice`` (see
``workloads.py``), or ``all`` to run the three in turn.  The program is imported from ``src/`` of the
checkout; nothing needs building.  The run

1. runs blocks of the workload until ``--seconds`` have passed, timing
   every item and every block (``wall_s`` is the median block time);
2. between blocks, spread over the run, times ``SETUP_REPEATS`` fresh
   interpreters that import qsu11 and build ``QBase(0.5)`` with a
   single OpenBLAS thread (``setup_s`` is their median);
3. checks every output, and prints a summary, an environment record
   and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

Every time reported is scaled to a nominal host speed.  The fixed
pure-Python loop of ``speedref.py`` is timed right before and right
after each block and each set-up interpreter, and the time of the work
in between is multiplied by ``speedref.NOMINAL_S`` over the median of
those loop times.  On a small shared host the speed of a CPU drifts by
30-40% within a minute; the loop and the program slow down alike, so
the drift cancels, while a change to qsu11 (which the loop never calls)
keeps its full effect.  The unscaled median block time is printed
beside ``wall_s``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` untraced and traced blocks alternate
on identical inputs (block 0 of the seed); the metrics are the
per-layer ones from the traced blocks, plus ``trace_overhead_ratio``,
the median traced block time over the median untraced one.  Counts
(calls, terms, ...) come from the first traced block and must repeat
exactly in every other one; times are medians over traced blocks.

The same loop is also timed before and after the whole run and printed
with the environment record, so that drift of the host's speed during
a run is visible next to the figures it affects.

``--smoke`` shrinks every block to a few items; ``selfcheck.py`` uses it.
The exit code is 0 when a result was printed, 2 when the checkout
holds no qsu11 sources to benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speedref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 9

WORKLOAD_NAMES = ("verify", "pointwise", "lattice")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_STAT_UNITS = {"calls": "count", "self_s": "s", "terms": "count",
               "uncertified": "count", "refused": "count"}
_SERIES = ("calls", "self_s", "terms", "uncertified", "refused")


def _per_layer() -> dict[str, str]:
    names = ["import.numpy_s", "import.qsu11_s", "import.qbase_s"]
    layers = (
        ("qcalculus", (
            ("phi21_kernel", ("calls", "self_s")),
            ("qpoch_infinite_kernel", ("calls", "self_s")),
            ("qpoch_infinite", ("calls", "self_s", "terms")),
            ("qpoch_multi", ("calls", "self_s", "terms")),
            ("theta_pair", ("calls", "self_s", "refused")),
            ("phi21_direct", _SERIES),
            ("phi21_continued", _SERIES),
            ("phi21_heine", _SERIES),
        )),
        ("su11core", tuple(
            (f"spherical_az.{case}", _SERIES)
            for case in ("case1", "case2", "case3")) + tuple(
            (f"coamen_coeff.{form}.{route}", _SERIES)
            for form in ("raw", "simplified") for route in ("direct", "heine"))
            + (("averaged_coamen", _SERIES),)),
        ("limitlab", (
            ("limit_sweep", ("calls", "self_s")),
            ("uniform_sup_gap", ("calls", "self_s", "refused")),
            ("approx_identity_gap", ("calls", "self_s", "refused")),
            ("pochhammer_ratio", ("calls", "self_s", "refused")),
        )),
        ("smoother", (("gaussian_smooth", ("calls", "self_s", "refused")),)),
        ("harness", tuple(
            (suite, ("self_s",)) for suite in
            ("identities", "spherical", "coamenability", "smoothing",
             "approxid"))),
    )
    units = {n: "s" for n in names}
    for layer, fns in layers:
        units[f"{layer}.self_s"] = "s"
        for fn, stats in fns:
            for st in stats:
                units[f"{layer}.{fn}.{st}"] = _STAT_UNITS[st]
    units.update({
        "limitlab.evals_per_call": "count",
        "smoother.nodes": "count",
        "smoother.useful_nodes": "count",
        "smoother.useful_node_ratio": "ratio",
        "harness.run_suite.calls": "count",
        "harness.report_bytes": "bytes",
        "trace_overhead_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer()

SETUP_SCRIPT = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import numpy
t1 = time.perf_counter()
import qsu11
t2 = time.perf_counter()
qsu11.QBase(0.5)
t3 = time.perf_counter()
print(qsu11.__file__)
print(t1 - t0, t2 - t1, t3 - t2, t3 - t0)
"""


#: Environment of the set-up interpreters.  Importing numpy starts one
#: OpenBLAS thread per CPU; on a small shared host the time that takes
#: swings by 2x with the load on the other CPUs, which has nothing to do
#: with qsu11 (it makes no BLAS calls, and every workload is one thread).
SETUP_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def setup_once() -> list[float]:
    """One fresh interpreter: numpy, qsu11 and QBase times, and their sum.

    The times are scaled by the reference loop timed before and after
    the interpreter runs (see the module docstring).
    """
    before = speedref.time_once()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC)], env=SETUP_ENV,
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    where, times = proc.stdout.splitlines()[-2:]
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported qsu11 from {where}")
    scale = speedref.NOMINAL_S / statistics.median(
        (before, speedref.time_once()))
    return [float(t) * scale for t in times.split()]


def reference_loop_ms() -> float:
    """Median of three timings of the reference loop."""
    return statistics.median(speedref.time_once() for _ in range(3)) * 1e3


def environment(qsu11) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": qsu11.backend(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples).  With fewer than 20 samples
    that percentile would sit below the median (or not exist), so the
    upper quartile is returned instead, as percentile 75: a verify run
    makes about ten items, and their maximum swings with any one slow
    item.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return (statistics.quantiles(s, n=4)[2] if n > 1 else s[0]), 75.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _is_count(name: str) -> bool:
    return not (name.endswith("_s") or name == "trace_overhead_ratio")


class Run:
    """Measures one workload for a fixed time; see the module docstring."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures: dict[tuple, str] = {}
        self.kept: list[tuple[int, list, list]] = []
        self.block_s: list[float] = []
        self.items_per_block = 0
        self.item_s: list[float] = []  # kept only for blocks of few items
        self.block_p50: list[float] = []
        self.block_tail: list[float] = []
        self.traced_block_s: list[float] = []
        self.traced: list[dict[str, float]] = []
        self.setup_rows: list[list[float]] = []
        self.setup: dict[str, float] = {}
        self.raw_block_s: list[float] = []
        self.speed: list[float] = []  # reference loop times, latest last

    def _speed_samples(self) -> list[float]:
        """Reference loop times next to a block: enough for about 5% of it."""
        last = self.raw_block_s[-1] if self.raw_block_s else 0.0
        n = max(1, min(5, round(0.05 * last / speedref.NOMINAL_S)))
        return [speedref.time_once() for _ in range(n)]

    def _block(self, b: int, traced: bool, tracer) -> None:
        items = self.wl.block(self.seed, 0 if self.trace else b)
        outs, times = [], []
        run = self.wl.run
        before = self.speed or self._speed_samples()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            t_block = perf_counter()
            for item in items:
                t0 = perf_counter()
                try:
                    out = run(item, traced)
                except Exception as err:  # any failure of the program
                    out = err
                times.append(perf_counter() - t0)
                outs.append(out)
            block_s = perf_counter() - t_block
        finally:
            if traced:
                tracer.uninstall()
        # The loop times after this block also serve as the next block's
        # "before"; a set-up interpreter in between drops them.
        self.speed = self._speed_samples()
        scale = speedref.NOMINAL_S / statistics.median(before + self.speed)
        self.raw_block_s.append(block_s)
        block_s *= scale
        times = [t * scale for t in times]
        for i, (item, out) in enumerate(zip(items, outs)):
            if isinstance(out, Exception):
                msg = f"{type(out).__name__}: {out}"
            else:
                msg = self.wl.check(item, out, traced)
            if msg:
                self.failures[(b, i)] = f"{item!r}: {msg}"
        self.attempted += len(items)
        if traced:
            self.traced_block_s.append(block_s)
            self.traced.append({
                k: v * scale if not _is_count(k) else v
                for k, v in tracer.block_metrics().items()})
            return
        self.block_s.append(block_s)
        self.items_per_block = len(times)
        # Per-block summaries keep memory flat whatever the item rate,
        # so peak_rss_mb does not grow when the program gets faster.
        if len(times) >= 20:
            self.block_p50.append(statistics.median(times))
            self.block_tail.append(tail(times)[0])
        else:
            self.item_s.extend(times)
        if len(self.kept) < 3:
            self.kept.append((b, items, outs))

    def measure(self, setup_repeats: int) -> None:
        from tracer import Tracer
        tracer = Tracer() if self.trace else None
        setup_once()  # warm-up: writes bytecode caches on a first run
        start = perf_counter()
        b = 0
        while True:
            # Set-up samples are spread over the run, between blocks, so
            # their median covers the same host conditions as the blocks.
            if len(self.setup_rows) < setup_repeats and perf_counter() - start \
                    >= self.seconds * len(self.setup_rows) / setup_repeats:
                self.setup_rows.append(setup_once())
                self.speed = []
            self._block(b, self.trace and b % 2 == 1, tracer)
            b += 1
            done = perf_counter() - start >= self.seconds
            if done and (not self.trace or b % 2 == 0):
                break
        while len(self.setup_rows) < setup_repeats:
            self.setup_rows.append(setup_once())
        cols = list(zip(*self.setup_rows))
        self.setup = {name: statistics.median(col) for name, col in zip(
            ("import.numpy_s", "import.qsu11_s", "import.qbase_s", "setup_s"),
            cols)}
        found = self.wl.final_check([(items, outs)
                                     for _, items, outs in self.kept])
        for k, i, msg in found:
            b, items, _ = self.kept[k]
            self.failures.setdefault((b, i), f"{items[i]!r}: {msg}")
        if self.trace:
            first = self.traced[0]
            for n, m in enumerate(self.traced[1:], 1):
                if {k: v for k, v in m.items() if _is_count(k)} != \
                        {k: v for k, v in first.items() if _is_count(k)}:
                    self.failures[("trace", n)] = \
                        "trace counts differ between identical blocks"

    def end_to_end(self) -> tuple[dict, list[str]]:
        n = self.items_per_block
        blocks = len(self.block_s)
        if self.block_tail:
            p50 = statistics.median(self.block_p50)
            tail_s = statistics.median(self.block_tail)
            p50_note = f"median over {blocks} blocks of the block median"
            tail_note = (f"median over {blocks} blocks of the "
                         f"p{100.0 * (n - 10) / n:.2f} of {n} items")
        else:
            p50 = statistics.median(self.item_s)
            tail_s, pct, k = tail(self.item_s)
            p50_note = f"median of {k} items"
            tail_note = f"p{pct:.2f} of {k} items"
        values = {
            "setup_s": self.setup["setup_s"],
            "wall_s": statistics.median(self.block_s),
            "item_p50_ms": p50 * 1e3,
            "item_tail_ms": tail_s * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(self.setup_rows)} fresh interpreters",
            "wall_s": f"median of {blocks} blocks of {n} items, range "
                      f"{min(self.block_s):.6g}..{max(self.block_s):.6g} s; "
                      f"unscaled median "
                      f"{statistics.median(self.raw_block_s):.6g} s",
            "item_p50_ms": p50_note,
            "item_tail_ms": tail_note,
            "peak_rss_mb": "ru_maxrss of this process",
        }
        lines = [f"  {k:<14} {values[k]:>14.6f} {END_TO_END[k]:<5} {notes[k]}"
                 for k in END_TO_END]
        return values, lines

    def per_layer(self) -> tuple[dict, list[str]]:
        values = {}
        for name in PER_LAYER:
            if name.startswith("import."):
                values[name] = self.setup[name]
            elif name == "harness.report_bytes":
                values[name] = self.wl.extra.get(name, 0)
            elif name == "trace_overhead_ratio":
                values[name] = (statistics.median(self.traced_block_s)
                                / statistics.median(self.block_s))
            elif _is_count(name):
                values[name] = self.traced[0].get(name, 0)
            else:
                values[name] = statistics.median(
                    m.get(name, 0.0) for m in self.traced)
        refused = {k: v for k, v in self.traced[0].items()
                   if ".refused." in k}
        lines = [f"  {k:<52} {v!r:>24} {PER_LAYER[k]}"
                 for k, v in values.items()]
        if refused:
            lines.append(f"  refused by class: {json.dumps(refused)}")
        return values, lines


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; print each report in turn.

    The last line combines them: metric names are prefixed with the
    workload's name.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name] + common,
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few items per block (for selfcheck.py)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "qsu11" / "__init__.py").is_file():
        print(f"error: no qsu11 sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qsu11
    if not Path(qsu11.__file__).resolve().is_relative_to(SRC):
        print(f"error: qsu11 imported from {qsu11.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment(qsu11)
    env["ref_loop_ms_before"] = reference_loop_ms()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        wl = WORKLOADS[args.workload](WORKDIR, args.smoke)
        run = Run(wl, args.seed, args.seconds, bool(args.trace))
        run.measure(1 if args.smoke else SETUP_REPEATS)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    env["ref_loop_ms_after"] = reference_loop_ms()

    failed = len(run.failures)
    if args.trace:
        values, lines = run.per_layer()
    else:
        values, lines = run.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} items, {failed} failed, "
          f"fail_ratio {failed / run.attempted!r} "
          f"[{'correct' if not failed else 'INCORRECT'}]")
    for msg in list(run.failures.values())[:10]:
        print(f"  failure: {msg}")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
