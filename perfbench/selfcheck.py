"""Self-check of the benchmark's own code.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It confirms that

* each workload's generated inputs are identical for the same seed and
  differ across seeds and blocks (``verify`` excepted: it runs the
  committed grids, so its inputs must not depend on the seed);
* the metric names and units ``run.py`` prints match ``BENCHMARK.json``,
  and so do the workload names;
* a smoke size of every workload runs, with tracing off and on, and
  reports correct outputs; every per-layer metric other than the
  ``uncertified`` and ``refused`` counts is nonzero on some workload,
  so a misspelt name cannot hide behind a default of 0;
* the traced ``calls`` and ``terms`` counts (and every other count)
  repeat exactly between two runs with the same seed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems: list[str] = []
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES) \
            or sorted(WORKLOADS) != sorted(run.WORKLOAD_NAMES):
        problems.append("workload names differ from BENCHMARK.json")
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != printed:
            problems.append(f"{key} names or units differ from BENCHMARK.json: "
                            f"{sorted(set(listed) ^ set(printed))}")

    for name in run.WORKLOAD_NAMES:
        wl = WORKLOADS[name](run.WORKDIR, smoke=False)
        if wl.block(1, 0) != wl.block(1, 0):
            problems.append(f"{name}: same seed gave different inputs")
        seeded = wl.block(1, 0) != wl.block(2, 0)
        if seeded != (name != "verify"):
            problems.append(f"{name}: inputs {'do' if seeded else 'do not'} "
                            f"depend on the seed")
        if name != "verify" and wl.block(1, 0) == wl.block(1, 1):
            problems.append(f"{name}: blocks 0 and 1 have the same inputs")

    nonzero: set[str] = set()
    for name in run.WORKLOAD_NAMES:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            res = smoke(name, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {set(res)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: outputs incorrect")
            if set(res["metrics"]) != set(names):
                problems.append(f"{name} trace={trace}: printed metrics differ")
            nonzero |= {k for k, v in res["metrics"].items() if v["value"]}
            if trace:
                again = smoke(name, trace)
                for k in names:
                    if run._is_count(k) and \
                            res["metrics"][k] != again["metrics"][k]:
                        problems.append(f"{name}: {k} differs between runs")
    for k in run.PER_LAYER:
        if k not in nonzero and not k.endswith((".uncertified", ".refused")):
            problems.append(f"per-layer metric {k} is 0 on every workload")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
