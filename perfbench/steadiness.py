"""Steadiness check: do two sets of runs of one commit agree within the
bounds of ``BENCHMARK.json``?

Run from the root of a checkout::

    python3 perfbench/steadiness.py                      # 2 sets x 10 seeds
    python3 perfbench/steadiness.py --runs 5 --sets 1 --workloads fuzz
    python3 perfbench/steadiness.py --runs 1 --sets 1    # one run each

Every run's end-to-end metrics are printed with their units and its
``failed_frac``; a run whose output check fails stops the script with
exit code 1.

Each set runs every workload once per seed (seeds ``1..runs`` in the
first set, the next ``runs`` seeds in the second), round-robin over
the workloads, with ``--trace 0`` and ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric it reports the median
and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and
the shift of the second set's median against the first in the worse
direction.

A spread above the metric's bound (in either set, ``setup_s`` too) or
a shift above it marks the metric *unresolved*: the benchmark cannot
tell a change of that size from noise, and the exit code is 1.  A
spread above a third of the bound is flagged as *loose*.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    values: Dict[str, List[Dict[str, List[float]]]] = {
        w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
        for w in workloads
    }
    for set_index in range(args.sets):
        for run in range(args.runs):
            seed = 1 + set_index * args.runs + run
            for workload in workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: output check "
                                     "failed")
                for metric in metrics:
                    values[workload][set_index][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"]
                    )
                print(f"set {set_index + 1} seed {seed} {workload}: " + ", ".join(
                    f"{name}={m['value']:.4g} {m['unit']}"
                    for name, m in result["metrics"].items()
                ) + f", failed_frac={result['failed'] / result['attempted']:.4g}",
                    flush=True)
    if args.runs < 2:
        return 0  # a spread needs at least two runs
    unresolved = 0
    print(f"\n{'workload':<13} {'metric':<12} {'bound':>5}  "
          + "  ".join(f"{'median':>9} {'spread':>6}" for _ in range(args.sets))
          + ("   shift" if args.sets > 1 else ""))
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = values[workload]
            cells, verdicts = [], []
            for observed in sets:
                s = spread(observed[name])
                cells.append(f"{statistics.median(observed[name]):>9.4g} {s:>6.3f}")
                if s > bound:
                    verdicts.append("UNRESOLVED spread")
                elif s > bound / 3:
                    verdicts.append("loose")
            line = f"{workload:<13} {name:<12} {bound:>5}  " + "  ".join(cells)
            if args.sets > 1:
                shift = worse_shift(statistics.median(sets[0][name]),
                                    statistics.median(sets[-1][name]),
                                    metric["better"])
                line += f"  {shift:>+6.3f}"
                if shift > bound:
                    verdicts.append("UNRESOLVED shift")
            if any(v.startswith("UNRESOLVED") for v in verdicts):
                unresolved += 1
            print(line + ("  " + ", ".join(sorted(set(verdicts)))
                          if verdicts else ""))
    print(f"\n{unresolved} unresolved metric(s)")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
