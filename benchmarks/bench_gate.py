"""Benchmark-regression gate: fresh throughput vs committed baseline.

Compares a just-measured ``BENCH_fault_sweep.json`` record against the
baseline committed at ``benchmarks/BENCH_fault_sweep.json`` and exits 1
when any shared ``engines`` entry's ``runs_per_s`` fell more than
``--tolerance`` (default 30%) below the baseline.  In a quick-profile
record those entries are the two sweep engines (``scalar@1`` and
``vector@1``, runs per second) and the Tables 1–3 build at 1024 words
(``tables@1``, table rows per second), so table-build time is gated
by the same loop.  Faster-than-baseline is never an error — the
baseline is refreshed by the nightly job, not by the gate.

The two records must describe the same workload (profile, geometry,
algorithms, universe, run count) — a mismatch is a hard error rather
than a meaningless ratio.  Both must also carry the current harness
schema (see ``_harness.SCHEMA_VERSION``).

CI usage (the ``bench-gate`` job)::

    PYTHONPATH=src python benchmarks/bench_fault_sweep.py --out current.json
    PYTHONPATH=src python benchmarks/bench_gate.py --current current.json

Dry-run proof that the gate trips — divide the fresh throughput by a
synthetic factor before comparing::

    PYTHONPATH=src python benchmarks/bench_gate.py --current current.json \
        --simulate-slowdown 2
"""

from __future__ import annotations

import argparse
import os
import sys

from _harness import load_record

#: Comparable-workload keys: a gate run only means something when both
#: records measured the same thing.
WORKLOAD_KEYS = ("profile", "geometry", "algorithms", "universe", "runs")


def compare(
    baseline: dict,
    current: dict,
    tolerance: float,
    slowdown: float = 1.0,
) -> list:
    """Per-engine verdicts; raises ``ValueError`` on workload mismatch."""
    for key in WORKLOAD_KEYS:
        if baseline.get(key) != current.get(key):
            raise ValueError(
                f"workload mismatch on {key!r}: baseline "
                f"{baseline.get(key)!r} vs current {current.get(key)!r} "
                "(refresh the baseline or match its profile flags)"
            )
    verdicts = []
    for key, base_entry in baseline.get("engines", {}).items():
        cur_entry = current.get("engines", {}).get(key)
        if cur_entry is None:
            continue  # jobs>1 entries exist only in full-profile records
        base_rps = base_entry.get("runs_per_s")
        cur_rps = cur_entry.get("runs_per_s")
        if not base_rps or not cur_rps:
            continue
        cur_rps = cur_rps / slowdown
        ratio = cur_rps / base_rps
        verdicts.append({
            "engine": key,
            "baseline_runs_per_s": base_rps,
            "current_runs_per_s": round(cur_rps, 2),
            "ratio": round(ratio, 3),
            "ok": ratio >= 1.0 - tolerance,
        })
    if not verdicts:
        raise ValueError(
            "no comparable engine entries between baseline and current"
        )
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "BENCH_fault_sweep.json",
        ),
        help="committed baseline record "
        "(default: benchmarks/BENCH_fault_sweep.json)",
    )
    parser.add_argument(
        "--current", required=True,
        help="freshly measured record (bench_fault_sweep.py --out ...)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional throughput drop (default: 0.30)",
    )
    parser.add_argument(
        "--simulate-slowdown", type=float, default=1.0, metavar="FACTOR",
        help="divide current throughput by FACTOR before comparing — a "
        "dry run proving the gate trips (2 must fail at the default "
        "tolerance)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_record(args.baseline, expect_benchmark="fault_sweep")
        current = load_record(args.current, expect_benchmark="fault_sweep")
        verdicts = compare(
            baseline, current, args.tolerance, args.simulate_slowdown
        )
    except (OSError, ValueError) as error:
        print(f"bench-gate error: {error}", file=sys.stderr)
        return 2

    slowdown = (
        f" [simulated {args.simulate_slowdown}x slowdown]"
        if args.simulate_slowdown != 1.0
        else ""
    )
    print(
        f"bench-gate: tolerance {args.tolerance:.0%}, workload "
        f"{tuple(baseline['geometry'])} {baseline['universe']} "
        f"({baseline['runs']} runs){slowdown}"
    )
    failed = False
    for verdict in verdicts:
        mark = "ok  " if verdict["ok"] else "FAIL"
        print(
            f"  {mark} {verdict['engine']}: "
            f"{verdict['current_runs_per_s']} runs/s vs baseline "
            f"{verdict['baseline_runs_per_s']} "
            f"(x{verdict['ratio']})"
        )
        failed = failed or not verdict["ok"]
    if failed:
        print(
            "bench-gate: throughput regression beyond tolerance; if "
            "intended, apply the skip-bench-gate label or refresh the "
            "baseline",
            file=sys.stderr,
        )
        return 1
    print("bench-gate: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
