"""Service-layer overhead: engine dispatch and store cache economics.

Measures the cost of routing a fault sweep through the PR-9 service
layer instead of running it inline:

* **direct** — ``run_fault_sweep`` serial inline, the pre-service
  baseline;
* **engine** — the same workload dispatched through a shared
  :class:`~repro.service.engine.JobEngine` (worker pool, retry
  bookkeeping, chaos hooks armed but idle), measuring pure orchestration
  overhead;
* **cold store** — store-backed run on an empty cache (every shard a
  miss + put);
* **warm store** — the immediate rerun on the same store: every shard
  answered from the content-hashed cache, reporting the hit rate and
  the resulting speedup.

All four produce the same report payload (timing aside) — asserted
here, because a benchmark of a nondeterministic service would be
measuring noise — and the record lands in ``BENCH_service.json`` for
the nightly ``bench-report`` bundle.  Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

from _harness import Sections, parse_geometry, timed, write_record

from repro.conformance import run_fault_sweep, sweep_faults
from repro.core.controller import ControllerCapabilities
from repro.march import library
from repro.service import JobEngine, ResultStore

#: Small enough that service overhead is the signal, not the sweep.
ALGORITHMS = ("MATS+", "March C", "March Y")
GEOMETRY = (8, 2, 1)


def _sans_timing(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k != "timing"},
        sort_keys=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--geometry", metavar="WxBxP", default=None,
        help="memory geometry (default: 8x2x1)",
    )
    parser.add_argument(
        "--per-kind", type=int, default=2,
        help="stratified-sample size per fault kind (default: 2)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="engine worker count for the dispatch measurement",
    )
    parser.add_argument(
        "--out", default="BENCH_service.json",
        help="output record path (default: BENCH_service.json)",
    )
    args = parser.parse_args(argv)

    geometry = parse_geometry(args.geometry or "8x2x1")
    caps = ControllerCapabilities(
        n_words=geometry[0], width=geometry[1], ports=geometry[2]
    )
    tests = [library.get(name) for name in ALGORITHMS]
    faults = sweep_faults(caps, per_kind=args.per_kind)

    sections = Sections()
    payloads = {}

    with sections.section("direct"):
        with timed() as t_direct:
            direct = run_fault_sweep(tests, caps, faults, jobs=1)
    payloads["direct"] = direct.to_json()

    with sections.section("engine"):
        with JobEngine(workers=args.workers) as engine:
            with timed() as t_engine:
                engined = run_fault_sweep(
                    tests, caps, faults, jobs=args.workers, service=engine
                )
    payloads["engine"] = engined.to_json()

    workdir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        store = ResultStore(f"{workdir}/store")
        with sections.section("store_cold"):
            with timed() as t_cold:
                cold = run_fault_sweep(
                    tests, caps, faults, jobs=1, store=store
                )
        payloads["store_cold"] = cold.to_json()

        with sections.section("store_warm"):
            with timed() as t_warm:
                warm = run_fault_sweep(
                    tests, caps, faults, jobs=1, store=store
                )
        payloads["store_warm"] = warm.to_json()
        warm_stats = warm.service_stats["store"]
        hits = warm_stats["hits"]
        hit_rate = hits / max(1, hits + warm_stats["misses"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = _sans_timing(payloads["direct"])
    identical = all(
        _sans_timing(p) == reference for p in payloads.values()
    )

    def ratio(numerator: float, denominator: float) -> float:
        return round(numerator / max(denominator, 1e-9), 3)

    record = write_record(
        args.out,
        "service",
        {
            "geometry": list(geometry),
            "algorithms": len(tests),
            "faults": len(faults),
            "runs": direct.checked,
            "workers": args.workers,
            "reports_identical_sans_timing": identical,
            "measurements": {
                "direct_s": round(t_direct.seconds, 6),
                "engine_s": round(t_engine.seconds, 6),
                "engine_overhead_x": ratio(
                    t_engine.seconds, t_direct.seconds
                ),
                "store_cold_s": round(t_cold.seconds, 6),
                "store_warm_s": round(t_warm.seconds, 6),
                "warm_hit_rate": round(hit_rate, 4),
                "warm_speedup_x": ratio(t_cold.seconds, t_warm.seconds),
            },
        },
        sections=sections,
    )

    m = record["measurements"]
    print(
        f"service bench {geometry}: {record['runs']} runs, "
        f"identical={identical}"
    )
    print(
        f"  direct {m['direct_s']}s | engine {m['engine_s']}s "
        f"({m['engine_overhead_x']}x)"
    )
    print(
        f"  store cold {m['store_cold_s']}s -> warm {m['store_warm_s']}s "
        f"(hit rate {m['warm_hit_rate']}, {m['warm_speedup_x']}x)"
    )
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
