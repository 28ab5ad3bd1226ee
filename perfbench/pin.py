"""Regenerate ``expected.json``, the values the output checks compare to.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/pin.py

* ``tables`` — the Table 1-3 rows recorded in EXPERIMENTS.md, parsed
  from its markdown tables (the model has no recoverable paper
  absolutes, so the recorded reproduction is the reference).
* ``sweeps`` — timing-free payload digests: ``scalar_sweep`` for seed
  0, and ``vector_sweep`` (its inputs do not depend on the seed) only
  after the vector engine has matched the scalar engine on a stratified
  fault sample of the same geometry.
* ``fuzz`` — the report digest for seed 0.

Only re-pin when a change is meant to alter these outputs, and say so
in its description.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402

PINNED_SEED = 0


def _number(cell: str) -> Any:
    cell = cell.replace(" ", "").rstrip("%")
    return float(cell) if "." in cell else int(cell)


def experiments_tables(path: str) -> Dict[str, List[List[Any]]]:
    """Rows of the three ``## Table N`` sections of EXPERIMENTS.md."""
    tables: Dict[str, List[List[Any]]] = {}
    current = None
    with open(path) as handle:
        for line in handle:
            heading = re.match(r"## Table ([123]) ", line)
            if heading:
                current = f"table{heading.group(1)}"
                tables[current] = []
                continue
            if line.startswith("## "):
                current = None
            if current is None or not line.startswith("|"):
                continue
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not re.match(r"\d", cells[-1]):
                continue  # header or separator row
            if current == "table1":
                row = [cells[0], cells[1]] + [_number(c) for c in cells[2:]]
            else:
                row = [cells[0]] + [_number(c) for c in cells[1:]]
            tables[current].append(row)
    return tables


def digest_of(name: str, seed: int, expected: Dict[str, Any]) -> str:
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed)
    outcome = workload.check(inputs, workload.run(inputs), seed, expected)
    if outcome.failed:
        raise SystemExit(f"{name}: refusing to pin a failing output: "
                         f"{outcome.problems}")
    return outcome.digest


def vector_cross_check() -> None:
    """Vector vs scalar engine on a stratified sample of the vector
    workload's geometry and tests."""
    from repro.conformance.faulty import run_fault_sweep, sweep_faults

    workload = WORKLOADS["vector_sweep"]
    inputs = workload.prepare(PINNED_SEED)
    sample = sweep_faults(inputs["caps"], per_kind=4, seed=PINNED_SEED)
    payloads = [
        run_fault_sweep(inputs["tests"], inputs["caps"], sample,
                        engine=engine).to_json(include_timing=False)
        for engine in ("scalar", "vector")
    ]
    if payloads[0] != payloads[1]:
        raise SystemExit("vector engine differs from scalar on the "
                         "stratified sample; not pinning vector_sweep")
    print(f"vector_sweep: {len(sample)} stratified faults agree across "
          "engines")


def main() -> int:
    # The checks run against unpinned values held in memory, so no stale
    # digest can veto the new one; the file is written only once every
    # check has passed.
    expected: Dict[str, Any] = {
        "tables": experiments_tables(os.path.join(ROOT, "EXPERIMENTS.md")),
        "sweeps": {"scalar_sweep": {}, "vector_sweep": {}},
        "fuzz": {},
    }
    # The recorded rows must pass R1-R5.
    digest_of("tables", PINNED_SEED, expected)
    vector_cross_check()
    seed = str(PINNED_SEED)
    pins = {
        ("sweeps", "scalar_sweep", seed): digest_of(
            "scalar_sweep", PINNED_SEED, expected),
        ("sweeps", "vector_sweep", "any"): digest_of(
            "vector_sweep", PINNED_SEED, expected),
        ("fuzz", seed): digest_of("fuzz", PINNED_SEED, expected),
    }
    for path, digest in pins.items():
        node = expected
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = digest
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.relpath(EXPECTED_PATH, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
