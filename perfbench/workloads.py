"""The benchmark's four workloads: inputs from a seed, the command, and
the check of its output.

Each workload has three steps, timed separately by ``worker.py``:

* ``prepare(seed)`` — imports and input generation (``setup_s``);
* ``run(inputs)`` — the command a user would run (``wall_s``);
* ``check(inputs, output, seed, expected)`` — output verification
  against the pinned values ``expected``, outside the timed region,
  returning an :class:`Outcome`.

``scale_wall`` says whether the command's times are reported at the
reference host speed (``run.speed_factor``): true where the command is
pure Python, like the gauge that sets that speed.

The pinned values live in ``expected.json`` beside this file
(:func:`load_expected`); ``pin.py`` regenerates them.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """What a workload's output check found.

    ``attempted`` counts the workload's checked items (runs, samples
    or table rows); ``failed`` those that errored, diverged or
    mismatched, or all of them when a whole-output check (digest,
    findings) fails.  ``work`` is the count ``items_per_s`` divides by
    the wall time: the items themselves, except for fuzz, whose samples
    differ in size and whose work is their golden stimulus operations.
    ``digest`` is the timing-free payload digest the traced run must
    reproduce.
    """

    attempted: int
    failed: int
    work: int
    digest: str
    problems: List[str] = field(default_factory=list)
    fallback_runs: int = 0
    skipped_runs: int = 0
    provenance: Dict[str, Any] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    from repro.service.store import payload_digest

    return payload_digest(payload)


# -- tables -------------------------------------------------------------------


def _table_rows(tables) -> Dict[str, List[List[Any]]]:
    """Tables 1-3 rounded the way EXPERIMENTS.md prints them."""
    t1, t2, t3 = tables
    return {
        "table1": [
            [r.method, r.flexibility, round(r.gate_equivalents),
             round(r.area_um2)]
            for r in t1
        ],
        "table2": [
            [r.method, round(r.word_ge), round(r.multiport_ge)] for r in t2
        ],
        "table3": [
            [r.configuration, round(r.gate_equivalents), round(r.area_um2),
             round(r.reduction_percent, 1)]
            for r in t3
        ],
    }


def paper_findings(tables) -> List[str]:
    """The paper's findings R1-R5 (DESIGN.md section 1) that fail."""
    t1, t2, t3 = tables
    ge = {r.method: r.gate_equivalents for r in t1}
    grade = {r.method: r.flexibility for r in t1}
    hardwired = [r for r in t1 if r.method.startswith("March")]
    failed = []
    if not (
        grade["Microcode-Based"] == "HIGH"
        and grade["Prog. FSM-Based"] == "MEDIUM"
        and all(r.flexibility == "LOW" for r in hardwired)
    ):
        failed.append("R1: flexibility grades are not HIGH > MEDIUM > LOW")
    smallest = min(ge["Microcode-Based"], ge["Prog. FSM-Based"])
    if not (
        all(r.gate_equivalents < smallest for r in hardwired)
        and ge["March C"] < ge["March C+"] < ge["March C++"]
        and ge["March A"] < ge["March A+"] < ge["March A++"]
    ):
        failed.append(
            "R2: hardwired is not smallest or does not grow with enhancement"
        )
    word = {r.method: r.word_ge for r in t2}
    if not (
        ge["Microcode-Based"] - ge["March C++"]
        < ge["Microcode-Based"] - ge["March C"]
        and (word["March C"] - ge["March C"]) / ge["March C"]
        > (word["Microcode-Based"] - ge["Microcode-Based"])
        / ge["Microcode-Based"]
    ):
        failed.append("R3: the programmable/hardwired gap does not shrink")
    if not all(
        35.0 <= r.reduction_percent <= 65.0
        and r.gate_equivalents < r.baseline_ge
        for r in t3
    ):
        failed.append("R4: scan-only storage reduction outside 35-65 %")
    if not t3[0].gate_equivalents < ge["Prog. FSM-Based"]:
        failed.append("R5: adjusted microcode is not below the prog. FSM")
    return failed


class Tables:
    """``table1()``, ``table2()``, ``table3()`` at the paper's geometry."""

    name = "tables"
    item = "rows"
    work = "rows"
    scale_wall = True

    def prepare(self, seed: int) -> Dict[str, Any]:
        import repro.analysis.verifier  # noqa: F401  (imported lazily)
        from repro.eval import experiments

        return {"n_words": experiments.DEFAULT_GEOMETRY["n_words"]}

    def run(self, inputs: Dict[str, Any]):
        from repro.eval.experiments import table1, table2, table3

        n = inputs["n_words"]
        return table1(n_words=n), table2(n_words=n), table3(n_words=n)

    def check(self, inputs, output, seed: int, expected) -> Outcome:
        from repro.eval import experiments

        expected = expected["tables"]
        rows = _table_rows(output)
        attempted = sum(len(pinned) for pinned in expected.values())
        failed = 0
        problems = []
        for table, found in rows.items():
            pinned = expected[table]
            if len(found) != len(pinned):
                failed += abs(len(found) - len(pinned))
                problems.append(
                    f"{table}: {len(found)} rows, expected {len(pinned)}"
                )
            for got, want in zip(found, pinned):
                if got != want:
                    failed += 1
                    problems.append(f"{table}: row {got} != pinned {want}")
        findings = paper_findings(output)
        problems.extend(findings)
        if findings:
            failed = attempted
        n = inputs["n_words"]
        return Outcome(
            attempted=attempted,
            failed=min(failed, attempted),
            work=attempted,
            digest=_digest([[asdict(row) for row in t] for t in output]),
            problems=problems,
            provenance={
                "geometry": {
                    "table1": [n, 1, 1],
                    "table2": [[n, experiments.WORD_WIDTH, 1],
                               [n, 1, experiments.MULTIPORT_PORTS]],
                    "table3": "table1 and table2 geometries",
                },
                "algorithms": [row[0] for row in rows["table1"]],
                "rows": attempted,
            },
        )


# -- sweeps -------------------------------------------------------------------


class Sweep:
    """``run_fault_sweep`` of a fixed test list on one geometry."""

    item = "runs"
    work = "runs"

    def __init__(self, name: str, engine: str, algorithms: Tuple[str, ...],
                 geometry: Tuple[int, int, int], per_kind: Optional[int]):
        self.name = name
        self.engine = engine
        self.algorithms = algorithms
        self.geometry = geometry
        #: ``None`` sweeps the full spec-expressible universe.
        self.per_kind = per_kind
        #: The vector engine's time is mostly its numpy kernel, which
        #: slows less than the pure-Python host-speed gauge when the
        #: host slows, so its command time is reported unscaled.
        self.scale_wall = engine != "vector"

    def prepare(self, seed: int) -> Dict[str, Any]:
        from repro.conformance.faulty import sweep_faults
        from repro.core.controller import ControllerCapabilities
        from repro.march.library import ALGORITHMS

        # The architecture stream builders and the classifier import
        # lazily; a CLI process pays that before its first run too.
        import repro.core.hardwired.controller  # noqa: F401
        import repro.core.microcode.assembler  # noqa: F401
        import repro.core.progfsm.compiler  # noqa: F401
        import repro.diagnostics.classifier  # noqa: F401

        if self.engine == "vector":
            import repro.vector.sweep  # noqa: F401  (numpy)

        n_words, width, ports = self.geometry
        caps = ControllerCapabilities(n_words=n_words, width=width,
                                      ports=ports)
        if self.per_kind is None:
            faults = sweep_faults(caps, full=True)
        else:
            faults = sweep_faults(caps, per_kind=self.per_kind, seed=seed)
        tests = [ALGORITHMS[name] for name in self.algorithms]
        return {"caps": caps, "tests": tests, "faults": faults}

    def run(self, inputs: Dict[str, Any]):
        from repro.conformance.faulty import run_fault_sweep

        return run_fault_sweep(
            inputs["tests"], inputs["caps"], inputs["faults"],
            engine=self.engine,
        )

    def check(self, inputs, report, seed: int, expected) -> Outcome:
        payload = report.to_json(include_timing=False)
        digest = _digest(payload)
        runs = len(inputs["tests"]) * len(inputs["faults"])
        # Whole-output problems make every run's verdict untrustworthy.
        whole = []
        if report.checked != runs:
            whole.append(f"checked {report.checked} of {runs} runs")
        pinned = expected["sweeps"][self.name]
        key = "any" if self.per_kind is None else str(seed)
        if key in pinned and pinned[key] != digest:
            whole.append(f"payload digest {digest} != pinned {pinned[key]}")
        if self.engine == "scalar" and key not in pinned:
            whole.extend(_cross_engine(inputs, payload))
        problems = list(whole)
        if report.failures:
            problems.append(
                f"{len(report.failures)} run(s) errored or diverged"
            )
        return Outcome(
            attempted=runs,
            failed=runs if whole else len(report.failures),
            work=runs,
            digest=digest,
            problems=problems,
            fallback_runs=report.fallback_runs,
            skipped_runs=report.skipped_runs,
            provenance={
                "geometry": list(self.geometry),
                "algorithms": list(self.algorithms),
                "engine": self.engine,
                "faults": len(inputs["faults"]),
                "fault_sample": (
                    "full" if self.per_kind is None
                    else f"stratified per_kind={self.per_kind}"
                ),
                "runs": runs,
            },
        )


def _cross_engine(inputs: Dict[str, Any], payload: Dict[str, Any]) -> List[str]:
    """Unpinned seeds: the vector engine must reproduce the payload."""
    from repro.conformance.faulty import run_fault_sweep
    from repro.vector import HAVE_NUMPY

    if not HAVE_NUMPY:
        return []
    vector = run_fault_sweep(
        inputs["tests"], inputs["caps"], inputs["faults"], engine="vector"
    ).to_json(include_timing=False)
    if vector != payload:
        return ["scalar payload differs from the vector engine's"]
    return []


# -- fuzz ---------------------------------------------------------------------


def fuzz_corpus_size(seed: int, op_budget: int) -> Tuple[int, int]:
    """Samples of corpus ``seed`` whose golden streams reach ``op_budget``.

    Sample cost follows its golden stream length closely, so sizing the
    corpus by stream operations rather than by sample count keeps the
    work of one run nearly independent of the seed.  Returns
    ``(samples, golden_ops)``.
    """
    from repro.analysis.fuzz import random_geometry, random_march
    from repro.march.simulator import expand

    samples = ops = 0
    while ops < op_budget:
        # The first two draws of ``check_sample``'s per-sample RNG.
        rng = random.Random(f"{seed}:{samples}")
        test = random_march(rng)
        caps = random_geometry(rng)
        ops += sum(1 for _ in expand(test, caps.n_words, width=caps.width,
                                     ports=caps.ports))
        samples += 1
    return samples, ops


class Fuzz:
    """``run_fuzz(samples, seed, jobs=1)`` with identities (a)-(j)."""

    name = "fuzz"
    item = "samples"
    work = "golden ops"
    op_budget = 6000
    scale_wall = True

    def prepare(self, seed: int) -> Dict[str, Any]:
        # Every module the ten identities import lazily.
        import repro.analysis.fuzz  # noqa: F401
        import repro.analysis.interpreter  # noqa: F401
        import repro.analysis.progfsm_cfg  # noqa: F401
        import repro.analysis.verifier  # noqa: F401
        import repro.conformance  # noqa: F401
        import repro.conformance.faulty.coverage  # noqa: F401
        import repro.diagnostics.classifier  # noqa: F401
        import repro.prt  # noqa: F401
        import repro.service  # noqa: F401
        from repro.vector import HAVE_NUMPY

        if HAVE_NUMPY:
            import repro.vector.sweep  # noqa: F401

        samples, ops = fuzz_corpus_size(seed, self.op_budget)
        return {"seed": seed, "samples": samples, "golden_ops": ops}

    def run(self, inputs: Dict[str, Any]):
        from repro.analysis.fuzz import run_fuzz

        return run_fuzz(inputs["samples"], inputs["seed"], jobs=1)

    def check(self, inputs, report, seed: int, expected) -> Outcome:
        payload = report.to_json()
        digest = _digest(payload)
        samples = inputs["samples"]
        whole = []
        if report.checked != samples:
            whole.append(f"checked {report.checked} of {samples} samples")
        pinned = expected["fuzz"].get(str(seed))
        if pinned is not None and pinned != digest:
            whole.append(f"payload digest {digest} != pinned {pinned}")
        problems = list(whole)
        if report.mismatch_count:
            problems.append(f"{report.mismatch_count} sample(s) mismatched")
        return Outcome(
            attempted=samples,
            failed=samples if whole else min(report.mismatch_count, samples),
            work=inputs["golden_ops"],
            digest=digest,
            problems=problems,
            provenance={
                "geometry": "random, at most 9 words x 4 bits x 3 ports",
                "algorithms": "random march tests",
                "identities": "a-j",
                "samples": samples,
                "golden_ops": inputs["golden_ops"],
                "op_budget": self.op_budget,
                "jobs": 1,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Tables(),
        Sweep("scalar_sweep", "scalar", ("MATS+", "March C", "March Y"),
              (64, 1, 1), per_kind=3),
        Sweep("vector_sweep", "vector", ("March C",), (1024, 1, 1),
              per_kind=None),
        Fuzz(),
    )
}
