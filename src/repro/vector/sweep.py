"""Batch-kernel execution of fault-response conformance sweeps.

The scalar sweep (:func:`repro.conformance.faulty.check.run_fault_sweep`)
runs four full BIST sessions per (algorithm, fault) pair — golden plus
one per architecture.  This module reaches the same report with two
structural savings:

* **per test**: each architecture's attributed stream is built once and
  verified op-for-op equal to the golden expansion (the stimulus
  conformance property).  Response capture is a deterministic function
  of the normalised ops alone, so identical streams give identical
  captures for *every* fault — the three per-architecture sessions per
  fault disappear entirely;
* **per fault**: the remaining golden capture is evaluated by the lane
  kernel, hundreds of faults per replay of the stream.

Anything outside those preconditions falls back to the scalar path and
is counted in the report's ``fallback_runs``:

* per fault — no validated lane semantics
  (:func:`~repro.vector.semantics.lane_spec` returned ``None``);
* per test — an architecture's stream failed to build with a
  non-skip error, diverged from the golden expansion, the golden
  stream overran the op budget, or the kernel's fault-free reference
  lane tripped (:class:`~repro.vector.errors.VectorEngineError`);
* per sweep — a patched response-capture path (the seeded-defect
  harness replaces :data:`RESPONSE_CAPTURES` entries; capture identity
  is the precondition the per-test saving rests on) or a word width
  beyond the kernel's element size.

The fallback re-runs :func:`check_fault_conformance` itself, so its
results — including failure records and raised errors — are the scalar
engine's own, byte for byte.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.conformance.check import ARCHITECTURES, GOLDEN_CACHE, STREAM_BUILDERS
from repro.conformance.faulty import events as faulty_events
from repro.conformance.faulty.check import (
    DEFAULT_BUDGET_FACTOR,
    FaultSweepReport,
    _run_sweep,
    check_fault_conformance,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.march.test import MarchTest
from repro.vector.errors import VectorEngineError
from repro.vector.kernel import MAX_WIDTH, evaluate_lanes, state_dtype
from repro.vector.ops import CompiledStream, compile_stream
from repro.vector.semantics import lane_spec

#: Per-batch state budget; lane counts are chunked so the state array
#: stays cache-friendly even for full universes on large geometries.
LANE_BUDGET_BYTES = 32 << 20


def _captures_patched() -> bool:
    """Whether any architecture's response-capture path was replaced.

    The seeded-defect tests plant architecture-local capture defects by
    swapping :data:`RESPONSE_CAPTURES` entries; the vector fast path
    assumes all captures are the shared :func:`capture_response`, so a
    patched table disables it for the whole sweep.
    """
    from repro.conformance.faulty import check as faulty_check

    return any(
        faulty_check.RESPONSE_CAPTURES.get(architecture)
        is not faulty_events.capture_response
        for architecture in ARCHITECTURES
    )


def _plan_test(
    test: MarchTest,
    caps: ControllerCapabilities,
    compress: bool,
    max_ops: Optional[int],
) -> Optional[Tuple[CompiledStream, int]]:
    """Compile the golden stream and verify the architectures against it.

    Returns ``(compiled_golden, skipped_architectures)`` when every
    architecture either skips (``CompileError``) or emits a stream
    op-for-op equal to the golden expansion within the op budget;
    ``None`` sends the whole test to the scalar engine.
    """
    from repro.core.progfsm.compiler import CompileError

    golden_stream = GOLDEN_CACHE.get(test, caps)
    budget = (
        max_ops
        if max_ops is not None
        else DEFAULT_BUDGET_FACTOR * max(len(golden_stream), 1)
    )
    if len(golden_stream) > budget:
        return None  # scalar reproduces the budget trip exactly
    compiled = compile_stream(golden_stream, (1 << caps.width) - 1)
    skipped = 0
    for architecture in ARCHITECTURES:
        try:
            stream = STREAM_BUILDERS[architecture](test, caps, compress)
        except CompileError:
            skipped += 1
            continue
        except Exception:
            return None  # error statuses produce per-fault failure records
        if len(stream) != compiled.length:
            return None
        if [entry.key for entry in stream] != compiled.keys:
            return None
    return compiled, skipped


def _lane_chunk(caps: ControllerCapabilities) -> int:
    """Lanes per kernel batch within :data:`LANE_BUDGET_BYTES`."""
    row_bytes = caps.n_words * state_dtype(caps.width)().itemsize
    return max(16, LANE_BUDGET_BYTES // max(row_bytes, 1))


def _scalar_runs(
    report: FaultSweepReport,
    test: MarchTest,
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool,
    max_ops: Optional[int],
) -> None:
    for fault in faults:
        report.add(
            check_fault_conformance(
                test, caps, fault, compress=compress, max_ops=max_ops
            )
        )
        report.fallback_runs += 1


def _sweep_test_into(
    report: FaultSweepReport,
    test: MarchTest,
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool,
    max_ops: Optional[int],
    force_scalar: bool,
) -> None:
    """Sweep one test over the fault population, fault order preserved."""
    # Non-march stimuli (PRT sessions) have no compiled lane plan; they
    # take the counted scalar fallback like any other out-of-model run.
    plan = (
        None
        if force_scalar or not isinstance(test, MarchTest)
        else _plan_test(test, caps, compress, max_ops)
    )
    if plan is None:
        _scalar_runs(report, test, caps, faults, compress, max_ops)
        return
    compiled, skipped_architectures = plan
    specs = []
    spec_fault_indices = []
    for index, fault in enumerate(faults):
        spec = lane_spec(fault, caps.n_words, caps.width, caps.ports)
        if spec is not None:
            specs.append(spec)
            spec_fault_indices.append(index)
    detected: Optional[Dict[int, bool]] = {}
    chunk = _lane_chunk(caps)
    try:
        for start in range(0, len(specs), chunk):
            lane_events, _ = evaluate_lanes(
                compiled, caps.n_words, caps.width,
                specs[start:start + chunk],
            )
            for offset, events in enumerate(lane_events):
                detected[spec_fault_indices[start + offset]] = bool(events)
    except VectorEngineError:
        detected = None  # self-check tripped: nothing from this batch is safe
    if detected is None:
        _scalar_runs(report, test, caps, faults, compress, max_ops)
        return
    for index, fault in enumerate(faults):
        if index in detected:
            report.checked += 1
            if detected[index]:
                report.detected += 1
            report.skipped_runs += skipped_architectures
        else:
            report.add(
                check_fault_conformance(
                    test, caps, fault, compress=compress, max_ops=max_ops
                )
            )
            report.fallback_runs += 1


def _vector_shard(
    args: Tuple[int, Sequence[MarchTest], ControllerCapabilities,
                Sequence[CellFault], int, int, bool, Optional[int], str]
) -> FaultSweepReport:
    """Worker entry point: sweep tests ``start..start+count-1``.

    Vector batches are per-test, so shards are contiguous *test* chunks
    (unlike the scalar engine's product chunks); the product order
    inside each shard is still algorithm-major, so merged reports match
    the serial sweep byte for byte.  The vector engine runs sequential
    march stimuli only, so the trailing mode slot is always
    ``sequential``.
    """
    (shard_index, tests, caps, faults, start, count, compress,
     max_ops, _mode) = args
    started = time.perf_counter()
    report = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports), engine="vector"
    )
    force_scalar = _captures_patched() or caps.width > MAX_WIDTH
    for test in tests[start:start + count]:
        _sweep_test_into(
            report, test, caps, faults, compress, max_ops, force_scalar
        )
    report.shards = [{
        "shard": shard_index,
        "runs": count * len(faults),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }]
    return report


def run_vector_fault_sweep(
    tests: Sequence[MarchTest],
    capabilities: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    service: Optional[Any] = None,
    store: Optional[Any] = None,
    shard_timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> FaultSweepReport:
    """Vector-engine counterpart of ``run_fault_sweep`` (same report).

    Runs through the shared sharding helper of ``run_fault_sweep`` with
    contiguous *test* shards — each test is one batch evaluation, so
    splitting inside a test would only re-replay the stream.  The
    payload (timing aside) is independent of ``jobs`` and equal to the
    scalar engine's; the service knobs have ``run_fault_sweep``'s
    semantics, and store keys carry ``axis="tests"`` and
    ``engine="vector"``, so vector shards never collide with the scalar
    engine's product shards.

    Raises:
        SweepInterrupted: SIGINT during a sharded run; carries the
            partial report.
    """
    return _run_sweep(
        _vector_shard, "tests", 2, tests, capabilities, faults,
        compress=compress, max_ops=max_ops, jobs=jobs, mode="sequential",
        engine="vector", service=service, store=store,
        shard_timeout=shard_timeout, chaos=chaos,
    )

