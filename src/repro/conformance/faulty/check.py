"""Differential fault-response conformance of the three architectures.

:func:`repro.conformance.check_conformance` proves the architectures
emit identical *stimulus* on fault-free memories; this module proves
they give identical *verdicts* on broken ones — the property the paper
actually sells (detection, fail logging, diagnosis
across fabrication stages).

:func:`check_fault_conformance` captures a golden response to one
injected fault and hands it to a single comparator together with the
regime's *partners* — ``(name, build_stream, capture, session_noun)``
tuples, each run on a fresh
:meth:`~repro.faults.injector.FaultInjector.injected` memory so dynamic
fault state and cell contents never leak between runs:

* sequential march tests — the selected controller architectures
  (:data:`~repro.conformance.check.STREAM_BUILDERS` streams captured by
  :data:`RESPONSE_CAPTURES`).  No stream depends on the fault, so
  :func:`_partner_stream` memoises them per test, keyed on the builder
  object the entry holds (a patched entry is a new key);
* concurrent and in-field modes — ``replay``, an independent
  re-capture of the golden stream;
* PRT sessions — ``prt-controller`` (the cycle-stepped FSM) and
  ``replay``.

Responses are compared on three layers, most precise first:

1. **fail events** — the normalised event streams of
   :mod:`repro.conformance.faulty.events`, key-for-key, with a
   provenance-attributed first divergence;
2. **fail-log aggregations** — the
   :class:`~repro.diagnostics.faillog.FailLog` views downstream repair
   consumes (failing addresses / failing cells, in first-failure
   order);
3. **diagnosis** — the :func:`repro.diagnostics.classifier.classify`
   verdict per failing cell (sequential march tests only: the
   classifier's op-index model is the march golden stream).

Statuses mirror the stimulus checker and add robustness
classification: ``skipped`` (progfsm outside SM0–SM7, or no transparent
variant for an in-field session), ``error`` (a controller that hangs,
crashes, or overruns the per-run op budget on a decoder-fault memory is
a harness *error*, not a response mismatch) and ``diverged`` with the
offending layer named.  :func:`run_fault_sweep` and the vector engine's
``run_vector_fault_sweep`` share one serial-or-sharded helper: a
single inline shard, or work items handed to the service layer's one
shard runner (:func:`repro.service.engine.run_shards`), which the fuzz
corpus uses too.  A sweep given a result store always reads it back,
so rerunning an interrupted sweep resumes it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.conformance.check import (
    ARCHITECTURES,
    CONCURRENT_CACHE,
    GOLDEN_CACHE,
    STREAM_BUILDERS,
)
from repro.conformance.trace import stimulus_notation
from repro.conformance.faulty.events import (
    FailEvent,
    ResponseBudgetExceeded,
    ResponseCapture,
    capture_cycle_response,
    capture_response,
    format_fail,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.faults.injector import FaultInjector
from repro.faults.spec import format_fault
from repro.march.test import MarchTest
from repro.memory.sram import Sram

#: Default per-run op budget, as a multiple of the golden stream length
#: (every conformant run applies exactly the golden length; the slack
#: only exists so a defective response path is *observed* diverging
#: instead of tripping the budget on the first extra op).
DEFAULT_BUDGET_FACTOR = 4

#: Response-capture path per architecture.  All three default to the
#: shared :func:`capture_response`, but the indirection is the honest
#: model: in silicon each architecture owns its comparator and fail
#: registers, and a defect there (wrong expected polarity, an off-by-one
#: in the latched op index) is architecture-local.  The seeded-defect
#: tests plant exactly such defects here.
RESPONSE_CAPTURES = {architecture: capture_response
                     for architecture in ARCHITECTURES}

#: The comparison layers, most precise first.
LAYERS: Tuple[str, ...] = ("events", "faillog", "diagnosis")

#: Stimulus regimes the fault-response harness can drive.
#:
#: * ``sequential`` — the classic one-port-at-a-time golden expansion,
#:   differentially compared across the three controller architectures.
#: * ``concurrent`` — the same-cycle dual-port cycle stream of
#:   :func:`repro.march.concurrent.expand_concurrent`.  None of the
#:   paper's controllers realises it (their port loops are sequential by
#:   construction), so the only partner is a ``replay``: a second
#:   independent capture on a freshly injected memory, proving the
#:   response is a deterministic function of (stimulus, fault).
#: * ``infield`` — the deterministic in-field transparent session of
#:   :mod:`repro.conformance.infield`, with the given algorithm's
#:   transparent variant as the test slot; its partner is a replay too.
MODES: Tuple[str, ...] = ("sequential", "concurrent", "infield")


@dataclass(frozen=True)
class ResponseDivergence:
    """First fail-event disagreement between golden and a candidate.

    ``kind`` is ``mismatch`` (both logged an event, different keys),
    ``missing`` (the candidate logged fewer events) or ``extra`` (the
    candidate logged events the golden response does not have).
    """

    architecture: str
    index: int
    reference: Optional[FailEvent]
    candidate: Optional[FailEvent]

    @property
    def kind(self) -> str:
        if self.candidate is None:
            return "missing"
        if self.reference is None:
            return "extra"
        return "mismatch"

    def describe(self) -> str:
        return "\n".join([
            f"{self.architecture} fail log diverges from the golden "
            f"response at event {self.index} ({self.kind}):",
            f"  expected {format_fail(self.reference)}",
            f"  got      {format_fail(self.candidate)}",
        ])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "index": self.index,
            "kind": self.kind,
            "expected": (
                self.reference.to_dict() if self.reference else None
            ),
            "got": self.candidate.to_dict() if self.candidate else None,
        }


def first_fail_divergence(
    reference: Sequence[FailEvent],
    candidate: Sequence[FailEvent],
    architecture: str,
) -> Optional[ResponseDivergence]:
    """Compare two fail-event streams key-for-key."""
    for index in range(max(len(reference), len(candidate))):
        ref = reference[index] if index < len(reference) else None
        cand = candidate[index] if index < len(candidate) else None
        ref_key = ref.key if ref is not None else None
        cand_key = cand.key if cand is not None else None
        if ref_key != cand_key:
            return ResponseDivergence(
                architecture=architecture,
                index=index,
                reference=ref,
                candidate=cand,
            )
    return None


@dataclass
class ArchitectureResponse:
    """One architecture's fault-response verdict.

    Attributes:
        architecture: architecture name.
        status: ``ok`` | ``diverged`` | ``skipped`` | ``error``.
        ops_applied: operations the BIST session executed.
        event_count: fail events the session logged.
        failing_cells: distinct failing (address, bit) cells, in
            first-failure order (the fail-log aggregation layer).
        diagnosis: classifier verdict per failing cell, as
            ``"(addr,bit): label"`` strings (the diagnosis layer).
        layer: the first comparison layer that disagreed (diverged
            status only).
        divergence: the attributed first event disagreement, when the
            events layer is the one that diverged.
        mismatch: human-readable disagreement of a coarser layer, when
            the events agreed but an aggregation did not (defensive —
            reachable only through an architecture-local response-path
            defect downstream of event capture).
        detail: skip reason or error classification.
    """

    architecture: str
    status: str = "ok"
    ops_applied: int = 0
    event_count: int = 0
    failing_cells: List[Tuple[int, int]] = field(default_factory=list)
    diagnosis: List[str] = field(default_factory=list)
    layer: Optional[str] = None
    divergence: Optional[ResponseDivergence] = None
    mismatch: Optional[str] = None
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Skips do not fail the check (flexibility boundary)."""
        return self.status in ("ok", "skipped")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "status": self.status,
            "ops_applied": self.ops_applied,
            "event_count": self.event_count,
            "failing_cells": [list(cell) for cell in self.failing_cells],
            "diagnosis": self.diagnosis,
            "layer": self.layer,
            "divergence": (
                self.divergence.to_dict() if self.divergence else None
            ),
            "mismatch": self.mismatch,
            "detail": self.detail,
        }


@dataclass
class FaultResponseResult:
    """Outcome of one differential fault-response check."""

    notation: str
    geometry: Tuple[int, int, int]
    fault: str
    fault_spec: Optional[str]
    compress: bool
    golden_events: int = 0
    responses: List[ArchitectureResponse] = field(default_factory=list)
    mode: str = "sequential"

    @property
    def ok(self) -> bool:
        return all(response.ok for response in self.responses)

    @property
    def detected(self) -> bool:
        """Whether the golden reference response saw the fault at all."""
        return self.golden_events > 0

    @property
    def failures(self) -> List[ArchitectureResponse]:
        return [response for response in self.responses if not response.ok]

    def describe_failures(self) -> str:
        parts = []
        for response in self.failures:
            if response.status == "error":
                parts.append(f"{response.architecture}: {response.detail}")
            elif response.divergence is not None:
                parts.append(response.divergence.describe())
            else:
                parts.append(
                    f"{response.architecture}: {response.layer} layer "
                    f"disagrees ({response.mismatch})"
                )
        return "; ".join(parts)

    def format(self) -> str:
        regime = "" if self.mode == "sequential" else f" [{self.mode} mode]"
        lines = [
            f"fault-response conformance {self.geometry}{regime}: "
            f"{self.notation}",
            f"  fault: {self.fault}"
            + (f"  [{self.fault_spec}]" if self.fault_spec else ""),
            f"  golden response: {self.golden_events} fail event(s)"
            + ("" if self.detected else "  (fault not detected)"),
        ]
        for response in self.responses:
            name = f"  {response.architecture:<10}"
            if response.status == "skipped":
                lines.append(f"{name} skipped ({response.detail})")
            elif response.status == "error":
                lines.append(f"{name} ERROR: {response.detail}")
            elif response.status == "diverged":
                lines.append(f"{name} DIVERGES ({response.layer} layer)")
                body = (
                    response.divergence.describe()
                    if response.divergence
                    else response.mismatch or ""
                )
                lines.extend("    " + line for line in body.splitlines())
            else:
                lines.append(
                    f"{name} ok ({response.event_count} event(s), "
                    f"identical fail log and diagnosis)"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "notation": self.notation,
            "geometry": list(self.geometry),
            "fault": self.fault,
            "fault_spec": self.fault_spec,
            "compress": self.compress,
            "mode": self.mode,
            "golden_events": self.golden_events,
            "detected": self.detected,
            "ok": self.ok,
            "architectures": [r.to_dict() for r in self.responses],
        }


def _diagnose(
    capture: ResponseCapture,
    test: MarchTest,
    caps: ControllerCapabilities,
) -> List[str]:
    """Classifier verdicts of one capture, as comparable strings.

    A defective architecture can log op indices outside the golden
    stream; the classifier is downstream tooling and must not take the
    harness down, so its crash is folded into the comparable verdict.
    """
    from repro.diagnostics.classifier import classify

    try:
        diagnoses = classify(
            capture.log(test.name),
            test,
            caps.n_words,
            width=caps.width,
            ports=caps.ports,
        )
    except Exception as error:
        return [f"<classifier failed: {error}>"]
    return [
        f"({d.address},{d.bit}): {d.label}" for d in diagnoses
    ]


#: One differential partner of the golden response:
#: ``(name, build_stream, capture, session_noun)``.  ``build_stream()``
#: returns the partner's attributed stream, ``capture`` records its
#: response on a freshly injected memory, and ``session_noun`` names the
#: session in error details (``wedged BIST session`` for a controller
#: realisation, ``wedged replay session`` for a replayed golden stream).
Partner = Tuple[
    str, Callable[[], Sequence[Any]], Callable[..., ResponseCapture], str
]


@functools.lru_cache(maxsize=len(ARCHITECTURES))
def _partner_stream(
    builder: Callable[..., Sequence[Any]],
    test: MarchTest,
    caps: ControllerCapabilities,
    compress: bool,
) -> Tuple[Any, ...]:
    """One architecture's attributed stream, memoised across faults.

    No controller stream depends on the injected fault, yet a sweep
    checks every (algorithm, fault) pair; this memo builds each
    architecture's stream once per test instead of once per fault.

    The key is the *builder object* that ``STREAM_BUILDERS[arch]``
    holds at call time, plus ``(test, caps, compress)``: a builder
    patched into ``STREAM_BUILDERS`` (a seeded defect, a tracer) is a
    new key, never served a stale stream.  A patch *below* that entry
    (a controller class, ``FsmInstruction.base_data``) does not change
    the key, so whoever plants one must call
    ``_partner_stream.cache_clear()`` before and after.  Exceptions are
    not cached: a ``CompileError`` or a hang is raised on every call.
    One test's worth of streams (one per architecture) is enough,
    because sweeps visit pairs algorithm-major and a fuzz sample keeps
    one test.  The tuple is shared between callers; nobody mutates it.
    """
    return tuple(builder(test, caps, compress))


def _compare_responses(
    result: FaultResponseResult,
    test: Any,
    caps: ControllerCapabilities,
    fault: CellFault,
    golden_stream: Sequence[Any],
    capture: Callable[..., ResponseCapture],
    partners: Sequence[Partner],
    max_ops: Optional[int],
    march: bool,
) -> FaultResponseResult:
    """Compare every partner's response with the golden one, in order.

    The one stimulus→response comparator behind
    :func:`check_fault_conformance`.  Each partner's stream is built,
    captured against ``fault`` on a freshly injected memory and compared
    layer by layer (events, then fail log, then diagnosis); the first
    layer that disagrees names the divergence.  ``march`` marks the
    controller architectures of a sequential march test: only there does
    a ``RuntimeError`` from a stream builder mean a non-terminating
    simulation, and only there is the diagnosis layer compared (the
    classifier's op-index model is the march golden stream).
    """
    from repro.core.progfsm.compiler import CompileError

    budget = (
        max_ops
        if max_ops is not None
        else DEFAULT_BUDGET_FACTOR * max(len(golden_stream), 1)
    )
    injector = FaultInjector(
        Sram(caps.n_words, width=caps.width, ports=caps.ports)
    )
    with injector.injected(fault) as memory:
        golden = capture(golden_stream, memory, max_ops=budget)
    result.golden_events = len(golden.events)
    golden_cells = golden.log(test.name).failing_cells()
    golden_diagnosis = _diagnose(golden, test, caps) if march else []

    for name, build_stream, partner_capture, noun in partners:
        response = ArchitectureResponse(architecture=name)
        result.responses.append(response)
        try:
            stream = build_stream()
        except CompileError as error:
            response.status = "skipped"
            response.detail = f"outside the SM0-SM7 boundary: {error}"
            continue
        except Exception as error:
            response.status = "error"
            if march and isinstance(error, RuntimeError):
                response.detail = f"simulation did not terminate: {error}"
            else:
                response.detail = (
                    f"controller crashed: {type(error).__name__}: {error}"
                )
            continue
        try:
            with injector.injected(fault) as memory:
                observed = partner_capture(stream, memory, max_ops=budget)
        except ResponseBudgetExceeded as error:
            response.status = "error"
            response.detail = f"wedged {noun} session: {error}"
            continue
        except Exception as error:
            response.status = "error"
            response.detail = (
                f"{noun} session crashed: {type(error).__name__}: {error}"
            )
            continue
        response.ops_applied = observed.ops_applied
        response.event_count = len(observed.events)
        response.failing_cells = observed.log(test.name).failing_cells()
        if march:
            response.diagnosis = _diagnose(observed, test, caps)

        divergence = first_fail_divergence(
            golden.events, observed.events, name
        )
        if divergence is not None:
            response.status = "diverged"
            response.layer = "events"
            response.divergence = divergence
        elif response.failing_cells != golden_cells:
            response.status = "diverged"
            response.layer = "faillog"
            response.mismatch = (
                f"failing cells {response.failing_cells} != golden "
                f"{golden_cells}"
            )
        elif response.diagnosis != golden_diagnosis:
            response.status = "diverged"
            response.layer = "diagnosis"
            response.mismatch = (
                f"diagnosis {response.diagnosis} != golden "
                f"{golden_diagnosis}"
            )
    return result


def check_fault_conformance(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    fault: CellFault,
    architectures: Sequence[str] = ARCHITECTURES,
    compress: bool = True,
    max_ops: Optional[int] = None,
    mode: str = "sequential",
    infield_seed: int = 0,
) -> FaultResponseResult:
    """Differentially test the architectures' responses to ``fault``.

    Args:
        test: the march algorithm, or a
            :class:`repro.prt.session.PrtSession` — pseudo-ring
            sessions are compared against their FSM controller and a
            replay instead of the march architectures (sequential mode
            only).
        capabilities: memory geometry all controllers target.
        fault: the single fault injected for every run (state is reset
            between runs by the injector).
        architectures: subset of :data:`ARCHITECTURES` to compare
            (sequential march tests only; validated in every regime).
        compress: microcode REPEAT compression.
        max_ops: per-run op budget; defaults to
            :data:`DEFAULT_BUDGET_FACTOR` × the golden stream length.
        mode: stimulus regime (see :data:`MODES`).  The non-sequential
            regimes compare golden against an independent replay
            instead of the controller architectures.
        infield_seed: session seed for ``mode="infield"``.

    Returns:
        A :class:`FaultResponseResult`; ``.ok`` means every compared
        architecture produced the golden fail events, fail-log
        aggregations and diagnosis.
    """
    from repro.prt.session import PrtSession

    caps = capabilities
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {list(MODES)}")
    unknown = set(architectures) - set(ARCHITECTURES)
    if unknown:
        raise ValueError(
            f"unknown architecture(s) {sorted(unknown)}; "
            f"known: {list(ARCHITECTURES)}"
        )
    prt = isinstance(test, PrtSession)
    if prt and mode != "sequential":
        raise ValueError(
            f"PRT sessions are sequential stimuli; mode {mode!r} is "
            "not realisable"
        )
    result = FaultResponseResult(
        notation=stimulus_notation(test),
        geometry=(caps.n_words, caps.width, caps.ports),
        fault=fault.describe(),
        fault_spec=format_fault(fault),
        compress=compress,
        mode=mode,
    )
    capture = capture_response
    if prt:
        from repro.prt.controller import PrtController

        golden_stream = test.attributed_stream(caps)
        partners: List[Partner] = [
            ("prt-controller",
             lambda: PrtController(test.config, caps).attributed_stream(),
             capture, "BIST"),
            ("replay", lambda: test.attributed_stream(caps), capture, "BIST"),
        ]
    elif mode == "sequential":
        golden_stream = GOLDEN_CACHE.get(test, caps)
        partners = [
            (architecture,
             functools.partial(
                 _partner_stream, STREAM_BUILDERS[architecture], test,
                 caps, compress,
             ),
             RESPONSE_CAPTURES[architecture], "BIST")
            for architecture in ARCHITECTURES
            if architecture in architectures
        ]
    else:
        # No controller realises these regimes (the paper's port loops
        # are sequential), so the partner is a second capture of the
        # golden stream: any state leaking across the injector boundary
        # or any non-determinism in the stimulus surfaces as a replay
        # divergence.
        if mode == "concurrent":
            golden_stream = CONCURRENT_CACHE.get(test, caps)
            capture = capture_cycle_response
        else:
            from repro.conformance.infield import cached_infield_plan

            try:
                plan = cached_infield_plan(
                    caps, seed=infield_seed, tests=(test,)
                )
            except ValueError as error:
                result.responses.append(ArchitectureResponse(
                    architecture="replay",
                    status="skipped",
                    detail=f"no transparent variant: {error}",
                ))
                return result
            golden_stream = plan.stream
        partners = [("replay", lambda: golden_stream, capture, "replay")]
    return _compare_responses(
        result, test, caps, fault, golden_stream, capture, partners,
        max_ops, march=not prt and mode == "sequential",
    )


def _first_failure_summary(failure: Dict[str, Any]) -> str:
    """The first non-ok architecture of a failure dict, with its layer.

    Multi-geometry sweeps print many failure lines; naming the diverged
    architecture and comparison layer (or the error class) makes each
    line actionable without opening the JSON report.
    """
    if failure.get("kind") == "shard-lost":
        return f"service: {failure.get('error', 'shard lost')}"
    for response in failure.get("architectures", []):
        status = response.get("status")
        if status in ("ok", "skipped"):
            continue
        if status == "error":
            return f"{response['architecture']}: error"
        return f"{response['architecture']}: {response.get('layer')} layer"
    return "no failing architecture recorded"


@dataclass
class FaultSweepReport:
    """Aggregated outcome of a (algorithms × faults) sweep.

    Reports are *mergeable*: a sharded sweep produces one report per
    shard and reduces them with :meth:`merge`, and because shards are
    contiguous chunks of the (algorithm, fault) product in serial
    order, the merged report is byte-identical to a serial sweep's —
    timing aside.  All timing lives under the ``timing`` key of
    :meth:`to_json` (pass ``include_timing=False`` to drop it), so the
    jobs-independence contract is simply "payloads without ``timing``
    compare equal".

    ``interrupted`` marks a *partial* report: a sweep stopped by SIGINT
    after some shards completed.  Its payload carries
    ``"interrupted": true`` so downstream tooling never mistakes it for
    a verdict; re-running with the same :class:`ResultStore` completes
    the missing shards and yields the full report.  ``service_stats``
    (retries, crashes, quarantines, store hit rates) lives under
    ``timing`` — execution metadata, not verdict.
    """

    geometry: Tuple[int, int, int]
    checked: int = 0
    detected: int = 0
    skipped_runs: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    wall_time_s: float = 0.0
    jobs: int = 1
    shards: List[Dict[str, Any]] = field(default_factory=list)
    engine: str = "scalar"
    fallback_runs: int = 0
    mode: str = "sequential"
    interrupted: bool = False
    service_stats: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, result: FaultResponseResult) -> None:
        self.checked += 1
        if result.detected:
            self.detected += 1
        self.skipped_runs += sum(
            1 for r in result.responses if r.status == "skipped"
        )
        if not result.ok:
            self.failures.append(result.to_dict())

    @classmethod
    def merge(
        cls, reports: Sequence["FaultSweepReport"]
    ) -> "FaultSweepReport":
        """Reduce shard reports (in shard order) into one report.

        Counters sum and failures concatenate, so as long as ``reports``
        arrives in shard order the merged failure list preserves the
        serial sweep's ordering exactly.
        """
        if not reports:
            raise ValueError("cannot merge an empty report sequence")
        geometries = {report.geometry for report in reports}
        if len(geometries) > 1:
            raise ValueError(
                f"cannot merge sweeps of different geometries: "
                f"{sorted(geometries)}"
            )
        engines = {report.engine for report in reports}
        if len(engines) > 1:
            raise ValueError(
                f"cannot merge sweeps of different engines: {sorted(engines)}"
            )
        modes = {report.mode for report in reports}
        if len(modes) > 1:
            raise ValueError(
                f"cannot merge sweeps of different modes: {sorted(modes)}"
            )
        merged = cls(
            geometry=reports[0].geometry,
            engine=reports[0].engine,
            mode=reports[0].mode,
        )
        for report in reports:
            merged.checked += report.checked
            merged.detected += report.detected
            merged.skipped_runs += report.skipped_runs
            merged.failures.extend(report.failures)
            merged.shards.extend(report.shards)
            merged.fallback_runs += report.fallback_runs
        return merged

    def format(self) -> str:
        engine = ""
        if self.engine != "scalar":
            engine = (
                f"  [{self.engine} engine, "
                f"{self.fallback_runs} scalar fallback(s)]"
            )
        regime = "" if self.mode == "sequential" else f" [{self.mode} mode]"
        lines = [
            f"fault-response sweep {self.geometry}{regime}: {self.checked} "
            f"(algorithm, fault) runs, {self.detected} detected the "
            f"fault, {self.skipped_runs} skip(s), "
            f"{len(self.failures)} failure(s)" + engine
        ]
        for failure in self.failures:
            lines.append(
                f"  FAIL {tuple(failure['geometry'])} "
                f"{failure['notation']} under {failure['fault']}  "
                f"[{_first_failure_summary(failure)}]"
            )
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "geometry": list(self.geometry),
            "mode": self.mode,
            "checked": self.checked,
            "detected": self.detected,
            "skipped_runs": self.skipped_runs,
            "ok": self.ok,
            "failures": self.failures,
        }
        if self.interrupted:
            payload["interrupted"] = True
        if include_timing:
            # Engine identity and fallback accounting live with the
            # timing block on purpose: the cross-engine contract is
            # "payloads without ``timing`` compare equal", and which
            # engine produced the numbers (and how often it had to ask
            # the scalar oracle) is execution metadata, not verdict.
            payload["timing"] = {
                "wall_time_s": round(self.wall_time_s, 6),
                "jobs": self.jobs,
                "runs_per_s": (
                    round(self.checked / self.wall_time_s, 2)
                    if self.wall_time_s > 0
                    else None
                ),
                "shards": self.shards,
                "engine": self.engine,
                "fallback_runs": self.fallback_runs,
            }
            if self.service_stats is not None:
                payload["timing"]["service"] = self.service_stats
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "FaultSweepReport":
        """Rebuild a report from its :meth:`to_json` payload.

        The resume path round-trips shard reports through the
        :class:`~repro.service.store.ResultStore`; this inverse keeps
        them mergeable with freshly computed shards.
        """
        timing = payload.get("timing") or {}
        return cls(
            geometry=tuple(payload["geometry"]),
            checked=payload.get("checked", 0),
            detected=payload.get("detected", 0),
            skipped_runs=payload.get("skipped_runs", 0),
            failures=list(payload.get("failures", [])),
            wall_time_s=timing.get("wall_time_s", 0.0),
            jobs=timing.get("jobs", 1),
            shards=list(timing.get("shards", [])),
            engine=timing.get("engine", "scalar"),
            fallback_runs=timing.get("fallback_runs", 0),
            mode=payload.get("mode", "sequential"),
            interrupted=bool(payload.get("interrupted", False)),
        )


class SweepInterrupted(RuntimeError):
    """SIGINT stopped a sweep; ``report`` holds the completed shards.

    The partial report is a real, mergeable artifact: it is marked
    ``interrupted`` and — when the sweep ran with a
    :class:`~repro.service.store.ResultStore` — every completed shard
    is already checkpointed, so rerunning the same sweep with the same
    store finishes from where this one stopped.
    """

    def __init__(self, report: Any) -> None:
        self.report = report
        super().__init__("sweep interrupted; partial report preserved")


def _sweep_shard(
    args: Tuple[int, Sequence[MarchTest], ControllerCapabilities,
                Sequence[CellFault], int, int, bool, Optional[int], str]
) -> FaultSweepReport:
    """Worker entry point: check product pairs ``start..start+count-1``.

    The (algorithm, fault) product is flattened algorithm-major, the
    same order the serial loop visits, so contiguous shards keep the
    per-algorithm golden expansions hot in each worker's cache and the
    merged failure list matches the serial one.
    """
    (shard_index, tests, caps, faults, start, count, compress,
     max_ops, mode) = args
    started = time.perf_counter()
    report = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports), mode=mode
    )
    for index in range(start, start + count):
        test = tests[index // len(faults)]
        fault = faults[index % len(faults)]
        report.add(
            check_fault_conformance(
                test, caps, fault, compress=compress, max_ops=max_ops,
                mode=mode,
            )
        )
    report.shards = [{
        "shard": shard_index,
        "runs": count,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }]
    return report


#: Sweep engines: the scalar oracle and the numpy batch kernel.
ENGINES: Tuple[str, ...] = ("scalar", "vector")


def _fault_cache_key(fault: CellFault) -> str:
    """A stable string identity for ``fault`` in store keys.

    Spec-expressible faults use their canonical spec string; the rest
    (randomised couplings etc.) fall back to :meth:`describe`, which
    names every parameter and is deterministic for a fixed population.
    """
    spec = format_fault(fault)
    if spec is not None:
        return spec
    return f"describe:{fault.describe()}"


def _lost_shard_report(
    args: Tuple[Any, ...], shard_engine: str, incident: str
) -> FaultSweepReport:
    """A mergeable stand-in for a shard the service could not finish.

    ``args`` is the shard's work item.  A quarantined poison shard (or
    one that exhausted its retries on a non-inlineable failure) is
    *reported*, not silently dropped and not allowed to abort the
    sweep: the merged report carries a ``shard-lost`` failure naming
    the run range and the service incident, so it is visibly not-ok.
    """
    shard_index, _, caps, _, start, count, _, _, mode = args
    geometry = (caps.n_words, caps.width, caps.ports)
    report = FaultSweepReport(
        geometry=geometry, mode=mode, engine=shard_engine
    )
    report.failures.append({
        "kind": "shard-lost",
        "notation": f"<shard {shard_index}: {count} run(s) at {start}>",
        "geometry": list(geometry),
        "fault": "<service incident>",
        "fault_spec": None,
        "mode": mode,
        "ok": False,
        "error": incident,
        "architectures": [],
    })
    report.shards = [{
        "shard": shard_index,
        "runs": count,
        "wall_time_s": 0.0,
        "lost": True,
    }]
    return report


def run_fault_sweep(
    tests: Sequence[MarchTest],
    capabilities: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    engine: str = "scalar",
    mode: str = "sequential",
    service: Optional[Any] = None,
    store: Optional[Any] = None,
    shard_timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> FaultSweepReport:
    """Check every (algorithm, fault) pair; used by CI and the CLI.

    Args:
        tests: the march algorithms to sweep.
        capabilities: memory geometry all controllers target.
        faults: the fault population (every fault runs against every
            algorithm).
        compress: microcode REPEAT compression.
        max_ops: per-run op budget override.
        jobs: worker-process count; 1 runs inline (no pool).  The
            (algorithm, fault) product is sharded into contiguous
            chunks and the shard reports merged, so the report — timing
            aside — is independent of ``jobs``.
        engine: ``scalar`` (per-run :class:`~repro.memory.sram.Sram`
            simulation, the oracle) or ``vector`` (the numpy batch
            kernel of :mod:`repro.vector`; needs numpy, falls back to
            the scalar path per fault/test where lane semantics do not
            apply, and reports the fallback count).  The report payload
            (timing aside) is identical for both.
        mode: stimulus regime (see :data:`MODES`).  The vector kernel
            has no same-cycle lane semantics yet, so non-sequential
            modes under ``engine="vector"`` take the counted scalar
            fallback: the whole sweep runs on the scalar oracle and
            every run is accounted in ``fallback_runs``.
        service: a shared :class:`~repro.service.engine.JobEngine` to
            run shards on (the multi-geometry sweep passes one pool for
            all geometries); ``None`` spins a private engine when the
            configuration shards.
        store: a :class:`~repro.service.store.ResultStore`; shards
            already stored are cache hits, and freshly completed shards
            are checkpointed into it, so rerunning an interrupted sweep
            resumes it.
        shard_timeout: per-shard wall-clock budget (seconds, positive)
            enforced by the engine (ignored when a shared ``service``
            engine carries its own policy).
        chaos: a :class:`~repro.service.chaos.ChaosPlan` misbehaving on
            schedule — test-only.

    Raises:
        ValueError: an unknown ``engine`` or ``mode``, ``jobs`` below
            one, or a non-positive ``shard_timeout``.
        SweepInterrupted: SIGINT during a sharded run; carries the
            partial report (see the class docstring).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {list(ENGINES)}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {list(MODES)}")
    if engine == "vector" and mode == "sequential":
        from repro.vector import require_numpy

        require_numpy()
        from repro.vector.sweep import run_vector_fault_sweep

        return run_vector_fault_sweep(
            tests, capabilities, faults, compress=compress,
            max_ops=max_ops, jobs=jobs, service=service, store=store,
            shard_timeout=shard_timeout, chaos=chaos,
        )
    return _run_sweep(
        _sweep_shard, "product", 4, tests, capabilities, faults,
        compress=compress, max_ops=max_ops, jobs=jobs, mode=mode,
        engine=engine, service=service, store=store,
        shard_timeout=shard_timeout, chaos=chaos,
    )


def _run_sweep(
    shard_fn: Callable[[Any], FaultSweepReport],
    axis: str,
    shards_per_worker: int,
    tests: Sequence[MarchTest],
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool,
    max_ops: Optional[int],
    jobs: int,
    mode: str,
    engine: str,
    service: Optional[Any],
    store: Optional[Any],
    shard_timeout: Optional[float],
    chaos: Optional[Any],
) -> FaultSweepReport:
    """The serial-or-sharded sweep helper shared by both engines.

    ``axis`` is what a shard is a contiguous chunk of: ``"product"``,
    the algorithm-major (algorithm, fault) product the scalar oracle
    (:func:`_sweep_shard`) walks, or ``"tests"``, whole tests — the
    vector kernel's per-test batches.  Either way a work item is
    ``(shard, tests, caps, faults, start, count, compress, max_ops,
    mode)`` and shard reports merge in serial order.  A single worker
    without service features runs one inline shard, without importing
    the service layer; anything else goes through the shard runner
    (:func:`repro.service.engine.run_shards`), with
    ``shards_per_worker`` shards per worker so a shard that drew the
    longest algorithms does not leave the others idle, and store keys
    that carry ``axis`` and ``engine`` so the engines never share cache
    entries.  An ``engine`` other than the shard function's own
    (``vector`` over product shards) is the counted whole-sweep
    fallback: every run lands in ``fallback_runs``.
    """
    if jobs <= 0:
        raise ValueError(f"need at least one job, got {jobs}")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ValueError(
            f"shard timeout must be positive, got {shard_timeout}"
        )
    tests = list(tests)
    faults = list(faults)
    geometry = (caps.n_words, caps.width, caps.ports)
    shard_engine = "scalar" if axis == "product" else "vector"
    units = len(tests) * len(faults) if axis == "product" else len(tests)
    started = time.perf_counter()

    def merge(reports: List[FaultSweepReport]) -> FaultSweepReport:
        if reports:
            return FaultSweepReport.merge(reports)
        return FaultSweepReport(
            geometry=geometry, mode=mode, engine=shard_engine
        )

    def finish(report: FaultSweepReport) -> FaultSweepReport:
        if engine != shard_engine:
            report.engine = engine
            report.fallback_runs = report.checked
        report.jobs = jobs
        report.wall_time_s = time.perf_counter() - started
        return report

    serviced = (
        service is not None or store is not None or chaos is not None
    )
    if not tests or not faults:
        return finish(merge([]))
    if min(jobs, units) == 1 and not serviced:
        return finish(shard_fn(
            (0, tests, caps, faults, 0, units, compress, max_ops, mode)
        ))
    from repro.service.engine import run_shards

    workers = min(jobs, units)
    shards = min(units, max(workers, 2) * shards_per_worker)
    chunk = (units + shards - 1) // shards
    work = [
        (shard, tests, caps, faults, start,
         min(chunk, units - start), compress, max_ops, mode)
        for shard, start in enumerate(range(0, units, chunk))
    ]
    keys = []
    if store is not None:
        from repro.service.store import payload_digest

        key_fields = {
            "kind": "fault-sweep-shard",
            "axis": axis,
            "tests": payload_digest([stimulus_notation(t) for t in tests]),
            "geometry": list(geometry),
            "faults": payload_digest([_fault_cache_key(f) for f in faults]),
            "compress": compress,
            "max_ops": max_ops,
            "mode": mode,
            "engine": engine,
        }
        keys = [
            store.key(
                **key_fields, shard={"start": args[4], "count": args[5]}
            )
            for args in work
        ]
    try:
        report = run_shards(
            work, shard_fn, merge,
            lambda i, incident: _lost_shard_report(
                work[i], shard_engine, incident
            ),
            jobs=workers, service=service, store=store, keys=keys,
            load=FaultSweepReport.from_json, shard_timeout=shard_timeout,
            chaos=chaos,
        )
    except SweepInterrupted as interrupt:
        finish(interrupt.report)
        raise
    return finish(report)


@dataclass
class CrossEngineResult:
    """Differential comparison of the two sweep engines on one input.

    The scalar engine is the oracle; conformance identity (g) in
    ``docs/TESTING.md`` is that the vector engine's report payload —
    everything except the ``timing`` block — is byte-identical to it.
    """

    scalar: FaultSweepReport
    vector: FaultSweepReport

    @property
    def ok(self) -> bool:
        return (
            self.scalar.to_json(include_timing=False)
            == self.vector.to_json(include_timing=False)
        )

    def divergence(self) -> Optional[str]:
        """First differing payload field, or ``None`` when identical."""
        scalar = self.scalar.to_json(include_timing=False)
        vector = self.vector.to_json(include_timing=False)
        for key in scalar:
            if scalar[key] != vector[key]:
                return (
                    f"payload field {key!r}: scalar {scalar[key]!r} != "
                    f"vector {vector[key]!r}"
                )
        return None

    def format(self) -> str:
        lines = [
            "cross-engine fault-sweep comparison "
            f"{self.scalar.geometry}: "
            + ("IDENTICAL" if self.ok else "DIVERGED"),
            "  scalar: " + self.scalar.format().splitlines()[0],
            "  vector: " + self.vector.format().splitlines()[0],
        ]
        if not self.ok:
            lines.append(f"  {self.divergence()}")
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "divergence": self.divergence(),
            "scalar": self.scalar.to_json(include_timing=include_timing),
            "vector": self.vector.to_json(include_timing=include_timing),
        }


def check_cross_engine(
    tests: Sequence[MarchTest],
    capabilities: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    mode: str = "sequential",
    store: Optional[Any] = None,
    shard_timeout: Optional[float] = None,
) -> CrossEngineResult:
    """Run one sweep through both engines and compare the payloads.

    For non-sequential modes the vector sweep is the counted scalar
    fallback, so the comparison degenerates to a replay determinism
    check — still a meaningful payload-equality assertion.  ``store``
    and ``shard_timeout`` pass straight through to both sweeps (the
    store keys the two engines separately, so they never share — or
    poison — each other's cache entries).
    """
    scalar = run_fault_sweep(
        tests, capabilities, faults, compress=compress,
        max_ops=max_ops, jobs=jobs, engine="scalar", mode=mode,
        store=store, shard_timeout=shard_timeout,
    )
    vector = run_fault_sweep(
        tests, capabilities, faults, compress=compress,
        max_ops=max_ops, jobs=jobs, engine="vector", mode=mode,
        store=store, shard_timeout=shard_timeout,
    )
    return CrossEngineResult(scalar=scalar, vector=vector)


Geometry = Union[Tuple[int, ...], ControllerCapabilities]


def _as_capabilities(geometry: Geometry) -> ControllerCapabilities:
    """Coerce a ``(words, width[, ports])`` tuple to capabilities."""
    if isinstance(geometry, ControllerCapabilities):
        return geometry
    parts = tuple(int(part) for part in geometry)
    if len(parts) == 2:
        parts = parts + (1,)
    if len(parts) != 3:
        raise ValueError(
            f"geometry must be (words, width) or (words, width, ports), "
            f"got {geometry!r}"
        )
    n_words, width, ports = parts
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


@dataclass
class MultiGeometrySweepReport:
    """Per-geometry sections of one multi-geometry fault sweep."""

    sweeps: List[FaultSweepReport] = field(default_factory=list)
    wall_time_s: float = 0.0
    jobs: int = 1
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return all(sweep.ok for sweep in self.sweeps)

    @property
    def checked(self) -> int:
        return sum(sweep.checked for sweep in self.sweeps)

    @property
    def failure_count(self) -> int:
        return sum(len(sweep.failures) for sweep in self.sweeps)

    def format(self) -> str:
        lines = [
            f"multi-geometry fault-response sweep: "
            f"{len(self.sweeps)} geometrie(s), {self.checked} runs, "
            f"{self.failure_count} failure(s)"
        ]
        for sweep in self.sweeps:
            lines.extend("  " + line for line in sweep.format().splitlines())
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "geometries": [
                sweep.to_json(include_timing=include_timing)
                for sweep in self.sweeps
            ],
            "checked": self.checked,
            "failure_count": self.failure_count,
            "ok": self.ok,
        }
        if self.interrupted:
            payload["interrupted"] = True
        if include_timing:
            payload["timing"] = {
                "wall_time_s": round(self.wall_time_s, 6),
                "jobs": self.jobs,
            }
        return payload


def run_fault_sweeps(
    geometries: Sequence[Geometry],
    tests: Sequence[MarchTest],
    faults: Optional[Sequence[CellFault]] = None,
    per_kind: int = 3,
    seed: int = 0,
    full: bool = False,
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    engine: str = "scalar",
    mode: str = "sequential",
    service: Optional[Any] = None,
    store: Optional[Any] = None,
    shard_timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> MultiGeometrySweepReport:
    """Sweep ``tests`` across several memory geometries.

    When ``faults`` is ``None`` each geometry draws its own population
    with :func:`~repro.conformance.faulty.sampling.sweep_faults` (the
    universe depends on the geometry — bigger memories have more cells
    to couple, multi-port ones gain the port-fault stratum, and
    concurrent-mode sweeps of multi-port geometries add the
    concurrency-sensitised stratum); an explicit ``faults`` sequence is
    reused verbatim for every geometry.  Geometries run in sequence,
    each internally sharded over ``jobs`` — on **one shared**
    :class:`~repro.service.engine.JobEngine` pool (no fresh pool per
    geometry).  SIGINT raises :class:`SweepInterrupted` carrying the
    partial multi-geometry report (completed geometries plus the
    interrupted one's completed shards).
    """
    from repro.conformance.faulty.sampling import sweep_faults

    if not geometries:
        raise ValueError("need at least one geometry to sweep")
    started = time.perf_counter()
    report = MultiGeometrySweepReport(jobs=jobs)
    shared = service
    owns_engine = service is None and jobs > 1
    if owns_engine:
        from repro.service.engine import JobEngine, RetryPolicy

        shared = JobEngine(
            workers=jobs, policy=RetryPolicy(timeout=shard_timeout)
        )
    try:
        for geometry in geometries:
            caps = _as_capabilities(geometry)
            population = (
                list(faults)
                if faults is not None
                else sweep_faults(
                    caps, per_kind=per_kind, seed=seed, full=full, mode=mode
                )
            )
            try:
                report.sweeps.append(
                    run_fault_sweep(
                        tests, caps, population, compress=compress,
                        max_ops=max_ops, jobs=jobs, engine=engine,
                        mode=mode, service=shared, store=store,
                        shard_timeout=shard_timeout, chaos=chaos,
                    )
                )
            except SweepInterrupted as interrupt:
                report.sweeps.append(interrupt.report)
                report.interrupted = True
                report.wall_time_s = time.perf_counter() - started
                raise SweepInterrupted(report) from None
    finally:
        if owns_engine and shared is not None:
            shared.close()
    report.wall_time_s = time.perf_counter() - started
    return report
