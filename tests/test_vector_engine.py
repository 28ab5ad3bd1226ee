"""The numpy batch sweep engine against the scalar oracle.

Three layers of evidence that ``engine="vector"`` is a pure
performance change:

* **event level** — :func:`repro.vector.sweep.vector_capture` must
  reproduce :func:`capture_response`'s fail events field-for-field for
  every spec-expressible fault kind, on geometries from the degenerate
  (1,1,1) up to multi-bit multi-port;
* **report level** — ``run_fault_sweep`` payloads (timing aside) must
  be identical across engines and across ``jobs``;
* **fallback level** — everything without lane semantics (subclassed
  faults, restricted-port faults, patched capture tables, >64-bit
  words) must take the scalar path, be *counted*, and still match the
  scalar report byte for byte.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.conformance import (
    GOLDEN_CACHE,
    check_fault_conformance,
    run_fault_sweep,
    sweep_faults,
)
from repro.conformance.faulty import check as faulty_check
from repro.conformance.faulty.check import (
    CrossEngineResult,
    FaultSweepReport,
    check_cross_engine,
)
from repro.conformance.faulty.events import capture_response
from repro.conformance.trace import golden_trace
from repro.core.controller import ControllerCapabilities
from repro.faults.port import PortRestrictedFault, PortStuckOpenAccess
from repro.faults.spec import parse_fault
from repro.faults.stuck_at import StuckAtFault
from repro.march import library
from repro.memory.sram import Sram
from repro.vector.errors import UnsupportedFault
from repro.vector.sweep import vector_capture

MARCH_C = library.get("March C")
MARCH_CPP = library.get("March C++")


def _caps(words, width=1, ports=1):
    return ControllerCapabilities(n_words=words, width=width, ports=ports)


def _scalar_capture(stream, caps, fault):
    memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
    memory.attach(fault)
    fault.reset()
    return capture_response(stream, memory)


def _events(capture):
    return [event.to_dict() for event in capture.events]


class TestEventLevelEquivalence:
    @pytest.mark.parametrize(
        "geometry", [(1, 1, 1), (4, 2, 1), (8, 1, 1), (4, 2, 2)]
    )
    def test_full_universe_captures_match(self, geometry):
        """Every spec-expressible fault kind, event-for-event.

        ``sweep_faults(full=True)`` enumerates every stratum the
        engine claims lane semantics for (including the PAF stratum on
        the multi-port geometry and nothing but SAF/TF/retention on
        the degenerate single-cell one), so agreement here covers each
        lane-entry class in ``repro.vector.semantics``.
        """
        caps = _caps(*geometry)
        stream = golden_trace(MARCH_CPP, caps)
        for fault in sweep_faults(caps, full=True):
            try:
                vector = vector_capture(stream, caps, fault)
            except UnsupportedFault:
                continue
            scalar = _scalar_capture(stream, caps, fault)
            assert vector.ops_applied == scalar.ops_applied
            assert _events(vector) == _events(scalar), fault.describe()

    def test_multiport_paf_detected_only_via_faulty_port(self):
        caps = _caps(4, 2, 2)
        stream = golden_trace(MARCH_C, caps)
        fault = PortStuckOpenAccess(port=1, word=2, bit=1)
        vector = vector_capture(stream, caps, fault)
        scalar = _scalar_capture(stream, caps, fault)
        assert _events(vector) == _events(scalar)
        assert vector.detected
        assert {event.port for event in vector.events} == {1}

    def test_budget_trip_matches_scalar_classification(self):
        caps = _caps(4, 2, 1)
        stream = golden_trace(MARCH_C, caps)
        fault = StuckAtFault(0, 0, 1)
        from repro.conformance.faulty.events import ResponseBudgetExceeded

        with pytest.raises(ResponseBudgetExceeded) as vector_error:
            vector_capture(stream, caps, fault, max_ops=3)
        with pytest.raises(ResponseBudgetExceeded) as scalar_error:
            _scalar_capture_budget(stream, caps, fault, max_ops=3)
        assert str(vector_error.value) == str(scalar_error.value)


def _scalar_capture_budget(stream, caps, fault, max_ops):
    memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
    memory.attach(fault)
    fault.reset()
    return capture_response(stream, memory, max_ops=max_ops)


class _SubclassedStuckAt(StuckAtFault):
    """Same behaviour, unknown type: must take the scalar fallback
    (the ``type(self) is not StuckAtFault`` guard in ``vector_lane``
    protects against subclasses that override hooks)."""


class _RemoveRaisesStuckAt(StuckAtFault):
    def remove(self, memory) -> None:
        raise RuntimeError("deliberately broken remove()")


class TestReportLevelEquivalence:
    TESTS = [library.get(name) for name in ("MATS", "March C", "March Y")]

    def _payloads_equal(self, a, b):
        return a.to_json(include_timing=False) == b.to_json(
            include_timing=False
        )

    def test_cross_engine_identity_stratified(self):
        caps = _caps(4, 2, 1)
        faults = sweep_faults(caps, per_kind=1, seed=3)
        result = check_cross_engine(self.TESTS, caps, faults)
        assert result.ok
        assert result.divergence() is None
        assert "IDENTICAL" in result.format()
        assert result.vector.engine == "vector"
        assert result.vector.checked == result.scalar.checked > 0

    def test_single_cell_geometry_sweep(self):
        caps = _caps(1, 1, 1)
        faults = sweep_faults(caps, full=True)
        result = check_cross_engine(self.TESTS, caps, faults)
        assert result.ok
        assert result.scalar.checked == len(self.TESTS) * len(faults)

    def test_vector_jobs_independence(self):
        caps = _caps(4, 2, 1)
        faults = sweep_faults(caps, per_kind=1, seed=5)
        serial = run_fault_sweep(
            self.TESTS, caps, faults, engine="vector", jobs=1
        )
        sharded = run_fault_sweep(
            self.TESTS, caps, faults, engine="vector", jobs=3
        )
        assert self._payloads_equal(serial, sharded)
        assert sharded.jobs == 3

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_fault_sweep(
                self.TESTS, _caps(4), [StuckAtFault(0, 0, 1)],
                engine="warp",
            )

    def test_cross_engine_divergence_formatting(self):
        """A synthetic disagreement names the first differing field."""
        scalar = FaultSweepReport(geometry=(4, 2, 1), checked=3, detected=2)
        vector = FaultSweepReport(
            geometry=(4, 2, 1), checked=3, detected=1, engine="vector"
        )
        result = CrossEngineResult(scalar=scalar, vector=vector)
        assert not result.ok
        assert "detected" in result.divergence()
        assert "DIVERGED" in result.format()
        assert result.to_json()["ok"] is False


class TestFallbacks:
    def test_subclassed_fault_falls_back_and_matches(self):
        caps = _caps(4, 2, 1)
        faults = [_SubclassedStuckAt(1, 0, 1), StuckAtFault(2, 1, 0)]
        tests = [MARCH_C]
        vector = run_fault_sweep(tests, caps, faults, engine="vector")
        scalar = run_fault_sweep(tests, caps, faults, engine="scalar")
        assert vector.fallback_runs == 1
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )

    def test_fallback_only_batch_counts_every_run(self):
        """PortRestrictedFault has no lane semantics at all."""
        caps = _caps(4, 1, 2)
        faults = [
            PortRestrictedFault(port=1, fault=StuckAtFault(0, 0, 1)),
            PortRestrictedFault(port=0, fault=StuckAtFault(2, 0, 0)),
        ]
        vector = run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        scalar = run_fault_sweep([MARCH_C], caps, faults, engine="scalar")
        assert vector.fallback_runs == vector.checked == len(faults)
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )
        assert "2 scalar fallback(s)" in vector.format()

    def test_remove_raising_mid_batch_propagates_like_scalar(self):
        """A fallback fault whose ``remove()`` raises surfaces the same
        error from both engines, after the batch's earlier faults ran."""
        caps = _caps(4, 2, 1)
        faults = [StuckAtFault(0, 0, 1), _RemoveRaisesStuckAt(1, 1, 0)]
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_fault_sweep([MARCH_C], caps, faults, engine="scalar")
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_fault_sweep([MARCH_C], caps, faults, engine="vector")

    def test_patched_capture_table_disables_fast_path(self, monkeypatch):
        """The seeded-defect harness swaps RESPONSE_CAPTURES entries;
        the vector fast path's capture-identity precondition is gone,
        so the whole sweep must take the scalar road (and therefore
        still *see* the patched capture)."""
        calls = []

        def counting_capture(stream, memory, max_ops=None):
            calls.append(1)
            return capture_response(stream, memory, max_ops=max_ops)

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "microcode", counting_capture
        )
        caps = _caps(4, 1, 1)
        faults = [StuckAtFault(0, 0, 1), StuckAtFault(3, 0, 0)]
        report = run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        assert report.fallback_runs == report.checked == 2
        assert calls  # the patched capture actually ran

    def test_wide_word_geometry_falls_back(self):
        """Word widths beyond the kernel's 64-bit lanes go scalar."""
        caps = _caps(2, 128, 1)
        faults = [StuckAtFault(0, 100, 1)]
        vector = run_fault_sweep([library.get("MATS")], caps, faults,
                                 engine="vector")
        scalar = run_fault_sweep([library.get("MATS")], caps, faults,
                                 engine="scalar")
        assert vector.fallback_runs == 1
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )


class TestSramBitImage:
    def test_bit_image_matches_snapshot(self):
        memory = Sram(3, width=4)
        memory.poke(0, 0b1010)
        memory.poke(2, 0b0110)
        image = memory.bit_image()
        assert image[0] == (0, 1, 0, 1)  # LSB first
        assert image[1] == (0, 0, 0, 0)
        assert image[2] == (0, 1, 1, 0)
        assert len(image) == 3 and all(len(row) == 4 for row in image)


class TestFuzzVectorIdentity:
    def test_sample_reports_vector_checked(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(11, 0, skip="df")
        assert result.vector_checked
        assert result.ok, result.mismatches

    def test_vector_identity_can_be_disabled(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(11, 0, skip="dfg")
        assert not result.vector_checked
