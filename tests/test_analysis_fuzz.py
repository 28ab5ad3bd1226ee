"""Fuzz harness: generator well-formedness, determinism, zero mismatches.

A small corpus runs inside the suite (the 500-sample acceptance corpus
and the 10k nightly corpus run in CI); a hypothesis property re-checks
the core cycle-exactness identity with shrinking.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.fuzz import (
    FuzzReport,
    check_sample,
    march_test_strategy,
    random_geometry,
    random_march,
    run_fuzz,
)
from repro.march.element import MarchElement, Pause
from repro.march.test import MarchTest
from repro.vector import HAVE_NUMPY

#: ``run_fuzz(12, seed=0, jobs=1).to_json()``, pinned whole: identity
#: order, counter names and key order are the report's contract with
#: the perfbench digest and ``conformance record --from-report``.
PINNED_REPORT = {
    "samples": 12,
    "seed": 0,
    "checked": 12,
    "fsm_compiled": 4,
    "fsm_compiled_fraction": 0.3333,
    "fault_detected": 12,
    "vector_checked": 12 if HAVE_NUMPY else 0,
    "coverage_pairs": 332,
    "infield_checked": 12,
    "service_checked": 12,
    "prt_checked": 12,
    "mismatch_count": 0,
    "mismatches": [],
}

#: The first mismatch entry of the same corpus with the hardwired
#: architecture's fail log shifted by one op.
PINNED_DEFECT_ENTRY = {
    "index": 0,
    "sample_seed": "0:0",
    "notation": "^(r0,w0,r0); ^(r0,w1,w0,w1); Del(128); ~(w1)",
    "geometry": [9, 4, 1],
    "compress": True,
    "microcode_cycles": 223,
    "fsm_compiled": False,
    "fsm_cycles": None,
    "mismatches": [
        "fault-response divergence under drf:1:3:1: hardwired fail log "
        "diverges from the golden response at event 0 (mismatch):\n"
        "  expected op 73: p0 r@0 expected a observed f  "
        "<- item 0 ^(r0,w0,r0) op 0\n"
        "  got      op 74: p0 r@0 expected a observed f  "
        "<- hardwired state 1 (op r0)"
    ],
    "shrunk": None,
    "fault_spec": "drf:1:3:1",
    "fault_detected": True,
    "shrunk_faulty": {
        "notation": "^(r0)",
        "geometry": [1, 2, 1],
        "fault": "saf:0:0:0",
        "checks": 11,
        "reduced": True,
    },
    "vector_checked": HAVE_NUMPY,
    "coverage_pairs": 28,
    "shrunk_coverage": None,
    "infield_checked": True,
    "service_checked": True,
    "prt_checked": True,
}


class TestGenerator:
    def test_generates_well_formed_tests(self):
        rng = random.Random(0)
        for _ in range(50):
            test = random_march(rng)
            assert isinstance(test, MarchTest)
            assert any(
                isinstance(item, MarchElement) for item in test.items
            )
            durations = {
                item.duration for item in test.items
                if isinstance(item, Pause)
            }
            assert len(durations) <= 1  # single shared hold duration

    def test_geometries_stay_small(self):
        rng = random.Random(1)
        for _ in range(50):
            caps = random_geometry(rng)
            assert 1 <= caps.n_words <= 9
            assert caps.width in (1, 2, 4)
            assert 1 <= caps.ports <= 3

    def test_generator_is_deterministic_per_seed(self):
        one = random_march(random.Random("x"))
        two = random_march(random.Random("x"))
        assert one.items == two.items


class TestCheckSample:
    def test_sample_zero_agrees_everywhere(self):
        result = check_sample(0, 0)
        assert result.ok, result.mismatches
        assert result.microcode_cycles is not None

    def test_sample_result_serializes(self):
        payload = check_sample(0, 1).to_dict()
        assert payload["index"] == 1
        assert payload["mismatches"] == []


class TestRunFuzz:
    def test_small_corpus_has_zero_mismatches(self):
        report = run_fuzz(40, seed=0, jobs=1)
        assert report.ok
        assert report.checked == 40
        assert report.fsm_compiled > 0  # the SM bias pays off

    def test_payload_is_pinned(self):
        payload = run_fuzz(12, seed=0, jobs=1).to_json()
        assert payload == PINNED_REPORT
        assert list(payload) == list(PINNED_REPORT)

    def test_report_is_independent_of_jobs(self):
        serial = run_fuzz(24, seed=3, jobs=1)
        parallel = run_fuzz(24, seed=3, jobs=4)
        assert serial.to_json() == parallel.to_json()

    def test_report_format_mentions_the_verdict(self):
        report = run_fuzz(5, seed=0, jobs=1)
        assert "0 mismatch(es)" in report.format()

    def test_json_report_shape(self):
        payload = run_fuzz(5, seed=0, jobs=1).to_json()
        assert payload["samples"] == 5
        assert payload["checked"] == 5
        assert 0.0 <= payload["fsm_compiled_fraction"] <= 1.0
        assert payload["mismatches"] == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_fuzz(0)
        with pytest.raises(ValueError):
            run_fuzz(10, jobs=0)

    def test_mismatches_would_be_reported(self):
        report = FuzzReport(samples=1, seed=0, checked=1,
                            mismatch_count=1,
                            mismatches=[{"index": 0, "notation": "x",
                                         "geometry": [1, 1, 1],
                                         "mismatches": ["boom"]}])
        assert not report.ok
        assert "boom" in report.format()


class TestFaultIdentity:
    """Identity (e): fault-response equivalence inside the fuzz loop."""

    def test_sample_draws_a_fault(self):
        result = check_sample(0, 0)
        assert result.fault_spec  # the (e) draw happened ...
        assert result.ok          # ... and the responses agreed

    def test_fault_draw_is_deterministic_per_seed(self):
        one = check_sample(7, 3)
        two = check_sample(7, 3)
        assert one.fault_spec == two.fault_spec
        assert one.fault_detected == two.fault_detected

    def test_fault_check_can_be_disabled(self):
        result = check_sample(0, 0, skip="e")
        assert result.fault_spec is None
        assert not result.fault_detected

    def test_report_counts_detecting_samples(self):
        report = run_fuzz(40, seed=0, jobs=1)
        assert report.ok
        assert report.fault_detected > 0  # most random faults are seen
        assert report.to_json()["fault_detected"] == report.fault_detected
        assert "fault-detecting" in report.format()

    def test_seeded_response_defect_is_caught_and_shrunk(self, monkeypatch):
        """An off-by-one in one architecture's fail logging is invisible
        to the stimulus identities (a)-(d) but must trip identity (e),
        and the report must carry a shrunk (march, geometry, fault)
        reproducer."""
        import dataclasses

        from repro.conformance.faulty import check as faulty_check
        from repro.conformance.faulty import capture_response

        def shifted(stream, memory, max_ops=None):
            capture = capture_response(stream, memory, max_ops=max_ops)
            capture.events = [
                dataclasses.replace(event, op_index=event.op_index + 1)
                for event in capture.events
            ]
            return capture

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", shifted
        )
        # jobs=1 keeps the monkeypatch visible (workers would re-import).
        report = run_fuzz(12, seed=0, jobs=1)
        assert not report.ok
        entry = report.mismatches[0]
        assert entry["fault_spec"]
        assert any(
            "fault-response divergence" in m for m in entry["mismatches"]
        )
        shrunk = entry["shrunk_faulty"]
        assert shrunk is not None
        assert shrunk["fault"]
        assert "shrunk faulty reproducer" in report.format()
        assert entry == PINNED_DEFECT_ENTRY
        assert list(entry) == list(PINNED_DEFECT_ENTRY)


class TestProperty:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(test=march_test_strategy(), data=st.data())
    def test_microcode_cycle_identity(self, test, data):
        """interpret().cycles == len(trace()) for every generated
        algorithm — the identity (a) of the harness, with shrinking."""
        from repro.analysis import Verdict, interpret
        from repro.core.controller import ControllerCapabilities
        from repro.core.microcode import MicrocodeBistController, assemble

        caps = ControllerCapabilities(
            n_words=data.draw(st.integers(1, 9)),
            width=data.draw(st.sampled_from([1, 2, 4])),
            ports=data.draw(st.integers(1, 3)),
        )
        program = assemble(test, caps, verify=False)
        result = interpret(program, caps)
        assert result.verdict is Verdict.TERMINATES
        controller = MicrocodeBistController(program, caps, verify=False)
        assert result.cycles == sum(1 for _ in controller.trace())
