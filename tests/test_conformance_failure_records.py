"""Pinned failure records of the fault-response differential.

Every error and divergence path of :func:`check_fault_conformance` —
the three controller architectures (sequential march tests), the
replay partner (concurrent and in-field modes) and the PRT partners
(``prt-controller`` and ``replay``) — gets one planted defect, and the
whole :meth:`FaultResponseResult.to_dict` record is compared against
its pinned value: status, layer, divergence and the exact ``detail``
string.  Any refactor of the comparator must leave these bytes alone.
"""

import pytest

from repro.conformance import check_fault_conformance
from repro.conformance.check import STREAM_BUILDERS
from repro.conformance.faulty import check as faulty_check
from repro.conformance.faulty.events import (
    ResponseBudgetExceeded,
    ResponseCapture,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.spec import parse_fault
from repro.march import library
from repro.march.notation import parse_test
from repro.prt import PRT_RING_UP as PRT, PrtController


def _fail_on_call(capture, call, error):
    """``capture`` raising ``error`` on its ``call``-th use (1-based)."""
    calls = [0]

    def patched(stream, memory, max_ops=None):
        calls[0] += 1
        if calls[0] == call:
            raise error
        return capture(stream, memory, max_ops=max_ops)

    return patched


def _capture_defect(name, call, error):
    def plant(monkeypatch):
        original = getattr(faulty_check, name)
        monkeypatch.setattr(
            faulty_check, name, _fail_on_call(original, call, error)
        )

    return plant


def _replay_drops_last_event(name):
    """The second use of capture ``name`` loses its last fail event."""

    def plant(monkeypatch):
        original = getattr(faulty_check, name)
        calls = [0]

        def patched(stream, memory, max_ops=None):
            capture = original(stream, memory, max_ops=max_ops)
            calls[0] += 1
            if calls[0] == 2:
                capture = ResponseCapture(
                    ops_applied=capture.ops_applied,
                    events=capture.events[:-1],
                )
            return capture

        monkeypatch.setattr(faulty_check, name, patched)

    return plant


def _raising(error):
    def build(*args, **kwargs):
        raise error

    return build


def _builder_defect(architecture, error):
    def plant(monkeypatch):
        monkeypatch.setitem(STREAM_BUILDERS, architecture, _raising(error))

    return plant


def _architecture_capture_defect(architecture, error):
    def plant(monkeypatch):
        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, architecture, _raising(error)
        )

    return plant


def _prt_controller_defect(error):
    def plant(monkeypatch):
        monkeypatch.setattr(
            PrtController, "attributed_stream", _raising(error)
        )

    return plant


def _prt_controller_truncated(monkeypatch):
    original = PrtController.attributed_stream
    monkeypatch.setattr(
        PrtController, "attributed_stream", lambda self: original(self)[:-2]
    )


def _no_defect(monkeypatch):
    pass


WEDGED = ResponseBudgetExceeded("op budget of 1 exceeded after 1 operation(s)")
CRASHED = IndexError("comparator bank out of range")

#: case id -> (stimulus, geometry, fault spec, mode, defect planter).
CASES = {
    "concurrent-replay-crashed": (
        library.MARCH_C, (2, 2, 2), "saf:1:0:1", "concurrent",
        _capture_defect("capture_cycle_response", 2, CRASHED),
    ),
    "concurrent-replay-wedged": (
        library.MARCH_C, (2, 2, 2), "saf:1:0:1", "concurrent",
        _capture_defect("capture_cycle_response", 2, WEDGED),
    ),
    "concurrent-replay-diverged": (
        library.MARCH_C, (2, 2, 2), "saf:1:0:1", "concurrent",
        _replay_drops_last_event("capture_cycle_response"),
    ),
    "infield-replay-crashed": (
        library.MATS_PLUS, (3, 2, 1), "saf:0:0:1", "infield",
        _capture_defect("capture_response", 2, CRASHED),
    ),
    "infield-replay-wedged": (
        library.MATS_PLUS, (3, 2, 1), "saf:0:0:1", "infield",
        _capture_defect("capture_response", 2, WEDGED),
    ),
    "infield-no-transparent-variant": (
        parse_test("^(w0)", name="writes"), (2, 1, 1), "saf:0:0:1",
        "infield", _no_defect,
    ),
    "prt-controller-crashed": (
        PRT, (4, 1, 1), "saf:2:0:1", "sequential",
        _prt_controller_defect(CRASHED),
    ),
    "prt-build-runtime-error": (
        PRT, (4, 1, 1), "saf:2:0:1", "sequential",
        _prt_controller_defect(RuntimeError("ring never closed")),
    ),
    "prt-controller-diverged": (
        PRT, (4, 1, 1), "saf:2:0:1", "sequential",
        _prt_controller_truncated,
    ),
    "prt-controller-wedged": (
        PRT, (4, 1, 1), "saf:2:0:1", "sequential",
        _capture_defect("capture_response", 2, WEDGED),
    ),
    "prt-replay-crashed": (
        PRT, (4, 1, 1), "saf:2:0:1", "sequential",
        _capture_defect("capture_response", 3, CRASHED),
    ),
    "sequential-build-nonterminating": (
        library.MATS, (4, 2, 1), "saf:0:0:1", "sequential",
        _builder_defect("progfsm", RuntimeError("no TERMINATE in 10 cycles")),
    ),
    "sequential-build-crashed": (
        library.MATS, (4, 2, 1), "saf:0:0:1", "sequential",
        _builder_defect("microcode", KeyError("opcode")),
    ),
    "sequential-capture-wedged": (
        library.MATS, (4, 2, 1), "saf:0:0:1", "sequential",
        _architecture_capture_defect("hardwired", WEDGED),
    ),
    "sequential-capture-crashed": (
        library.MATS, (4, 2, 1), "saf:0:0:1", "sequential",
        _architecture_capture_defect("microcode", CRASHED),
    ),
}


def _record(case, monkeypatch):
    stimulus, geometry, spec, mode, plant = CASES[case]
    words, width, ports = geometry
    caps = ControllerCapabilities(n_words=words, width=width, ports=ports)
    plant(monkeypatch)
    return check_fault_conformance(
        stimulus, caps, parse_fault(spec), mode=mode
    ).to_dict()


@pytest.mark.parametrize("case", sorted(CASES))
def test_failure_record_is_pinned(case, monkeypatch):
    assert _record(case, monkeypatch) == EXPECTED[case]


EXPECTED = {
    "concurrent-replay-crashed": {
        "notation": "~(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); ~(r0)",
        "geometry": [2, 2, 2],
        "fault": "SAF: cell (1,0) stuck-at-1",
        "fault_spec": "saf:1:0:1",
        "compress": True,
        "mode": "concurrent",
        "golden_events": 36,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "replay",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "replay session crashed: IndexError: comparator bank out "
                    "of range"
                ),
            },
        ],
    },
    "concurrent-replay-diverged": {
        "notation": "~(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); ~(r0)",
        "geometry": [2, 2, 2],
        "fault": "SAF: cell (1,0) stuck-at-1",
        "fault_spec": "saf:1:0:1",
        "compress": True,
        "mode": "concurrent",
        "golden_events": 36,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "replay",
                "status": "diverged",
                "ops_applied": 80,
                "event_count": 35,
                "failing_cells": [[1, 0]],
                "diagnosis": [],
                "layer": "events",
                "divergence": {
                    "architecture": "replay",
                    "index": 35,
                    "kind": "missing",
                    "expected": {
                        "op_index": 79,
                        "port": 1,
                        "address": 1,
                        "expected": 2,
                        "observed": 3,
                        "owner": "rotation 1 item 5 ~(r0) op 0",
                    },
                    "got": None,
                },
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "concurrent-replay-wedged": {
        "notation": "~(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0); ~(r0)",
        "geometry": [2, 2, 2],
        "fault": "SAF: cell (1,0) stuck-at-1",
        "fault_spec": "saf:1:0:1",
        "compress": True,
        "mode": "concurrent",
        "golden_events": 36,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "replay",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "wedged replay session: op budget of 1 exceeded after 1 "
                    "operation(s)"
                ),
            },
        ],
    },
    "infield-no-transparent-variant": {
        "notation": "^(w0)",
        "geometry": [2, 1, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "infield",
        "golden_events": 0,
        "detected": False,
        "ok": True,
        "architectures": [
            {
                "architecture": "replay",
                "status": "skipped",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "no transparent variant: writes has no read operations to "
                    "make transparent"
                ),
            },
        ],
    },
    "infield-replay-crashed": {
        "notation": "~(w0); ^(r0,w1); v(r1,w0)",
        "geometry": [3, 2, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "infield",
        "golden_events": 3,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "replay",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "replay session crashed: IndexError: comparator bank out "
                    "of range"
                ),
            },
        ],
    },
    "infield-replay-wedged": {
        "notation": "~(w0); ^(r0,w1); v(r1,w0)",
        "geometry": [3, 2, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "infield",
        "golden_events": 3,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "replay",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "wedged replay session: op budget of 1 exceeded after 1 "
                    "operation(s)"
                ),
            },
        ],
    },
    "prt-build-runtime-error": {
        "notation": "PRT(passes=4,seed=11612,order=up)",
        "geometry": [4, 1, 1],
        "fault": "SAF: cell (2,0) stuck-at-1",
        "fault_spec": "saf:2:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 5,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "prt-controller",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "controller crashed: RuntimeError: ring never closed"
                ),
            },
            {
                "architecture": "replay",
                "status": "ok",
                "ops_applied": 48,
                "event_count": 5,
                "failing_cells": [[2, 0]],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "prt-controller-crashed": {
        "notation": "PRT(passes=4,seed=11612,order=up)",
        "geometry": [4, 1, 1],
        "fault": "SAF: cell (2,0) stuck-at-1",
        "fault_spec": "saf:2:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 5,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "prt-controller",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "controller crashed: IndexError: comparator bank out of "
                    "range"
                ),
            },
            {
                "architecture": "replay",
                "status": "ok",
                "ops_applied": 48,
                "event_count": 5,
                "failing_cells": [[2, 0]],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "prt-controller-diverged": {
        "notation": "PRT(passes=4,seed=11612,order=up)",
        "geometry": [4, 1, 1],
        "fault": "SAF: cell (2,0) stuck-at-1",
        "fault_spec": "saf:2:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 5,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "prt-controller",
                "status": "diverged",
                "ops_applied": 46,
                "event_count": 4,
                "failing_cells": [[2, 0]],
                "diagnosis": [],
                "layer": "events",
                "divergence": {
                    "architecture": "prt-controller",
                    "index": 4,
                    "kind": "missing",
                    "expected": {
                        "op_index": 46,
                        "port": 0,
                        "address": 2,
                        "expected": 0,
                        "observed": 1,
                        "owner": "port 0 readout pos 2",
                    },
                    "got": None,
                },
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "replay",
                "status": "ok",
                "ops_applied": 48,
                "event_count": 5,
                "failing_cells": [[2, 0]],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "prt-controller-wedged": {
        "notation": "PRT(passes=4,seed=11612,order=up)",
        "geometry": [4, 1, 1],
        "fault": "SAF: cell (2,0) stuck-at-1",
        "fault_spec": "saf:2:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 5,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "prt-controller",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "wedged BIST session: op budget of 1 exceeded after 1 "
                    "operation(s)"
                ),
            },
            {
                "architecture": "replay",
                "status": "ok",
                "ops_applied": 48,
                "event_count": 5,
                "failing_cells": [[2, 0]],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "prt-replay-crashed": {
        "notation": "PRT(passes=4,seed=11612,order=up)",
        "geometry": [4, 1, 1],
        "fault": "SAF: cell (2,0) stuck-at-1",
        "fault_spec": "saf:2:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 5,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "prt-controller",
                "status": "ok",
                "ops_applied": 48,
                "event_count": 5,
                "failing_cells": [[2, 0]],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "replay",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "BIST session crashed: IndexError: comparator bank out of "
                    "range"
                ),
            },
        ],
    },
    "sequential-build-crashed": {
        "notation": "~(w0); ~(r0,w1); ~(r1)",
        "geometry": [4, 2, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 2,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "microcode",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": "controller crashed: KeyError: 'opcode'",
            },
            {
                "architecture": "progfsm",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "hardwired",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "sequential-build-nonterminating": {
        "notation": "~(w0); ~(r0,w1); ~(r1)",
        "geometry": [4, 2, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 2,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "microcode",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "progfsm",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "simulation did not terminate: no TERMINATE in 10 cycles"
                ),
            },
            {
                "architecture": "hardwired",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "sequential-capture-crashed": {
        "notation": "~(w0); ~(r0,w1); ~(r1)",
        "geometry": [4, 2, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 2,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "microcode",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "BIST session crashed: IndexError: comparator bank out of "
                    "range"
                ),
            },
            {
                "architecture": "progfsm",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "hardwired",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
        ],
    },
    "sequential-capture-wedged": {
        "notation": "~(w0); ~(r0,w1); ~(r1)",
        "geometry": [4, 2, 1],
        "fault": "SAF: cell (0,0) stuck-at-1",
        "fault_spec": "saf:0:0:1",
        "compress": True,
        "mode": "sequential",
        "golden_events": 2,
        "detected": True,
        "ok": False,
        "architectures": [
            {
                "architecture": "microcode",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "progfsm",
                "status": "ok",
                "ops_applied": 32,
                "event_count": 2,
                "failing_cells": [[0, 0]],
                "diagnosis": ["(0,0): SA1/TF-down"],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": None,
            },
            {
                "architecture": "hardwired",
                "status": "error",
                "ops_applied": 0,
                "event_count": 0,
                "failing_cells": [],
                "diagnosis": [],
                "layer": None,
                "divergence": None,
                "mismatch": None,
                "detail": (
                    "wedged BIST session: op budget of 1 exceeded after 1 "
                    "operation(s)"
                ),
            },
        ],
    },
}
