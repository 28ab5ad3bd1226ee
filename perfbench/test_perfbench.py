"""Unit tests of the benchmark itself: tracer accounting, traced-run
parity, output-check teeth and the ``BENCHMARK.json`` contract.

    PYTHONPATH=src python3 -m pytest perfbench -q

No test asserts a measured duration: span accounting runs on a fake
clock.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, REFERENCE_S, summarize  # noqa: E402
from steadiness import spread, worse_shift  # noqa: E402
from tracer import Tracer, install, layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, Sweep, fuzz_corpus_size, load_expected  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 0.5

    tracer.wrap("outer", outer)()
    assert tracer.layers["outer"].calls == 1
    assert tracer.layers["outer"].seconds == 1.5
    assert tracer.layers["inner"].calls == 2
    assert tracer.layers["inner"].seconds == 4.0
    assert tracer.attributed_seconds() == 5.5


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.layers["boom"].calls == 1
    assert tracer._stack == [1.0]  # only the root slot remains


def _small_sweep(engine):
    from repro.conformance.faulty import run_fault_sweep, sweep_faults
    from repro.core.controller import ControllerCapabilities
    from repro.march.library import ALGORITHMS

    caps = ControllerCapabilities(n_words=8, width=1, ports=1)
    faults = sweep_faults(caps, per_kind=1, seed=0)
    tests = [ALGORITHMS["MATS+"], ALGORITHMS["March C"]]
    report = run_fault_sweep(tests, caps, faults, engine=engine)
    return report.to_json(include_timing=False), report


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_traced_sweep_takes_the_untraced_path(engine):
    if engine == "vector":
        pytest.importorskip("numpy")
    from repro.conformance import check as conformance_check
    from repro.conformance.faulty import check as faulty_check
    from repro.conformance.faulty import events as faulty_events

    builders = dict(conformance_check.STREAM_BUILDERS)
    captures = dict(faulty_check.RESPONSE_CAPTURES)
    capture = faulty_events.capture_response
    untraced_payload, untraced = _small_sweep(engine)

    conformance_check.GOLDEN_CACHE.clear()
    tracer = Tracer()
    before = install(tracer)
    try:
        if engine == "vector":
            from repro.vector.sweep import _captures_patched

            assert not _captures_patched()
        traced_payload, traced = _small_sweep(engine)
        metrics = layer_metrics(tracer, before, 1.0)
    finally:
        tracer.uninstall()

    assert traced_payload == untraced_payload
    assert traced.fallback_runs == untraced.fallback_runs
    assert traced.skipped_runs == untraced.skipped_runs
    assert metrics["conformance.stream.calls"] > 0
    if engine == "vector":
        assert metrics["vector.kernel.calls"] > 0
        assert metrics["vector.lane_spec.calls"] > 0
    else:
        assert metrics["conformance.capture.calls"] > 0
        assert metrics["diagnostics.classify.calls"] > 0
    # Every binding is the original object again.
    assert conformance_check.STREAM_BUILDERS == builders
    assert faulty_check.RESPONSE_CAPTURES == captures
    assert faulty_events.capture_response is capture
    assert "get" not in vars(conformance_check.GOLDEN_CACHE)


def test_sweep_check_fails_a_tampered_report():
    pytest.importorskip("numpy")
    workload = Sweep("scalar_sweep", "scalar", ("March C",), (8, 1, 1),
                     per_kind=1)
    seed = 7  # unpinned: checked against the vector engine
    inputs = workload.prepare(seed)
    report = workload.run(inputs)
    expected = load_expected()
    clean = workload.check(inputs, report, seed, expected)
    assert clean.failed == 0 and not clean.problems
    report.detected -= 1
    tampered = workload.check(inputs, report, seed, expected)
    assert tampered.failed == tampered.attempted
    assert tampered.digest != clean.digest


def test_fuzz_corpus_is_the_shortest_prefix_over_budget():
    samples, ops = fuzz_corpus_size(3, 2000)
    assert ops >= 2000
    assert fuzz_corpus_size(3, 2000) == (samples, ops)
    shorter, shorter_ops = fuzz_corpus_size(3, ops - 1)
    assert shorter == samples and shorter_ops == ops


@pytest.mark.parametrize("scale_wall", [True, False])
def test_setup_is_scaled_and_the_command_only_on_request(scale_wall):
    rep = {"traced": False, "wall_s": 3.0, "setup_s": 0.5, "work": 6,
           "peak_rss_mb": 20.0, "reference_s": 2 * REFERENCE_S,
           "attempted": 6, "failed": 0, "problems": [], "digest": "d",
           "fallback_runs": 0, "skipped_runs": 0}
    metrics = summarize([rep], False, scale_wall)["metrics"]
    assert metrics["setup_s"]["value"] == pytest.approx(0.25)
    wall = 1.5 if scale_wall else 3.0
    assert metrics["wall_s"]["value"] == pytest.approx(wall)
    assert metrics["items_per_s"]["value"] == pytest.approx(6 / wall)


def test_spread_and_shift():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert worse_shift(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worse_shift(10.0, 11.0, "higher") == pytest.approx(-0.1)


def test_benchmark_json_matches_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in bench["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        END_TO_END
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    reported = set(layer_metrics(Tracer(), {"hits": 0, "misses": 0}, 0.0))
    reported.add("trace.overhead_s")
    names = [m["name"] for m in bench["per_layer"]]
    assert len(names) == len(set(names))
    assert set(names) == reported
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert NAME.match(metric["name"])
        assert metric["better"] in ("lower", "higher")
    for metric in bench["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])
