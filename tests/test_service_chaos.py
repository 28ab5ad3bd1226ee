"""Chaos suite: the service layer under injected faults (PR 9, satellite).

Every test here asserts the same contract from a different angle: no
matter what the service survives — a SIGKILLed worker, a hung shard, a
poison job, a corrupted cache entry, an interrupt at ~50% — the final
merged report is byte-identical (timing aside) to the uninterrupted
serial baseline, or visibly marked as partial/lost.  Determinism under
failure is what makes the harness trustworthy as a conformance oracle.
"""

import copy

import pytest

from repro.analysis.fuzz import _check_batch as _fuzz_check_batch
from repro.conformance.faulty.check import (
    FaultSweepReport,
    SweepInterrupted,
    _sweep_shard,
    run_fault_sweep,
    run_fault_sweeps,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.spec import parse_fault
from repro.march import library
from repro.service import (
    ChaosPlan,
    ResultStore,
    corrupt_store_entry,
)

CAPS = ControllerCapabilities(n_words=8, width=2, ports=1)
TESTS = [library.get(name) for name in ("MATS+", "March C", "March Y")]
FAULTS = [
    parse_fault(spec)
    for spec in ("saf:2:1:1", "tf:1:0:up", "cfin:1:0:2:0:up", "irf:2:0:1")
]


def sans_timing(payload):
    """Strip every volatile key so payloads compare structurally."""
    payload = copy.deepcopy(payload)

    def strip(node):
        if isinstance(node, dict):
            node.pop("timing", None)
            for value in node.values():
                strip(value)
        elif isinstance(node, list):
            for value in node:
                strip(value)

    strip(payload)
    return payload


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted serial oracle every chaos run must reproduce."""
    return run_fault_sweep(TESTS, CAPS, FAULTS, jobs=1)


class TestChaosPlanValidation:
    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(behaviors={0: "explode"})

    def test_once_behaviours_need_sentinel_dir(self):
        with pytest.raises(ValueError):
            ChaosPlan(behaviors={0: "kill-once"})


class TestWorkerKill:
    def test_sigkilled_worker_mid_sweep_keeps_report_identical(
        self, baseline, tmp_path
    ):
        # Satellite regression: shard 0's worker takes a real SIGKILL
        # on first dispatch; the engine respawns the pool, requeues the
        # shard, and the merged report must not show a scar.
        chaos = ChaosPlan(
            behaviors={0: "kill-once"}, sentinel_dir=tmp_path
        )
        report = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos
        )
        assert report.ok, report.format()
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        stats = report.service_stats
        assert stats is not None
        assert stats["crashes"] >= 1

    def test_raised_shard_retries_to_identical_report(
        self, baseline, tmp_path
    ):
        chaos = ChaosPlan(
            behaviors={1: "raise-once"}, sentinel_dir=tmp_path
        )
        report = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos
        )
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        assert report.service_stats["retries"] >= 1

    def test_hung_shard_times_out_then_completes(self, baseline, tmp_path):
        chaos = ChaosPlan(
            behaviors={0: "hang-once"}, sentinel_dir=tmp_path, hang_s=30.0
        )
        report = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos, shard_timeout=1.5
        )
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        assert report.service_stats["timeouts"] >= 1


class TestPoisonJobs:
    def test_persistent_killer_is_quarantined_not_fatal(self, baseline):
        # Shard 0 SIGKILLs its worker on *every* attempt: the engine
        # must quarantine it (never retry a crasher inline) and report
        # the loss instead of crashing or hanging the whole sweep.
        chaos = ChaosPlan(behaviors={0: "kill"})
        report = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, chaos=chaos)
        assert not report.ok
        lost = [
            f for f in report.failures if f.get("kind") == "shard-lost"
        ]
        assert len(lost) == 1
        assert report.service_stats["quarantined"] == 1
        # Every other shard still completed.
        assert 0 < report.checked < baseline.checked
        assert "service:" in report.format()

    def test_persistent_raiser_falls_back_to_serial_retry(
        self, baseline
    ):
        # A shard that raises on every pooled attempt never crashed a
        # worker, so it is safe to re-run inline without chaos wrapping
        # — and the report comes out whole.
        chaos = ChaosPlan(behaviors={2: "raise"})
        report = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, chaos=chaos)
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        assert report.service_stats["serial_retries"] == 1


class TestInterruptAndResume:
    def test_interrupt_yields_partial_mergeable_report(
        self, baseline, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        chaos = ChaosPlan(interrupt_after=3)
        with pytest.raises(SweepInterrupted) as exc_info:
            run_fault_sweep(
                TESTS, CAPS, FAULTS, jobs=1, store=store, chaos=chaos
            )
        partial = exc_info.value.report
        assert partial.interrupted
        assert 0 < partial.checked < baseline.checked
        payload = partial.to_json()
        assert payload["interrupted"] is True
        # The partial artifact round-trips through the store's codec.
        reloaded = FaultSweepReport.from_json(payload)
        assert sans_timing(reloaded.to_json()) == sans_timing(payload)

    def test_resumed_sweep_equals_uninterrupted_serial(
        self, baseline, tmp_path
    ):
        # The headline acceptance criterion: interrupt at ~50%, resume
        # from the store, and the merged report is byte-identical
        # (timing aside) to the uninterrupted serial baseline.
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepInterrupted):
            run_fault_sweep(
                TESTS,
                CAPS,
                FAULTS,
                jobs=1,
                store=store,
                chaos=ChaosPlan(interrupt_after=3),
            )
        resumed = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=1, store=store
        )
        assert resumed.ok
        assert sans_timing(resumed.to_json()) == sans_timing(
            baseline.to_json()
        )
        # The shards finished before the interrupt came back as hits.
        assert resumed.service_stats["store"]["hits"] >= 3

    def test_resume_across_worker_counts(self, baseline, tmp_path):
        # Interrupt a serial run, resume with a pool: shard keys only
        # depend on the workload, so the cache still applies.
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepInterrupted):
            run_fault_sweep(
                TESTS,
                CAPS,
                FAULTS,
                jobs=1,
                store=store,
                chaos=ChaosPlan(interrupt_after=2),
            )
        resumed = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, store=store
        )
        assert resumed.ok
        assert sans_timing(resumed.to_json()) == sans_timing(
            baseline.to_json()
        )

    def test_multi_geometry_interrupt_marks_report(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepInterrupted) as exc_info:
            run_fault_sweeps(
                [(8, 2, 1), (8, 1, 1)],
                TESTS,
                faults=FAULTS,
                store=store,
                chaos=ChaosPlan(interrupt_after=2),
            )
        partial = exc_info.value.report
        assert partial.interrupted
        assert partial.to_json()["interrupted"] is True


class TestStoreCorruption:
    def test_corrupted_entry_is_detected_and_recomputed(
        self, baseline, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        first = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=1, store=store)
        assert first.ok
        assert len(store) > 0  # sanity: the sweep populated the store

        # Flip a bit in the first cached shard without fixing its hash.
        corrupt_store_entry(store, _first_key(store))
        rerun = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=1, store=store
        )
        assert rerun.ok
        assert sans_timing(rerun.to_json()) == sans_timing(
            baseline.to_json()
        )
        stats = rerun.service_stats["store"]
        assert stats["corruptions"] == 1
        assert stats["misses"] >= 1  # the evicted shard was recomputed


def _first_key(store):
    """Reconstruct a StoreKey shim for the first on-disk entry."""
    import json
    from repro.service.store import StoreKey

    path = sorted(store.entry_paths())[0]
    entry = json.loads(path.read_text())
    return StoreKey(fields=entry["key"], digest=path.stem)


class TestFuzzServiceIdentity:
    def test_check_sample_exercises_resumed_sweep_identity(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(11, 0)
        assert result.ok, result.mismatches
        assert result.service_checked

    def test_run_fuzz_counts_service_identities(self):
        from repro.analysis.fuzz import run_fuzz

        report = run_fuzz(3, seed=5, jobs=1)
        assert report.ok
        assert report.service_checked == 3

    def test_service_identity_can_be_disabled(self):
        from repro.analysis.fuzz import run_fuzz

        report = run_fuzz(2, seed=5, jobs=1, skip="i")
        assert report.ok
        assert report.service_checked == 0


def _crash_first_fuzz_batch(args):
    """``_check_batch`` whose worker dies on the batch at sample 0.

    Module-level so the engine can pickle it by reference; the forked
    workers see it under the patched name.  Only a worker process dies —
    run in the test process it raises instead.
    """
    import multiprocessing
    import os

    if args[1] == 0:
        if multiprocessing.parent_process() is None:
            raise RuntimeError("planted batch failure")
        os._exit(1)
    return _fuzz_check_batch(args)


def _raise_in_workers_fuzz_batch(args):
    """``_check_batch`` that raises on the batch at sample 0, but only
    inside a worker process — the serial retry in the parent succeeds."""
    import multiprocessing

    if args[1] == 0 and multiprocessing.parent_process() is not None:
        raise RuntimeError("planted worker-only failure")
    return _fuzz_check_batch(args)


def _raise_everywhere_fuzz_batch(args):
    """``_check_batch`` whose batch at sample 0 raises in workers and in
    the parent's serial retry alike."""
    if args[1] == 0:
        raise RuntimeError("planted batch failure")
    return _fuzz_check_batch(args)


def _interrupt_serial_retry_of_first_fuzz_batch(args):
    """``_check_batch`` whose batch at sample 0 raises in every worker,
    and whose serial retry in the parent is interrupted by SIGINT."""
    import multiprocessing

    if args[1] == 0:
        if multiprocessing.parent_process() is None:
            raise KeyboardInterrupt
        raise RuntimeError("planted worker-only failure")
    return _fuzz_check_batch(args)


def _interrupt_serial_retry_of_first_shard(args):
    """``_sweep_shard`` twin of the fuzz batch above, for shard 0."""
    import multiprocessing

    if args[0] == 0:
        if multiprocessing.parent_process() is None:
            raise KeyboardInterrupt
        raise RuntimeError("planted worker-only failure")
    return _sweep_shard(args)


class TestInterruptDuringSerialRetry:
    def test_fuzz_partial_report_keeps_the_completed_batch(
        self, monkeypatch
    ):
        from repro.analysis import fuzz

        monkeypatch.setattr(
            fuzz, "_check_batch", _interrupt_serial_retry_of_first_fuzz_batch
        )
        with pytest.raises(SweepInterrupted) as exc_info:
            fuzz.run_fuzz(8, seed=0, jobs=2)
        partial = exc_info.value.report
        assert partial.interrupted
        assert partial.to_json()["interrupted"] is True
        assert partial.checked == 4

    def test_sweep_checkpoints_every_completed_shard(
        self, baseline, monkeypatch, tmp_path
    ):
        # Shard 0 fails in the pool and its serial retry is interrupted:
        # the shards the engine completed after it are merged into the
        # partial report and stored, so the rerun only recomputes it.
        from repro.conformance.faulty import check as faulty_check

        store = ResultStore(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr(
                faulty_check, "_sweep_shard",
                _interrupt_serial_retry_of_first_shard,
            )
            with pytest.raises(SweepInterrupted) as exc_info:
                run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, store=store)
        partial = exc_info.value.report
        assert partial.interrupted
        done = sorted(shard["shard"] for shard in partial.shards)
        assert done and 0 not in done
        assert len(store) == len(done)
        assert partial.checked == sum(
            shard["runs"] for shard in partial.shards
        )
        resumed = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, store=store)
        assert sans_timing(resumed.to_json()) == sans_timing(
            baseline.to_json()
        )
        assert resumed.service_stats["store"]["hits"] == len(done)


class TestFuzzLostBatch:
    def test_lost_batch_checks_nothing_and_reports_one_mismatch(
        self, monkeypatch
    ):
        """A batch whose worker keeps crashing is quarantined: none of
        its samples counts as checked, and it leaves one mismatch."""
        from repro.analysis import fuzz

        monkeypatch.setattr(fuzz, "_check_batch", _crash_first_fuzz_batch)
        report = fuzz.run_fuzz(8, seed=0, jobs=2)
        assert report.checked == 4
        assert report.mismatch_count == 1
        (entry,) = report.mismatches
        assert entry["sample_seed"] == "<batch 0..3>"
        assert entry["mismatches"][0].startswith("service: batch lost: ")
        assert "lost" not in entry and "ok" not in entry

    def test_failed_serial_retry_is_a_lost_batch(self, monkeypatch):
        """The lost-batch message names the engine status and the
        retry's error, as the sweep's ``shard-lost`` record does."""
        from repro.analysis import fuzz

        monkeypatch.setattr(fuzz, "_check_batch", _raise_everywhere_fuzz_batch)
        report = fuzz.run_fuzz(8, seed=0, jobs=2)
        assert report.checked == 4
        (entry,) = report.mismatches
        assert entry["mismatches"] == [
            "service: batch lost: failed: RuntimeError: planted batch "
            "failure; serial retry: RuntimeError: planted batch failure"
        ]
        assert report.service_stats["serial_retries"] == 0

    def test_persistent_raiser_falls_back_to_serial_retry(self, monkeypatch):
        """The fuzz twin of the sweep's serial-retry test: a batch that
        raises on every pooled attempt is rerun in-process, and the
        report is the serial one."""
        from repro.analysis import fuzz

        serial = fuzz.run_fuzz(8, seed=0, jobs=1).to_json()
        monkeypatch.setattr(
            fuzz, "_check_batch", _raise_in_workers_fuzz_batch
        )
        report = fuzz.run_fuzz(8, seed=0, jobs=2)
        assert report.to_json() == serial
        assert report.service_stats["serial_retries"] == 1


class TestVectorEngineService:
    def test_vector_sweep_store_roundtrip(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.vector.sweep import run_vector_fault_sweep

        store = ResultStore(tmp_path / "store")
        first = run_vector_fault_sweep(
            TESTS, CAPS, FAULTS, store=store
        )
        rerun = run_vector_fault_sweep(
            TESTS, CAPS, FAULTS, store=store
        )
        assert rerun.ok
        assert sans_timing(rerun.to_json()) == sans_timing(
            first.to_json()
        )
        assert rerun.service_stats["store"]["hits"] >= 1

    def test_vector_kill_once_identical(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.vector.sweep import run_vector_fault_sweep

        serial = run_vector_fault_sweep(TESTS, CAPS, FAULTS)
        chaos = ChaosPlan(
            behaviors={0: "kill-once"}, sentinel_dir=tmp_path
        )
        chaotic = run_vector_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos
        )
        assert chaotic.ok
        assert sans_timing(chaotic.to_json()) == sans_timing(
            serial.to_json()
        )
