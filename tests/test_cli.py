"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import FaultSpecError, main, parse_fault
from repro.faults import (
    AddressMapsNowhere,
    DataRetentionFault,
    InversionCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)
from repro.faults.port import PortStuckOpenAccess


class TestParseFault:
    def test_saf(self):
        fault = parse_fault("saf:3:0:1")
        assert isinstance(fault, StuckAtFault)
        assert (fault.word, fault.bit, fault.value) == (3, 0, 1)

    def test_tf_up_and_down(self):
        assert parse_fault("tf:4:0:up").rising
        assert not parse_fault("tf:4:0:down").rising

    def test_drf(self):
        fault = parse_fault("drf:5:0:1")
        assert isinstance(fault, DataRetentionFault)
        assert fault.from_value == 1

    def test_sof(self):
        assert isinstance(parse_fault("sof:6:0:1"), StuckOpenFault)

    def test_cfin(self):
        fault = parse_fault("cfin:0:0:1:0:up")
        assert isinstance(fault, InversionCouplingFault)
        assert fault.victim_word == 1

    def test_af_classes(self):
        assert isinstance(parse_fault("af1:3"), AddressMapsNowhere)
        assert parse_fault("af3:2:6").other_address == 6

    def test_paf(self):
        fault = parse_fault("paf:1:3:0")
        assert isinstance(fault, PortStuckOpenAccess)
        assert fault.port == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("xyz:1:2:3")

    def test_wrong_arity_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("saf:3")

    def test_bad_direction_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("tf:1:0:sideways")


class TestRunCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["run", "--words", "16"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_run_exits_one(self, capsys):
        code = main(["run", "--words", "16", "--fault", "saf:3:0:1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("arch", ["microcode", "progfsm", "hardwired"])
    def test_all_architectures(self, arch, capsys):
        assert main(["run", "--words", "8", "--architecture", arch]) == 0
        capsys.readouterr()

    def test_diagnose_prints_classification(self, capsys):
        code = main([
            "run", "--words", "16", "--algorithm", "March C++",
            "--fault", "drf:5:0:1", "--diagnose",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "fail bitmap" in out
        assert "DRF" in out

    def test_area_flag(self, capsys):
        assert main(["run", "--words", "16", "--area"]) == 0
        assert "GE" in capsys.readouterr().out

    def test_unknown_algorithm_errors(self, capsys):
        assert main(["run", "--algorithm", "March Z"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_fault_spec_errors(self, capsys):
        assert main(["run", "--fault", "nope"]) == 2
        capsys.readouterr()

    def test_word_oriented_multiport_run(self, capsys):
        code = main([
            "run", "--words", "8", "--width", "4", "--ports", "2",
            "--fault", "paf:1:3:2",
        ])
        assert code == 1
        capsys.readouterr()


class TestAssembleCommand:
    def test_microcode_listing(self, capsys):
        assert main(["assemble", "--algorithm", "March C"]) == 0
        out = capsys.readouterr().out
        assert "REPEAT" in out

    def test_fsm_listing(self, capsys):
        assert main(["assemble", "--algorithm", "March C",
                     "--format", "fsm"]) == 0
        assert "SM1" in capsys.readouterr().out

    def test_interchange_output_loads_back(self, capsys):
        assert main(["assemble", "--algorithm", "March A",
                     "--format", "interchange"]) == 0
        out = capsys.readouterr().out
        from repro.core.programming import load_program

        loaded = load_program(out)
        assert loaded.name == "March A"

    def test_fsm_format_rejects_unrealizable(self, capsys):
        assert main(["assemble", "--algorithm", "March B",
                     "--format", "fsm"]) == 2
        capsys.readouterr()


class TestAlgorithmsCommand:
    def test_lists_all(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("March C", "March A++", "PMOVI", "March LR"):
            assert name in out
        assert "10N" in out


class TestRecommendCommand:
    def test_recommend_retention(self, capsys):
        assert main(["recommend", "--classes", "saf,tf,drf"]) == 0
        out = capsys.readouterr().out
        assert "March C+" in out
        assert "Del(1024)" in out

    def test_recommend_case_insensitive(self, capsys):
        assert main(["recommend", "--classes", "cfin,cfid,cfst"]) == 0
        capsys.readouterr()

    def test_recommend_unknown_class_errors(self, capsys):
        assert main(["recommend", "--classes", "saf,xyz"]) == 2
        assert "unknown fault classes" in capsys.readouterr().err


class TestLintCommand:
    def test_default_algorithm_lints_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "March C" in out
        assert "0 error(s)" in out

    def test_all_library_algorithms_exit_zero(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("March C", "March A++", "PMOVI"):
            assert name in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(["lint", "--all", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert {report["name"] for report in reports} >= {"March C", "PMOVI"}
        assert all(report["errors"] == 0 for report in reports)

    def test_progfsm_target_flags_unrealizable_algorithm(self, capsys):
        assert main(["lint", "--algorithm", "March B",
                     "--target", "progfsm"]) == 1
        out = capsys.readouterr().out
        assert "MA004" in out
        assert "SM0-SM7" in out

    def test_uncompressed_lint_advises_compression(self, capsys):
        assert main(["lint", "--algorithm", "March C", "--no-compress"]) == 0
        assert "MC012" in capsys.readouterr().out

    def test_rules_prints_the_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("MC001", "MC010", "MA004"):
            assert rule_id in out

    def test_program_file_lints(self, capsys, tmp_path):
        assert main(["assemble", "--algorithm", "March C",
                     "--format", "interchange"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "marchc.prog"
        path.write_text(text)
        assert main(["lint", "--program", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_march_target_is_architecture_neutral(self, capsys):
        assert main(["lint", "--algorithm", "March B",
                     "--target", "march"]) == 0
        capsys.readouterr()

    def test_progfsm_target_lints_the_whole_library_clean(self, capsys):
        """Acceptance: the whole-library progfsm lint exits 0 —
        realizable algorithms verify error-free, the rest are skipped
        as the architecture's designed flexibility boundary."""
        assert main(["lint", "--all", "--target", "progfsm"]) == 0
        out = capsys.readouterr().out
        assert "March C" in out
        assert "skipped" in out  # March B et al.

    def test_progfsm_target_runs_the_pf_rules(self, capsys):
        assert main(["lint", "--all", "--target", "progfsm",
                     "--json"]) == 0
        import json as json_module

        reports = json_module.loads(capsys.readouterr().out)
        assert all(report["errors"] == 0 for report in reports)

    def test_rules_catalogue_includes_pf_series(self, capsys):
        assert main(["lint", "--rules"]) == 0
        assert "PF002" in capsys.readouterr().out

    def test_rules_catalogue_includes_cv_series(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "CV001" in out
        assert "CV013" in out

    def test_coverage_target_reports_proved_escapes(self, capsys):
        assert main(["lint", "--algorithm", "March C",
                     "--target", "coverage"]) == 0
        out = capsys.readouterr().out
        assert "CV005" in out  # March C has no pause: DRF escapes
        assert "proved escape" in out

    def test_all_prints_family_summary_line(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "summary: 17 algorithm(s) linted" in out
        assert "MA:" in out

    def test_single_algorithm_has_no_summary_line(self, capsys):
        assert main(["lint"]) == 0
        assert "summary:" not in capsys.readouterr().out


class TestCertifyCommand:
    def test_certificate_prints_per_kind_counts(self, capsys):
        assert main(["certify", "--algorithm", "March C", "--words", "4"]) == 0
        out = capsys.readouterr().out
        assert "certificate: March C" in out
        assert "SAF" in out

    def test_cross_check_agrees_and_exits_zero(self, capsys):
        assert main(["certify", "--algorithm", "MATS+", "--words", "4",
                     "--width", "2", "--cross-check"]) == 0
        out = capsys.readouterr().out
        assert "0 disagreement(s)" in out

    def test_geometry_flags_and_report(self, capsys, tmp_path):
        import json as json_module

        path = tmp_path / "certify.json"
        assert main(["certify", "--algorithm", "MATS", "--geometry", "2x1x1",
                     "--geometry", "2x2x1", "--cross-check",
                     "--report", str(path), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert [entry["geometry"] for entry in payload] == \
            [[2, 1, 1], [2, 2, 1]]
        assert json_module.loads(path.read_text())["results"] == payload

    def test_bad_geometry_errors(self, capsys):
        assert main(["certify", "--geometry", "nope"]) == 2
        assert "bad geometry" in capsys.readouterr().err


class TestLintFixCommand:
    def _write_broken_program(self, capsys, tmp_path):
        from repro.core.microcode.assembler import MicrocodeProgram
        from repro.core.microcode.isa import ConditionOp
        from repro.core.programming import dump_program, load_program

        assert main(["assemble", "--algorithm", "March C", "--words", "8",
                     "--format", "interchange"]) == 0
        program = load_program(capsys.readouterr().out)
        rows = [row for row in program.instructions
                if row.cond is not ConditionOp.TERMINATE]
        path = tmp_path / "broken.prog"
        path.write_text(dump_program(MicrocodeProgram(
            name=program.name, instructions=rows, source=program.source,
        )))
        return path

    def test_fix_rewrites_the_file_and_exits_zero(self, capsys, tmp_path):
        path = self._write_broken_program(capsys, tmp_path)
        assert main(["lint", "--fix", "--program", str(path),
                     "--words", "8"]) == 0
        out = capsys.readouterr().out
        assert "fixed:" in out
        assert f"rewrote {path}" in out
        # The rewritten file now lints clean.
        assert main(["lint", "--program", str(path), "--words", "8"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_fix_on_a_clean_file_is_a_noop(self, capsys, tmp_path):
        assert main(["assemble", "--algorithm", "March C", "--words", "8",
                     "--format", "interchange"]) == 0
        path = tmp_path / "clean.prog"
        path.write_text(capsys.readouterr().out)
        before = path.read_text()
        assert main(["lint", "--fix", "--program", str(path),
                     "--words", "8"]) == 0
        assert "nothing to fix" in capsys.readouterr().out
        assert path.read_text() == before

    def test_fix_requires_a_program_file(self, capsys):
        assert main(["lint", "--fix"]) == 2
        assert "--fix requires --program" in capsys.readouterr().err


class TestConformanceRunFaultyCommand:
    def test_single_fault_exits_zero(self, capsys):
        assert main(["conformance", "run-faulty", "--algorithm", "March C",
                     "--words", "4", "--width", "2",
                     "--fault", "saf:2:1:1"]) == 0
        out = capsys.readouterr().out
        assert "saf:2:1:1" in out

    def test_stratified_sweep_reports_and_exits_zero(self, capsys, tmp_path):
        import json as json_module

        report_file = tmp_path / "sweep.json"
        assert main(["conformance", "run-faulty", "--algorithm", "MATS+",
                     "--words", "3", "--per-kind", "1",
                     "--report", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "fault-response sweep" in out
        payload = json_module.loads(report_file.read_text())
        assert payload["ok"]
        assert payload["checked"] > 0

    def test_json_result_shape(self, capsys):
        import json as json_module

        assert main(["conformance", "run-faulty", "--algorithm", "MATS",
                     "--words", "4", "--fault", "tf:1:0:up",
                     "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["fault_spec"] == "tf:1:0:up"
        assert [r["architecture"] for r in payload["architectures"]] == [
            "microcode", "progfsm", "hardwired"
        ]

    def test_bad_fault_spec_exits_two(self, capsys):
        assert main(["conformance", "run-faulty", "--fault", "zzz:1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_single_run_writes_the_report_too(self, capsys, tmp_path):
        """Regression: with exactly one algorithm and one --fault the
        single-run branch returned before the --report write, silently
        dropping the file."""
        import json as json_module

        report_file = tmp_path / "single.json"
        assert main(["conformance", "run-faulty", "--algorithm", "March C",
                     "--words", "4", "--width", "2",
                     "--fault", "saf:2:1:1",
                     "--report", str(report_file)]) == 0
        assert "fault-response conformance" in capsys.readouterr().out
        payload = json_module.loads(report_file.read_text())
        assert payload["ok"] and payload["checked"] == 1
        assert payload["geometry"] == [4, 2, 1]
        assert payload["detected"] == 1

    def test_jobs_flag_keeps_the_report_identical(self, capsys, tmp_path):
        import json as json_module

        serial_file = tmp_path / "serial.json"
        parallel_file = tmp_path / "parallel.json"
        base = ["conformance", "run-faulty", "--algorithm", "MATS+",
                "--words", "3", "--per-kind", "1"]
        assert main(base + ["--jobs", "1",
                            "--report", str(serial_file)]) == 0
        assert main(base + ["--jobs", "2",
                            "--report", str(parallel_file)]) == 0
        capsys.readouterr()
        serial = json_module.loads(serial_file.read_text())
        parallel = json_module.loads(parallel_file.read_text())
        assert serial.pop("timing")["jobs"] == 1
        assert parallel.pop("timing")["jobs"] == 2
        assert serial == parallel

    def test_multi_geometry_sweep_sections(self, capsys, tmp_path):
        import json as json_module

        report_file = tmp_path / "multi.json"
        assert main(["conformance", "run-faulty", "--algorithm", "MATS+",
                     "--geometry", "3x1x1", "--geometry", "2x2",
                     "--per-kind", "1",
                     "--report", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "multi-geometry fault-response sweep" in out
        assert "(3, 1, 1)" in out and "(2, 2, 1)" in out
        payload = json_module.loads(report_file.read_text())
        assert payload["ok"]
        assert [g["geometry"] for g in payload["geometries"]] == [
            [3, 1, 1], [2, 2, 1]
        ]

    def test_store_rerun_is_served_from_the_store(self, capsys, tmp_path):
        import json as json_module

        store = tmp_path / "store"
        base = ["conformance", "run-faulty", "--algorithm", "MATS+",
                "--words", "3", "--per-kind", "1",
                "--store", str(store), "--resume"]
        first_file = tmp_path / "first.json"
        second_file = tmp_path / "second.json"
        assert main(base + ["--report", str(first_file)]) == 0
        assert main(base + ["--report", str(second_file)]) == 0
        assert "store: " in capsys.readouterr().out
        first = json_module.loads(first_file.read_text())
        second = json_module.loads(second_file.read_text())
        assert first["store"]["puts"] > 0
        assert second["store"]["hits"] > 0
        assert second["store"]["puts"] == 0
        for payload in (first, second):
            del payload["timing"], payload["store"]
        assert first == second

    def test_single_run_with_a_store_writes_an_entry(self, capsys, tmp_path):
        from repro.service import ResultStore

        store = tmp_path / "store"
        assert main(["conformance", "run-faulty", "--algorithm", "March C",
                     "--words", "4", "--width", "2",
                     "--fault", "saf:2:1:1", "--store", str(store)]) == 0
        capsys.readouterr()
        assert list(ResultStore(store).entry_paths())

    def test_bad_geometry_exits_two(self, capsys):
        assert main(["conformance", "run-faulty",
                     "--geometry", "4xZ"]) == 2
        assert "bad geometry" in capsys.readouterr().err
        assert main(["conformance", "run-faulty",
                     "--geometry", "4"]) == 2


class TestConformanceShrinkFaultCommand:
    def test_conforming_sample_has_nothing_to_shrink(self, capsys):
        code = main(["conformance", "shrink", "--notation", "^(r0)",
                     "--words", "2", "--fault", "saf:0:0:1"])
        assert code == 1
        assert "nothing to shrink" in capsys.readouterr().out


class TestConformanceRecordStreamsCommand:
    def test_record_streams_writes_the_registry(self, capsys, tmp_path):
        assert main(["conformance", "record", "--streams",
                     "--corpus-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        from repro.conformance.corpus import (
            STREAM_GENERATORS,
            STREAM_GEOMETRIES,
        )

        expected = len(STREAM_GENERATORS) * len(STREAM_GEOMETRIES)
        assert len(list(tmp_path.glob("streams/*.json"))) == expected
        assert out.count("wrote ") == expected


class TestFuzzCommand:
    def test_small_corpus_exits_zero(self, capsys):
        assert main(["fuzz", "--samples", "12", "--seed", "0",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "12/12 samples checked" in out
        assert "0 mismatch(es)" in out

    def test_json_report(self, capsys):
        import json as json_module

        assert main(["fuzz", "--samples", "8", "--seed", "1",
                     "--jobs", "1", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["checked"] == 8
        assert payload["mismatch_count"] == 0

    def test_bad_arguments_exit_two(self, capsys):
        assert main(["fuzz", "--samples", "0", "--jobs", "1"]) == 2
        assert "at least one sample" in capsys.readouterr().err
        for letter in ("z", "a"):
            assert main(["fuzz", "--samples", "1", "--jobs", "1",
                         "--skip", letter]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "d (behavioural equivalence)" in err
            assert "j (pseudo-ring determinism)" in err

    def test_interrupt_writes_the_partial_report(
        self, capsys, monkeypatch, tmp_path
    ):
        import json as json_module

        from repro.analysis import fuzz

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(fuzz, "_check_batch", interrupted)
        report_file = tmp_path / "partial.json"
        assert main(["fuzz", "--samples", "4", "--jobs", "1",
                     "--report", str(report_file)]) == 130
        assert "interrupted" in capsys.readouterr().err
        payload = json_module.loads(report_file.read_text())
        assert payload["interrupted"] is True
        assert payload["checked"] == 0

    def test_no_faults_skips_identity_e(self, capsys):
        import json as json_module

        assert main(["fuzz", "--samples", "6", "--seed", "0",
                     "--jobs", "1", "--skip", "e", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["checked"] == 6
        assert payload["fault_detected"] == 0
