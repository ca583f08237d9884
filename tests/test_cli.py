"""Tests for the repro-ht-detect subcommand CLI (a thin consumer of repro.api)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.report import SCHEMA_VERSION, DetectionReport


CLEAN_DESIGN = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  always @(posedge clk) stage <= d + 8'h1;
  assign q = stage;
endmodule
"""

TROJANED_DESIGN = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  reg [15:0] bomb;
  always @(posedge clk) begin
    stage <= d + 8'h1;
    bomb <= bomb + 16'h1;
  end
  assign q = (bomb == 16'hffff) ? ~stage : stage;
endmodule
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.v"
    path.write_text(CLEAN_DESIGN)
    return str(path)


@pytest.fixture
def trojaned_file(tmp_path):
    path = tmp_path / "trojan.v"
    path.write_text(TROJANED_DESIGN)
    return str(path)


class TestArgumentParsing:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_verilog_and_benchmark_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--verilog", "x.v", "--benchmark", "AES-T100"])

    def test_top_required_with_verilog(self, clean_file):
        with pytest.raises(SystemExit):
            main(["run", "--verilog", clean_file])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestLegacyInvocation:
    """The pre-subcommand flag style still works, mapped onto `run`."""

    def test_legacy_verilog_mode(self, clean_file, capsys):
        assert main(["--verilog", clean_file, "--top", "widget"]) == 0
        captured = capsys.readouterr()
        assert "SECURE" in captured.out
        assert "deprecated" in captured.err

    def test_legacy_list_benchmarks(self, capsys):
        assert main(["--list-benchmarks"]) == 0
        assert "AES-T1400" in capsys.readouterr().out


class TestRunVerilog:
    def test_clean_design_exits_zero(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget"]) == 0
        assert "SECURE" in capsys.readouterr().out

    def test_trojaned_design_exits_one(self, trojaned_file, capsys):
        assert main(["run", "--verilog", trojaned_file, "--top", "widget"]) == 1
        output = capsys.readouterr().out
        assert "TROJAN" in output or "UNCOVERED" in output

    def test_waiver_flag(self, trojaned_file, capsys):
        exit_code = main(["run", "--verilog", trojaned_file, "--top", "widget",
                          "--waive", "bomb"])
        # The waived counter no longer fails a property, but the coverage
        # check still reports it (it is outside the input cone).
        assert exit_code == 1
        assert "coverage" in capsys.readouterr().out

    def test_verbose_streams_property_events(self, clean_file, capsys):
        main(["run", "--verilog", clean_file, "--top", "widget", "--verbose"])
        output = capsys.readouterr().out
        assert "scheduled init property" in output
        assert "holds" in output

    def test_missing_file_reports_error(self, capsys):
        assert main(["run", "--verilog", "/nonexistent/file.v", "--top", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_verilog_reports_error(self, tmp_path, capsys):
        path = tmp_path / "broken.v"
        path.write_text("module broken(input a; endmodule")
        assert main(["run", "--verilog", str(path), "--top", "broken"]) == 2

    def test_explicit_inputs_flag(self, clean_file):
        assert main(["run", "--verilog", clean_file, "--top", "widget", "--inputs", "d"]) == 0

    def test_inputs_with_whitespace_are_stripped(self, clean_file):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--inputs", " d "]) == 0

    def test_empty_input_entry_is_a_config_error(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--inputs", "d,,q"]) == 2
        assert "empty signal name" in capsys.readouterr().err

    def test_duplicate_input_entry_is_a_config_error(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--inputs", "d,d"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_strict_paper_properties_flag(self, clean_file):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--strict-paper-properties"]) == 0


class TestRunJson:
    def test_json_report_round_trips(self, trojaned_file, capsys):
        assert main(["run", "--verilog", trojaned_file, "--top", "widget", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["verdict"] == "trojan-suspected"
        restored = DetectionReport.from_dict(data)
        assert restored.to_dict() == data

    def test_json_with_verbose_keeps_stdout_parseable(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--json", "--verbose"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)  # events went to stderr, not stdout
        assert data["schema_version"] == SCHEMA_VERSION
        assert "scheduled init property" in captured.err

    def test_output_file(self, clean_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--output", str(out)]) == 0
        # summary still on stdout, JSON in the file
        assert "SECURE" in capsys.readouterr().out
        restored = DetectionReport.from_json(out.read_text())
        assert restored.is_secure


class TestRunBenchmark:
    def test_trojaned_benchmark_detected(self, capsys):
        assert main(["run", "--benchmark", "AES-T1400"]) == 1
        assert "init property" in capsys.readouterr().out

    def test_benchmark_json_round_trips(self, capsys):
        assert main(["run", "--benchmark", "AES-T1400", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["design"] == "AES-T1400"
        assert DetectionReport.from_dict(data).to_dict() == data

    def test_unknown_benchmark_reports_error(self, capsys):
        assert main(["run", "--benchmark", "AES-T0"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_check_all_flag(self, capsys):
        assert main(["run", "--benchmark", "AES-T2500", "--check-all"]) == 1

    def test_max_class_flag(self, capsys):
        # Truncating the flow checks fewer properties; the structural coverage
        # check still passes, so the clean design stays secure.
        assert main(["run", "--benchmark", "RS232-HT-FREE", "--max-class", "1",
                     "--verbose"]) == 0
        assert "fanout property" not in capsys.readouterr().out


class TestListBenchmarks:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        output = capsys.readouterr().out
        assert "AES-T1400" in output and "BasicRSA-T300" in output and "RS232-T2400" in output

    def test_family_filter(self, capsys):
        assert main(["list-benchmarks", "--family", "RS232"]) == 0
        output = capsys.readouterr().out
        assert "RS232-T2400" in output and "AES-T1400" not in output

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["list-benchmarks", "--family", "Z80"])


class TestBatch:
    def test_batch_clean_designs(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "BasicRSA-HT-FREE"]) == 0
        output = capsys.readouterr().out
        assert "2 design(s)" in output and "secure" in output

    def test_batch_flags_trojans(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "RS232-T2400"]) == 1
        assert "trojan-suspected" in capsys.readouterr().out

    def test_batch_family_selection(self, capsys):
        assert main(["batch", "--family", "RS232", "--clean-only"]) == 0
        assert "RS232-HT-FREE" in capsys.readouterr().out

    def test_batch_needs_a_selection(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch"])

    def test_batch_json(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION
        assert len(data["reports"]) == 1

    def test_batch_duplicate_names_deduplicated(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "RS232-HT-FREE"]) == 0
        assert "1 design(s)" in capsys.readouterr().out


class TestExecutionFlags:
    def test_jobs_flag_runs_parallel(self, clean_file, capsys):
        assert main(["run", "--verilog", clean_file, "--top", "widget",
                     "--jobs", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # The report carries *effective* parallelism: this one-class design
        # produces a single shard, so only one worker ever runs.
        assert data["execution"]["workers"] == 1

    def test_cache_dir_warm_rerun_reports_hits(self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        base = ["run", "--verilog", clean_file, "--top", "widget",
                "--cache-dir", cache_dir, "--json"]
        assert main(base) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["execution"]["cache_hits"] == 0
        assert cold["execution"]["cache_misses"] > 0
        assert main(base) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["execution"]["cache_hits"] == cold["execution"]["cache_misses"]
        assert warm["solver"]["calls"] == 0

    def test_no_cache_bypasses_a_warm_cache(self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        base = ["run", "--verilog", clean_file, "--top", "widget",
                "--cache-dir", cache_dir, "--json"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--no-cache"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["execution"]["cache_hits"] == 0

    def test_batch_jobs_flag(self, capsys):
        assert main(["batch", "RS232-HT-FREE", "--jobs", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["execution"]["workers"] == 2

    def test_cache_stats_and_clear(self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "--verilog", clean_file, "--top", "widget",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_requires_an_action_and_dir(self):
        with pytest.raises(SystemExit):
            main(["cache"])
        with pytest.raises(SystemExit):
            main(["cache", "stats"])

    @pytest.mark.parametrize(
        "flag", [["--no-split"], ["--split-conflicts", "5"], ["--split-depth", "2"]]
    )
    def test_retired_split_flags_are_usage_errors(self, clean_file, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--verilog", clean_file, "--top", "widget", *flag])
        assert excinfo.value.code == 2

    def test_submission_overlay_loads_back_into_the_same_config(self):
        from repro.api import DetectionConfig
        from repro.cli import _submission_config_dict

        args = build_parser().parse_args(
            ["submit", "--benchmark", "AES-T100", "--waive", "x", "--check-all"]
        )
        overlay = _submission_config_dict(args)
        loaded = DetectionConfig.from_dict(json.loads(json.dumps(overlay)))
        assert loaded.to_dict() == {**DetectionConfig().to_dict(), **overlay}
        assert not loaded.stop_at_first_failure
        assert loaded.waived_signals() == ["x"]


class TestReportSubcommand:
    def test_report_renders_saved_run(self, trojaned_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--verilog", trojaned_file, "--top", "widget", "--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        assert "TROJAN-SUSPECTED" in capsys.readouterr().out

    def test_report_renders_saved_batch(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        main(["batch", "RS232-HT-FREE", "--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "1 design(s)" in capsys.readouterr().out

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/report.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        assert main(["report", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_wrong_schema_version(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 999, "design": "x", "verdict": "secure"}))
        assert main(["report", str(path)]) == 2
        assert "schema_version" in capsys.readouterr().err
