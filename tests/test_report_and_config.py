"""Tests for configuration objects, report rendering/serialization and errors."""

import json

import pytest

from repro.core import DetectionConfig, Verdict, Waiver, detect_trojans
from repro.core.report import SCHEMA_VERSION, DetectionReport
from repro.errors import (
    BitblastError,
    ConfigError,
    DesignError,
    ElaborationError,
    PropertyError,
    ReproError,
    SimulationError,
    SolverError,
    UnsupportedFeatureError,
    VerilogSyntaxError,
)


class TestDetectionConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.cumulative_assumptions
        assert config.assume_inputs_at_prove_time
        assert config.stop_at_first_failure
        assert config.inputs is None
        assert config.waivers == []

    def test_waived_signals(self):
        config = DetectionConfig(waivers=[Waiver("a"), Waiver("b", "why")])
        assert config.waived_signals() == ["a", "b"]

    def test_with_waivers_returns_extended_copy(self):
        base = DetectionConfig(waivers=[Waiver("a")])
        extended = base.with_waivers("b", "c", reason="review")
        assert base.waived_signals() == ["a"]
        assert extended.waived_signals() == ["a", "b", "c"]
        assert extended.waivers[-1].reason == "review"

    def test_with_waivers_preserves_execution_settings(self):
        base = DetectionConfig(jobs=4, cache_dir="/tmp/c", use_cache=False)
        extended = base.with_waivers("x")
        assert extended.jobs == 4
        assert extended.cache_dir == "/tmp/c"
        assert not extended.use_cache

    def test_execution_defaults(self):
        config = DetectionConfig()
        assert config.jobs == 1
        assert config.cache_dir is None
        assert config.use_cache

    def test_from_dict_drops_only_the_retired_split_fields(self):
        # Submission overlays and journaled queue entries written before
        # conflict-budgeted splitting was removed carry its three knobs.
        overlay = DetectionConfig().to_dict()
        for knob in ("jobs", "cache_dir", "use_cache", "trace", "task_retries"):
            del overlay[knob]
        overlay.update(split=True, split_conflicts=20000, split_depth=2)
        assert DetectionConfig.from_dict(overlay) == DetectionConfig()
        with pytest.raises(ConfigError, match="split_budget"):
            DetectionConfig.from_dict({**overlay, "split_budget": 100})

    @pytest.mark.parametrize(
        "key, value",
        [("split", False), ("split_conflicts", 5), ("split_depth", 10)],
    )
    def test_each_retired_field_is_dropped_on_its_own(self, key, value):
        # Dropping a retired key leaves the keys beside it in effect.
        loaded = DetectionConfig.from_dict({"sim_patterns": 32, key: value})
        assert loaded == DetectionConfig(sim_patterns=32)

    @pytest.mark.parametrize(
        "key", ["split_budget", "splits", "split_conflict", "no_split"]
    )
    def test_near_misses_of_retired_fields_still_raise(self, key):
        with pytest.raises(ConfigError, match=f"unknown config field\\(s\\) {key}"):
            DetectionConfig.from_dict({key: 1})

    def test_retired_fields_are_neither_fields_nor_serialized(self):
        import dataclasses

        from repro.core.config import RETIRED_FIELDS

        names = {field.name for field in dataclasses.fields(DetectionConfig)}
        assert len(names) == 21
        assert not RETIRED_FIELDS & names
        assert not RETIRED_FIELDS & set(DetectionConfig().to_dict())
        with pytest.raises(TypeError):
            DetectionConfig(split=True)

    def test_waiver_is_frozen(self):
        waiver = Waiver("x")
        with pytest.raises(Exception):
            waiver.signal = "y"  # type: ignore[misc]


class TestConfigValidation:
    """Misconfiguration fails at construction, not mid-run."""

    def test_unknown_solver_backend(self):
        with pytest.raises(ConfigError, match="unknown solver backend"):
            DetectionConfig(solver_backend="z3")

    def test_known_backends_accepted(self):
        assert DetectionConfig(solver_backend="auto").solver_backend == "auto"
        assert DetectionConfig(solver_backend="python").solver_backend == "python"

    def test_negative_max_class(self):
        with pytest.raises(ConfigError, match="max_class"):
            DetectionConfig(max_class=-1)
        assert DetectionConfig(max_class=0).max_class == 0

    def test_empty_input_name(self):
        with pytest.raises(ConfigError, match="non-empty"):
            DetectionConfig(inputs=["a", ""])

    def test_whitespace_input_name(self):
        with pytest.raises(ConfigError, match="whitespace"):
            DetectionConfig(inputs=[" a "])

    def test_duplicate_input_name(self):
        with pytest.raises(ConfigError, match="duplicate"):
            DetectionConfig(inputs=["a", "b", "a"])

    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)

    def test_invalid_jobs(self):
        with pytest.raises(ConfigError, match="jobs"):
            DetectionConfig(jobs=0)
        with pytest.raises(ConfigError, match="jobs"):
            DetectionConfig(jobs=-2)
        assert DetectionConfig(jobs=8).jobs == 8

    def test_empty_cache_dir(self):
        with pytest.raises(ConfigError, match="cache_dir"):
            DetectionConfig(cache_dir="   ")
        assert DetectionConfig(cache_dir="/tmp/cache").cache_dir == "/tmp/cache"

    @pytest.mark.parametrize("field", ["jobs", "max_class", "depth"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected_for_integer_fields(self, field, value):
        # bool is a subclass of int: jobs=True used to slip through the
        # isinstance(jobs, int) check and silently run with 1 worker.
        with pytest.raises(ConfigError, match=field):
            DetectionConfig(**{field: value})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown detection mode"):
            DetectionConfig(mode="temporal")
        assert DetectionConfig(mode="sequential").mode == "sequential"
        assert DetectionConfig().mode == "combinational"

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigError, match="depth"):
            DetectionConfig(depth=0)
        with pytest.raises(ConfigError, match="depth"):
            DetectionConfig(depth=-3)
        assert DetectionConfig(depth=25).depth == 25

    def test_reset_values_validated(self):
        with pytest.raises(ConfigError, match="reset_values"):
            DetectionConfig(reset_values=[("count", 1)])
        with pytest.raises(ConfigError, match="register names"):
            DetectionConfig(reset_values={"": 1})
        with pytest.raises(ConfigError, match="reset value"):
            DetectionConfig(reset_values={"count": "3"})
        with pytest.raises(ConfigError, match="reset value"):
            DetectionConfig(reset_values={"count": True})
        assert DetectionConfig(reset_values={"count": 4}).reset_values == {"count": 4}


def _downgrade_to_v1(data):
    # v2 only added the execution block, so v1 documents stay readable
    # with execution defaults filled in.
    del data["execution"]


def _downgrade_to_v8(data):
    # v9 only dropped the per-outcome split counters of v7/v8.
    for outcome in data["outcomes"]:
        outcome.update(cubes=4, cubes_cached=1)


class TestReportSerialization:
    def test_secure_report_json_round_trip(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        data = report.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        restored = DetectionReport.from_dict(json.loads(report.to_json()))
        assert restored.to_dict() == data
        assert restored.verdict is Verdict.SECURE
        assert restored.design == report.design

    def test_failing_report_round_trips_cex_and_diagnosis(self, trojaned_module):
        report = detect_trojans(trojaned_module)
        restored = DetectionReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.trojan_detected
        assert restored.counterexample is not None
        assert restored.counterexample.failing_signals == report.counterexample.failing_signals
        assert restored.counterexample.values == report.counterexample.values
        assert restored.diagnosis is not None
        assert [c.signal for c in restored.diagnosis.causes] == [
            c.signal for c in report.diagnosis.causes
        ]

    def test_round_trip_preserves_summary_queries(self, trojaned_module):
        report = detect_trojans(trojaned_module)
        restored = DetectionReport.from_json(report.to_json())
        assert restored.property_runtimes() == report.property_runtimes()
        assert restored.solver_stats() == report.solver_stats()
        assert restored.failing_outcome().label == report.failing_outcome().label
        assert restored.summary()  # renders without the original objects

    def test_uncovered_report_round_trips_coverage(self, uncovered_trojan_module):
        report = detect_trojans(uncovered_trojan_module)
        assert report.verdict is Verdict.UNCOVERED_SIGNALS
        restored = DetectionReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.coverage.uncovered == report.coverage.uncovered

    def test_fanout_analysis_round_trips(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        restored = DetectionReport.from_json(report.to_json())
        assert restored.fanout_analysis.classes == report.fanout_analysis.classes
        assert restored.fanout_analysis.placement == report.fanout_analysis.placement

    def test_from_dict_rejects_unknown_version(self, pipeline_module):
        data = detect_trojans(pipeline_module).to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema_version"):
            DetectionReport.from_dict(data)

    @pytest.mark.parametrize(
        "version, downgrade",
        [(1, _downgrade_to_v1), (8, _downgrade_to_v8)],
        ids=["v1", "v8"],
    )
    def test_old_reports_still_load(self, pipeline_module, version, downgrade):
        current = detect_trojans(pipeline_module).to_dict()
        data = json.loads(json.dumps(current))
        data["schema_version"] = version
        downgrade(data)
        restored = DetectionReport.from_dict(data)
        assert restored.verdict is Verdict.SECURE
        assert restored.workers == 1
        assert restored.cache_hits == 0 and restored.cache_misses == 0
        # Re-serializing yields the current schema, without retired keys.
        assert restored.to_dict() == current

    def test_from_dict_rejects_missing_version(self):
        with pytest.raises(ReproError, match="schema_version"):
            DetectionReport.from_dict({"design": "x", "verdict": "secure"})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ReproError, match="dict"):
            DetectionReport.from_dict(["not", "a", "report"])

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReproError, match="JSON"):
            DetectionReport.from_json("this is not json")

    def test_from_dict_rejects_malformed_payload(self):
        with pytest.raises(ReproError, match="malformed"):
            DetectionReport.from_dict({"schema_version": SCHEMA_VERSION, "verdict": "secure"})

    def test_execution_block_round_trips(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        report.workers = 4
        report.cache_hits = 2
        report.cache_misses = 3
        report.workers_lost = 1
        report.tasks_retried = 2
        data = report.to_dict()
        assert data["execution"] == {
            "workers": 4,
            "cache_hits": 2,
            "cache_misses": 3,
            "workers_lost": 1,
            "tasks_retried": 2,
        }
        restored = DetectionReport.from_dict(data)
        assert restored.workers == 4
        assert restored.cache_hits == 2 and restored.cache_misses == 3
        assert restored.workers_lost == 1 and restored.tasks_retried == 2
        assert restored.to_dict() == data

    def test_summary_mentions_cache_activity(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        report.cache_hits = 2
        assert "result cache" in report.summary()


class TestDetectionReport:
    def test_report_fields_for_secure_run(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        assert isinstance(report, DetectionReport)
        assert report.design == "pipe"
        assert report.verdict is Verdict.SECURE
        assert report.failing_outcome() is None
        assert str(report)

    def test_property_runtime_map_labels(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        labels = set(report.property_runtimes())
        assert labels == {"init property", "fanout property 1"}

    def test_summary_mentions_spurious_when_present(self, pipeline_module):
        report = detect_trojans(pipeline_module)
        report.spurious_resolved = 3
        assert "spurious" in report.summary()

    def test_verdict_str(self):
        assert str(Verdict.SECURE) == "secure"
        assert str(Verdict.TROJAN_SUSPECTED) == "trojan-suspected"

    def test_outcome_labels(self, trojaned_module):
        report = detect_trojans(trojaned_module)
        assert report.outcomes[0].label == "init property"
        assert report.outcomes[-1].label.startswith("fanout property")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            VerilogSyntaxError,
            ElaborationError,
            UnsupportedFeatureError,
            BitblastError,
            SolverError,
            PropertyError,
            SimulationError,
            DesignError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_syntax_error_carries_location(self):
        error = VerilogSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error) and "col 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_syntax_error_without_location(self):
        assert "bad" in str(VerilogSyntaxError("bad"))
