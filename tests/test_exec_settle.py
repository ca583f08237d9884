"""Tests for the one settle path of the execution subsystem.

Every property class is settled by exactly one route: the scheduler shards
the classes into :class:`ChunkTask` s, submits all of them once up front,
and each worker runs :meth:`DesignWorkContext.run_chunk`, which calls
``settle_class`` per index.  Results cross the queue (and the result cache)
as ``"class"``-tagged records only.
"""

import json

import pytest

from repro.api import Design, DetectionConfig, DetectionSession
from repro.errors import ReproError
from repro.exec import ProcessPoolExecutor, SerialExecutor, WorkUnit
from repro.exec.records import (
    class_result_from_record,
    class_result_to_record,
    task_entry_from_record,
    task_entry_to_record,
)
from repro.exec.worker import DesignWorkContext
from repro.rtl import elaborate_source

CLEAN_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [7:0] s3;
  always @(posedge clk) begin
    s1 <= d ^ 8'h5a;
    s2 <= s1 + 8'h01;
    s3 <= s2 ^ 8'hc3;
  end
  assign q = s3;
endmodule
"""

TROJANED_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  reg [3:0] bomb;
  always @(posedge clk) begin
    stage <= d + 8'h1;
    bomb <= bomb + 4'h1;
  end
  assign q = (bomb == 4'hf) ? ~stage : stage;
endmodule
"""


def _all_indices(context):
    """The init class (index 0) followed by every fanout class."""
    return [0, *sorted(context.analysis.classes)]


def _context(source=CLEAN_SOURCE, **config_overrides):
    unit = WorkUnit(
        key="k0",
        name="widget",
        module=elaborate_source(source, "widget"),
        config=DetectionConfig(**config_overrides),
    )
    return DesignWorkContext(unit)


@pytest.fixture(scope="module")
def trojan_results():
    """Every class of the trojaned design, settled without stopping early."""
    context = _context(TROJANED_SOURCE)
    results, _stats = context.run_chunk(_all_indices(context), stop_on_failure=False)
    return results


def _events_payload(result):
    return [type(event).__name__ for event in result.events()]


class TestRunChunk:
    def test_classes_settle_in_index_order(self):
        context = _context()
        indices = _all_indices(context)
        results, stats = context.run_chunk(indices, stop_on_failure=False)
        assert [result.index for result in results] == indices
        assert all(result.outcome.holds for result in results)
        assert stats["elapsed_s"] >= 0.0 and "solver_calls" in stats

    def test_stop_on_failure_truncates_the_chunk(self, trojan_results):
        failing = [r.index for r in trojan_results if not r.outcome.holds]
        assert failing, "the trojaned design must fail some class"
        context = _context(TROJANED_SOURCE)
        indices = [r.index for r in trojan_results]
        results, _stats = context.run_chunk(indices, stop_on_failure=True)
        assert [r.index for r in results] == indices[: indices.index(failing[0]) + 1]
        assert not results[-1].outcome.holds

    def test_settle_class_equals_a_chunk_of_one(self, trojan_results):
        for expected in trojan_results:
            alone = _context(TROJANED_SOURCE).settle_class(expected.index)
            assert alone.terminal == expected.terminal
            assert alone.outcome.holds == expected.outcome.holds
            assert _events_payload(alone) == _events_payload(expected)


class TestClassTransport:
    def test_task_entry_round_trips_through_json(self, trojan_results):
        for result in trojan_results:
            record = json.loads(json.dumps(task_entry_to_record(result)))
            assert record["entry"] == "class"
            restored = task_entry_from_record("widget", record)
            assert class_result_to_record(restored) == class_result_to_record(result)
            assert _events_payload(restored) == _events_payload(result)

    def test_untagged_record_is_read_as_a_class_record(self, trojan_results):
        record = class_result_to_record(trojan_results[0])
        assert "entry" not in record
        restored = task_entry_from_record("widget", record)
        assert restored.index == trojan_results[0].index

    @pytest.mark.parametrize("tag", ["split", "chunk", ""])
    def test_any_other_entry_tag_is_rejected(self, trojan_results, tag):
        record = {**task_entry_to_record(trojan_results[0]), "entry": tag}
        with pytest.raises(ReproError, match="unknown task entry tag"):
            task_entry_from_record("widget", record)

    def test_unknown_terminal_is_rejected(self, trojan_results):
        record = {**class_result_to_record(trojan_results[0]), "terminal": "unknown"}
        with pytest.raises(ReproError, match="unknown terminal kind"):
            class_result_from_record("widget", record)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda record: record.pop("outcome"),
            lambda record: record.pop("terminal"),
            lambda record: record.update(rounds=[None]),
        ],
        ids=["missing-outcome", "missing-terminal", "null-round"],
    )
    def test_malformed_record_is_a_repro_error(self, trojan_results, corrupt):
        record = class_result_to_record(trojan_results[0])
        corrupt(record)
        with pytest.raises(ReproError):
            class_result_from_record("widget", record)


class TestSubmitOnce:
    @pytest.mark.parametrize(
        "jobs, executor_class",
        [(1, SerialExecutor), (2, ProcessPoolExecutor)],
        ids=["serial", "pool"],
    )
    def test_every_class_is_submitted_once_up_front(
        self, monkeypatch, jobs, executor_class
    ):
        calls = []
        original = executor_class.submit

        def recording_submit(self, tasks):
            calls.append(list(tasks))
            return original(self, tasks)

        monkeypatch.setattr(executor_class, "submit", recording_submit)
        design = Design.from_source(CLEAN_SOURCE, top="widget")
        report = DetectionSession(
            design, config=DetectionConfig(jobs=jobs, use_cache=False)
        ).run()
        assert len(calls) == 1
        (tasks,) = calls
        assert len({task.task_id for task in tasks}) == len(tasks)
        submitted = sorted(index for task in tasks for index in task.indices)
        assert submitted == [outcome.index for outcome in report.outcomes]
