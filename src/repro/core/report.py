"""Verdicts and detection reports produced by the flow.

Reports are serializable: :meth:`DetectionReport.to_dict` produces a
JSON-native dict stamped with :data:`SCHEMA_VERSION`, and
:meth:`DetectionReport.from_dict` reconstructs a report such that
``from_dict(to_dict(r)).to_dict() == to_dict(r)`` — the round-trip contract
the CLI's ``--json`` output and the ``report`` subcommand rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.core.coverage import CoverageResult
from repro.core.falsealarm import Cause, CauseKind, CexDiagnosis
from repro.errors import ReproError
from repro.ipc.cex import CounterExample
from repro.ipc.engine import PropertyCheckResult
from repro.ipc.prop import IntervalProperty
from repro.rtl.fanout import FanoutAnalysis

#: Version of the serialized report schema.  Bump on any incompatible change
#: to the dict layout; ``from_dict`` refuses versions it does not know.
#: v2: added the per-run ``execution`` block (workers, cache_hits,
#: cache_misses) emitted by the parallel execution subsystem.
#: v3: added the per-outcome sequential-mode fields ``depth_reached`` and
#: ``first_divergence_cycle`` (null for combinational outcomes).
#: v4: added the per-run ``preprocess`` block (nodes_before, nodes_after,
#: merged_nodes, sim_falsified, sweep_s) and the per-outcome preprocessing
#: telemetry of the simulation-guided simplification subsystem.
#: v5: added the CDCL search-dynamics counters to the ``solver`` block
#: (restarts, learned_clauses, deleted_clauses).
#: v6: added the optional ``profile`` block (per-phase wall-time breakdown
#: aggregated from spans; null unless the run was traced).
#: v7: added two per-outcome split-telemetry counters (0 for classes
#: settled monolithically).
#: v8: added the per-outcome ``status`` ("ok" / "timeout" / "error"), the
#: ``inconclusive`` verdict, and the fault-tolerance counters
#: ``execution.workers_lost`` / ``execution.tasks_retried``.
#: v9: removed the v7 split-telemetry counters (conflict-budgeted splitting
#: is gone; every class settles monolithically).
SCHEMA_VERSION = 9

#: Versions ``from_dict`` can still read.  Older versions are accepted
#: because v2..v8 are purely additive (missing blocks and fields default
#: when absent), and the only keys v9 dropped — the v7 split counters —
#: are ignored on read.
READABLE_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8, 9)


def check_schema_version(data: Dict[str, Any], what: str = "report") -> None:
    """Raise :class:`ReproError` unless ``data`` has a readable version."""
    version = data.get("schema_version")
    if version not in READABLE_SCHEMA_VERSIONS:
        readable = ", ".join(str(v) for v in READABLE_SCHEMA_VERSIONS)
        raise ReproError(
            f"unsupported {what} schema_version {version!r} "
            f"(this library reads versions {readable})"
        )


def execution_summary_line(workers: int, cache_hits: int, cache_misses: int) -> Optional[str]:
    """The shared ``execution: ...`` summary line, or None when unremarkable."""
    if workers <= 1 and not cache_hits and not cache_misses:
        return None
    cache_note = (
        f", result cache: {cache_hits} hit(s) / {cache_misses} miss(es)"
        if (cache_hits or cache_misses)
        else ""
    )
    return f"  execution: {workers} worker(s){cache_note}"


class Verdict(Enum):
    """Overall outcome of a detection run.

    ``INCONCLUSIVE`` is the fail-closed degradation of ``SECURE``: at least
    one property class could not be settled (its worker was quarantined or
    its check hit the wall-clock deadline) and nothing else failed.  Like
    every non-``SECURE`` verdict it keeps :attr:`DetectionReport.trojan_detected`
    true — an unproven design is never reported clean.
    """

    SECURE = "secure"
    TROJAN_SUSPECTED = "trojan-suspected"
    UNCOVERED_SIGNALS = "uncovered-signals"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class PropertyOutcome:
    """Result of one property of the iterative flow."""

    kind: str  # "init", "fanout", or "sequential"
    index: int  # 0 for the init property, k for fanout_property_k /
    #            the k-th output class of the sequential mode
    result: PropertyCheckResult
    diagnosis: Optional[CexDiagnosis] = None
    # Number of spurious counterexamples that were resolved by re-verification
    # with strengthened assumptions (Sec. V-B scenario 1) before this result.
    resolved_spurious: int = 0
    # Sequential-mode bookkeeping (None for combinational outcomes): the
    # unrolling bound this class was checked to, and the earliest cycle at
    # which the design diverged from the golden model (None when it held).
    depth_reached: Optional[int] = None
    first_divergence_cycle: Optional[int] = None
    # How the class settled: "ok" (a real verdict), "timeout" (the check
    # exceeded ``check_timeout_s``; ``result`` carries partial telemetry),
    # or "error" (the task's worker died repeatedly and was quarantined).
    # Anything but "ok" makes the class inconclusive — ``holds`` stays True
    # only in the sense of "not falsified", and the run verdict degrades to
    # ``Verdict.INCONCLUSIVE`` unless a real failure outranks it.
    status: str = "ok"

    @property
    def label(self) -> str:
        if self.kind == "init":
            return "init property"
        if self.kind == "sequential":
            return f"sequential property {self.index}"
        return f"fanout property {self.index}"

    @property
    def holds(self) -> bool:
        return self.result.holds


@dataclass
class DetectionReport:
    """Complete, machine-readable result of a detection run (Algorithm 1)."""

    design: str
    verdict: Verdict
    detected_by: Optional[str] = None
    outcomes: List[PropertyOutcome] = field(default_factory=list)
    counterexample: Optional[CounterExample] = None
    diagnosis: Optional[CexDiagnosis] = None
    coverage: Optional[CoverageResult] = None
    fanout_analysis: Optional[FanoutAnalysis] = None
    total_runtime_seconds: float = 0.0
    spurious_resolved: int = 0
    # Incremental-solving statistics of the run's shared solver context.
    # The restart/learned/deleted counters expose the CDCL search dynamics
    # (Luby restarts, learned-clause retention and glue-aware reduction);
    # all solver counters live in the report's "solver" block, which the
    # determinism comparisons strip wholesale (see
    # :func:`repro.exec.records.normalized_report_dict`).
    solver_backend: str = ""
    solver_calls: int = 0
    solver_conflicts: int = 0
    solver_restarts: int = 0
    solver_learned_clauses: int = 0
    solver_deleted_clauses: int = 0
    cnf_clauses: int = 0
    cnf_clauses_reused: int = 0
    # Execution-subsystem statistics: worker-process count of the run, how
    # many classes replayed from / were written to the result cache, and the
    # fault-tolerance counters (worker processes that died mid-run, tasks
    # requeued onto respawned workers).
    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    workers_lost: int = 0
    tasks_retried: int = 0
    # Preprocessing statistics of the simulation-guided simplification
    # subsystem (:mod:`repro.aig` simvec/simplify/fraig), aggregated over
    # the run's outcomes: miter-cone sizes before/after sweeping, proven
    # node merges, classes falsified by random simulation alone (zero CDCL
    # calls), and the total preprocessing wall time.
    preprocess_nodes_before: int = 0
    preprocess_nodes_after: int = 0
    preprocess_merged_nodes: int = 0
    preprocess_sim_falsified: int = 0
    preprocess_sweep_s: float = 0.0
    # Per-phase wall-time breakdown aggregated from the run's spans (see
    # :func:`repro.obs.trace.phase_profile`).  None unless the run was
    # traced; stripped by the determinism comparisons like every other
    # timing field.
    profile: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Convenience queries
    # ------------------------------------------------------------------ #

    @property
    def is_secure(self) -> bool:
        return self.verdict is Verdict.SECURE

    @property
    def trojan_detected(self) -> bool:
        """True when the run flags the design (property failure or coverage gap)."""
        return self.verdict is not Verdict.SECURE

    def properties_checked(self) -> int:
        return len(self.outcomes)

    def property_runtimes(self) -> Dict[str, float]:
        return {outcome.label: outcome.result.runtime_seconds for outcome in self.outcomes}

    def max_property_runtime(self) -> float:
        runtimes = [outcome.result.runtime_seconds for outcome in self.outcomes]
        return max(runtimes) if runtimes else 0.0

    def failing_outcome(self) -> Optional[PropertyOutcome]:
        for outcome in self.outcomes:
            if not outcome.holds:
                return outcome
        return None

    def solver_stats(self) -> Dict[str, int]:
        """Clause-reuse accounting of the run's shared solver context."""
        new_clauses = sum(outcome.result.cnf_new_clauses for outcome in self.outcomes)
        return {
            "solver_calls": self.solver_calls,
            "conflicts": self.solver_conflicts,
            "restarts": self.solver_restarts,
            "learned_clauses": self.solver_learned_clauses,
            "deleted_clauses": self.solver_deleted_clauses,
            "clauses_encoded": self.cnf_clauses,
            "clauses_new": new_clauses,
            "clauses_reused": self.cnf_clauses_reused,
        }

    # ------------------------------------------------------------------ #
    # Serialization (schema_version = SCHEMA_VERSION)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict of the complete report, stamped with the schema version."""
        return {
            "schema_version": SCHEMA_VERSION,
            "design": self.design,
            "verdict": self.verdict.value,
            "detected_by": self.detected_by,
            "total_runtime_seconds": self.total_runtime_seconds,
            "spurious_resolved": self.spurious_resolved,
            "solver": {
                "backend": self.solver_backend,
                "calls": self.solver_calls,
                "conflicts": self.solver_conflicts,
                "restarts": self.solver_restarts,
                "learned_clauses": self.solver_learned_clauses,
                "deleted_clauses": self.solver_deleted_clauses,
                "cnf_clauses": self.cnf_clauses,
                "cnf_clauses_reused": self.cnf_clauses_reused,
            },
            "execution": {
                "workers": self.workers,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "workers_lost": self.workers_lost,
                "tasks_retried": self.tasks_retried,
            },
            "preprocess": {
                "nodes_before": self.preprocess_nodes_before,
                "nodes_after": self.preprocess_nodes_after,
                "merged_nodes": self.preprocess_merged_nodes,
                "sim_falsified": self.preprocess_sim_falsified,
                "sweep_s": self.preprocess_sweep_s,
            },
            "profile": self.profile,
            "outcomes": [_outcome_to_dict(outcome) for outcome in self.outcomes],
            "counterexample": _cex_to_dict(self.counterexample),
            "diagnosis": _diagnosis_to_dict(self.diagnosis),
            "coverage": _coverage_to_dict(self.coverage),
            "fanout_analysis": _fanout_to_dict(self.fanout_analysis),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The report as a JSON document (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DetectionReport":
        """Reconstruct a report from :meth:`to_dict` output.

        Raises :class:`repro.errors.ReproError` on a missing or unsupported
        ``schema_version`` so that consumers fail loudly on foreign data.
        """
        if not isinstance(data, dict):
            raise ReproError(f"serialized report must be a dict, got {type(data).__name__}")
        check_schema_version(data)
        try:
            verdict = Verdict(data["verdict"])
            solver = data.get("solver", {})
            execution = data.get("execution", {})
            preprocess = data.get("preprocess", {})
            report = cls(
                design=data["design"],
                verdict=verdict,
                detected_by=data.get("detected_by"),
                outcomes=[_outcome_from_dict(entry) for entry in data.get("outcomes", [])],
                counterexample=_cex_from_dict(data.get("counterexample")),
                diagnosis=_diagnosis_from_dict(data.get("diagnosis")),
                coverage=_coverage_from_dict(data.get("coverage")),
                fanout_analysis=_fanout_from_dict(data.get("fanout_analysis")),
                total_runtime_seconds=data.get("total_runtime_seconds", 0.0),
                spurious_resolved=data.get("spurious_resolved", 0),
                solver_backend=solver.get("backend", ""),
                solver_calls=solver.get("calls", 0),
                solver_conflicts=solver.get("conflicts", 0),
                solver_restarts=solver.get("restarts", 0),
                solver_learned_clauses=solver.get("learned_clauses", 0),
                solver_deleted_clauses=solver.get("deleted_clauses", 0),
                cnf_clauses=solver.get("cnf_clauses", 0),
                cnf_clauses_reused=solver.get("cnf_clauses_reused", 0),
                workers=execution.get("workers", 1),
                cache_hits=execution.get("cache_hits", 0),
                cache_misses=execution.get("cache_misses", 0),
                workers_lost=execution.get("workers_lost", 0),
                tasks_retried=execution.get("tasks_retried", 0),
                preprocess_nodes_before=preprocess.get("nodes_before", 0),
                preprocess_nodes_after=preprocess.get("nodes_after", 0),
                preprocess_merged_nodes=preprocess.get("merged_nodes", 0),
                preprocess_sim_falsified=preprocess.get("sim_falsified", 0),
                preprocess_sweep_s=preprocess.get("sweep_s", 0.0),
                profile=data.get("profile"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(f"malformed serialized report: {error}") from error
        return report

    @classmethod
    def from_json(cls, text: str) -> "DetectionReport":
        """Reconstruct a report from a :meth:`to_json` document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"report is not valid JSON: {error}") from error
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def summary(self) -> str:
        lines = [f"design {self.design}: {self.verdict.value.upper()}"]
        if self.detected_by:
            lines.append(f"  detected by: {self.detected_by}")
        failing = self.failing_outcome()
        if failing is not None and failing.first_divergence_cycle is not None:
            lines.append(
                f"  first divergence from the golden model at cycle "
                f"{failing.first_divergence_cycle} (bound {failing.depth_reached})"
            )
        lines.append(
            f"  properties checked: {self.properties_checked()}"
            f" (max proof runtime {self.max_property_runtime():.2f} s,"
            f" total {self.total_runtime_seconds:.2f} s)"
        )
        if self.spurious_resolved:
            lines.append(f"  spurious counterexamples resolved: {self.spurious_resolved}")
        execution_line = execution_summary_line(self.workers, self.cache_hits, self.cache_misses)
        if execution_line is not None:
            lines.append(execution_line)
        if self.workers_lost or self.tasks_retried:
            lines.append(
                f"  faults: {self.workers_lost} worker(s) lost, "
                f"{self.tasks_retried} task retry(ies)"
            )
        unsettled = [outcome for outcome in self.outcomes if outcome.status != "ok"]
        if unsettled:
            kinds = ", ".join(
                f"{outcome.label} ({outcome.status})" for outcome in unsettled
            )
            lines.append(f"  unsettled classes: {kinds}")
        if self.preprocess_sim_falsified or self.preprocess_merged_nodes:
            lines.append(
                f"  preprocess: {self.preprocess_sim_falsified} class(es) "
                f"falsified by simulation, {self.preprocess_merged_nodes} "
                f"node(s) merged by sweeping "
                f"({self.preprocess_nodes_before} -> "
                f"{self.preprocess_nodes_after} cone nodes, "
                f"{self.preprocess_sweep_s:.2f} s)"
            )
        if self.profile:
            lines.append(
                f"  phases: frontend {self.profile.get('frontend_s', 0.0):.2f} s"
                f" / preprocess {self.profile.get('preprocess_s', 0.0):.2f} s"
                f" / solve {self.profile.get('solve_s', 0.0):.2f} s"
                f" (spans total {self.profile.get('total_s', 0.0):.2f} s)"
            )
        if self.solver_calls:
            stats = self.solver_stats()
            lines.append(
                f"  solver ({self.solver_backend}): {stats['solver_calls']} calls,"
                f" {stats['clauses_new']} new / {stats['clauses_reused']} reused clauses,"
                f" {stats['conflicts']} conflicts, {stats['restarts']} restarts,"
                f" {stats['learned_clauses']} learned /"
                f" {stats['deleted_clauses']} deleted"
            )
        if self.coverage is not None and not self.coverage.complete:
            lines.append("  " + self.coverage.summary().replace("\n", "\n  "))
        if self.counterexample is not None:
            lines.append("  " + self.counterexample.format().replace("\n", "\n  "))
        if self.diagnosis is not None:
            lines.append("  " + self.diagnosis.summary().replace("\n", "\n  "))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


# ---------------------------------------------------------------------- #
# Serialization helpers (module-private; the public surface is
# DetectionReport.to_dict / from_dict).  Every producer emits only
# JSON-native values so that ``to_dict() == json.loads(to_json())``.
# ---------------------------------------------------------------------- #


def _outcome_to_dict(outcome: PropertyOutcome) -> Dict[str, Any]:
    result = outcome.result
    return {
        "kind": outcome.kind,
        "index": outcome.index,
        "property": result.prop.name,
        "holds": result.holds,
        "structurally_proven": result.structurally_proven,
        "runtime_seconds": result.runtime_seconds,
        "resolved_spurious": outcome.resolved_spurious,
        "sat_conflicts": result.sat_conflicts,
        "sat_decisions": result.sat_decisions,
        "merged_assumptions": result.merged_assumptions,
        "clause_assumptions": result.clause_assumptions,
        "cnf_new_clauses": result.cnf_new_clauses,
        "cnf_reused_clauses": result.cnf_reused_clauses,
        "solver_calls": result.solver_calls,
        "counterexample": _cex_to_dict(result.cex),
        "depth_reached": outcome.depth_reached,
        "first_divergence_cycle": outcome.first_divergence_cycle,
        "sim_falsified": result.sim_falsified,
        "nodes_before": result.nodes_before,
        "nodes_after": result.nodes_after,
        "merged_nodes": result.merged_nodes,
        "sweep_s": result.sweep_seconds,
        "status": outcome.status,
    }


def _outcome_from_dict(data: Dict[str, Any]) -> PropertyOutcome:
    # The property itself is not serialized (it is reconstructible from the
    # design and the class index); a named stub keeps labels and summaries
    # working on deserialized reports.
    result = PropertyCheckResult(
        prop=IntervalProperty(name=data["property"]),
        holds=data["holds"],
        cex=_cex_from_dict(data.get("counterexample")),
        structurally_proven=data.get("structurally_proven", False),
        runtime_seconds=data.get("runtime_seconds", 0.0),
        sat_conflicts=data.get("sat_conflicts", 0),
        sat_decisions=data.get("sat_decisions", 0),
        merged_assumptions=data.get("merged_assumptions", 0),
        clause_assumptions=data.get("clause_assumptions", 0),
        cnf_new_clauses=data.get("cnf_new_clauses", 0),
        cnf_reused_clauses=data.get("cnf_reused_clauses", 0),
        solver_calls=data.get("solver_calls", 0),
        sim_falsified=data.get("sim_falsified", False),
        nodes_before=data.get("nodes_before", 0),
        nodes_after=data.get("nodes_after", 0),
        merged_nodes=data.get("merged_nodes", 0),
        sweep_seconds=data.get("sweep_s", 0.0),
    )
    return PropertyOutcome(
        kind=data["kind"],
        index=data["index"],
        result=result,
        resolved_spurious=data.get("resolved_spurious", 0),
        depth_reached=data.get("depth_reached"),
        first_divergence_cycle=data.get("first_divergence_cycle"),
        status=data.get("status", "ok"),
    )


def _cex_to_dict(cex: Optional[CounterExample]) -> Optional[Dict[str, Any]]:
    if cex is None:
        return None
    return {
        "property_name": cex.property_name,
        "failing_signals": [
            [signal, time, left, right] for signal, time, left, right in cex.failing_signals
        ],
        "values": [
            [instance, time, signal, value]
            for (instance, time, signal), value in sorted(cex.values.items())
        ],
    }


def _cex_from_dict(data: Optional[Dict[str, Any]]) -> Optional[CounterExample]:
    if data is None:
        return None
    return CounterExample(
        property_name=data["property_name"],
        failing_signals=[
            (signal, time, left, right) for signal, time, left, right in data["failing_signals"]
        ],
        values={
            (instance, time, signal): value
            for instance, time, signal, value in data["values"]
        },
    )


def _diagnosis_to_dict(diagnosis: Optional[CexDiagnosis]) -> Optional[Dict[str, Any]]:
    if diagnosis is None:
        return None
    return {
        "property": diagnosis.prop.name,
        "failing_signals": list(diagnosis.failing_signals),
        "counterexample": _cex_to_dict(diagnosis.cex),
        "causes": [
            {
                "signal": cause.signal,
                "kind": cause.kind.value,
                "covered_class": cause.covered_class,
                "value_instance1": cause.value_instance1,
                "value_instance2": cause.value_instance2,
            }
            for cause in diagnosis.causes
        ],
    }


def _diagnosis_from_dict(data: Optional[Dict[str, Any]]) -> Optional[CexDiagnosis]:
    if data is None:
        return None
    return CexDiagnosis(
        prop=IntervalProperty(name=data["property"]),
        cex=_cex_from_dict(data.get("counterexample")),
        causes=[
            Cause(
                signal=entry["signal"],
                kind=CauseKind(entry["kind"]),
                covered_class=entry.get("covered_class"),
                value_instance1=entry.get("value_instance1"),
                value_instance2=entry.get("value_instance2"),
            )
            for entry in data.get("causes", [])
        ],
        failing_signals=list(data.get("failing_signals", [])),
    )


def _coverage_to_dict(coverage: Optional[CoverageResult]) -> Optional[Dict[str, Any]]:
    if coverage is None:
        return None
    return {
        "covered": sorted(coverage.covered),
        "uncovered": sorted(coverage.uncovered),
        "influence": {
            signal: sorted(influenced) for signal, influenced in sorted(coverage.influence.items())
        },
    }


def _coverage_from_dict(data: Optional[Dict[str, Any]]) -> Optional[CoverageResult]:
    if data is None:
        return None
    return CoverageResult(
        covered=set(data.get("covered", [])),
        uncovered=set(data.get("uncovered", [])),
        influence={signal: set(values) for signal, values in data.get("influence", {}).items()},
    )


def _fanout_to_dict(analysis: Optional[FanoutAnalysis]) -> Optional[Dict[str, Any]]:
    if analysis is None:
        return None
    return {
        "inputs": list(analysis.inputs),
        "classes": {str(k): sorted(signals) for k, signals in sorted(analysis.classes.items())},
        "distance": {signal: analysis.distance[signal] for signal in sorted(analysis.distance)},
        "placement": {signal: analysis.placement[signal] for signal in sorted(analysis.placement)},
        "uncovered": sorted(analysis.uncovered),
    }


def _fanout_from_dict(data: Optional[Dict[str, Any]]) -> Optional[FanoutAnalysis]:
    if data is None:
        return None
    return FanoutAnalysis(
        classes={int(k): set(signals) for k, signals in data.get("classes", {}).items()},
        distance=dict(data.get("distance", {})),
        uncovered=set(data.get("uncovered", [])),
        inputs=list(data.get("inputs", [])),
        placement=dict(data.get("placement", {})),
    )


# Public serialization surface: the execution subsystem's class-record
# round-trip (repro.exec.records) persists outcomes/counterexamples/
# diagnoses with exactly the report's JSON-native encoding, so these
# converters are part of the supported contract, not private helpers.
outcome_to_dict = _outcome_to_dict
outcome_from_dict = _outcome_from_dict
cex_to_dict = _cex_to_dict
cex_from_dict = _cex_from_dict
diagnosis_to_dict = _diagnosis_to_dict
diagnosis_from_dict = _diagnosis_from_dict
