"""Per-design work contexts: where property classes actually get settled.

This module is the compute kernel of the execution subsystem.  A
:class:`DesignWorkContext` owns everything one design needs to settle any of
its property classes — the elaborated module, the fanout analysis, the
dependency graph, and (crucially) one persistent :class:`IpcEngine` whose
shared AIG and incremental solver context survive across every class the
context settles.  Executors keep one context per design *per worker*, so
clause reuse survives inside a worker even when the scheduler shards a
design's classes across many workers.

:meth:`DesignWorkContext.settle_class` is the single-class port of the
scheduler loop that used to live inline in :mod:`repro.core.flow`: build the
property, try the cheap structural discharge, then run the SAT settle loop
with spurious-counterexample resolution (Sec. V-B scenario 1).  It returns a
:class:`repro.exec.records.ClassResult` — events and outcome bundled — which
is equally consumable in-process (serial executor) and across a process
boundary (record round-trip).
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aig.simvec import DEFAULT_PATTERNS
from repro.core.config import DetectionConfig
from repro.core.falsealarm import diagnose_counterexample
from repro.core.properties import build_fanout_property, build_init_property
from repro.core.report import PropertyOutcome, outcome_to_dict
from repro.core.unroll import SequentialUnroller, sequential_output_classes
from repro.errors import CheckDeadlineExceeded, ConfigError, ConflictLimitExceeded
from repro.exec.records import ClassResult, Cube, CubeVerdict, SplitResult, SpuriousRound
from repro.ipc.engine import IpcEngine, PropertyCheckResult
from repro.obs import progress as _progress
from repro.obs import trace as _trace
from repro.ipc.prop import IntervalProperty
from repro.rtl.fanout import FanoutAnalysis, compute_fanout_classes
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph
from repro.sat.backend import default_backend_name


def resolved_backend_name(config: DetectionConfig) -> str:
    """The concrete backend a config will run on (``"auto"`` resolved)."""
    if config.solver_backend == "auto":
        return default_backend_name()
    return config.solver_backend


#: Preprocessing settings of the *canonical witness settle*.  Any class that
#: produced a counterexample (terminal or auto-resolved spurious rounds) is
#: re-settled on a fresh, single-use context with exactly these settings, so
#: the reported witness depends only on (module, semantic config, class
#: index) — never on worker sharding, on accumulated solver state, or on
#: whether the user ran with ``--no-simplify``.  Fixed constants rather than
#: the user's own knobs: two runs that differ only in preprocessing flags
#: must report byte-identical counterexamples.
CANONICAL_SIM_PATTERNS = DEFAULT_PATTERNS
CANONICAL_FRAIG_ROUNDS = 1
#: Inprocessing changes which satisfying assignment later checks of the
#: *same context* find (vivified clauses propagate differently), so the
#: canonical settle pins it like every other search-state knob.  The sim
#: *kernel* (``sim_backend``) is deliberately not pinned: the numpy and
#: Python kernels are bit-identical by construction, so witnesses cannot
#: depend on it.
CANONICAL_INPROCESS = True


def canonical_witness_config(config: DetectionConfig) -> DetectionConfig:
    """The config of the canonical witness settle for ``config``."""
    return replace(
        config,
        simplify=True,
        sim_patterns=CANONICAL_SIM_PATTERNS,
        fraig_rounds=CANONICAL_FRAIG_ROUNDS,
        inprocess=CANONICAL_INPROCESS,
    )


def _has_canonical_settings(config: DetectionConfig) -> bool:
    return (
        config.simplify
        and config.sim_patterns == CANONICAL_SIM_PATTERNS
        and config.fraig_rounds == CANONICAL_FRAIG_ROUNDS
        and config.inprocess == CANONICAL_INPROCESS
    )


def _clear_preprocess_telemetry(result: PropertyCheckResult) -> None:
    """Drop preprocessing telemetry a ``--no-simplify`` run must not show.

    The canonical witness settle always preprocesses (that is what makes it
    canonical); its sim/sweep counters are an implementation detail of
    witness canonicalization, not of the user's run.
    """
    result.sim_falsified = False
    result.nodes_before = 0
    result.nodes_after = 0
    result.merged_nodes = 0
    result.sweep_seconds = 0.0


@dataclass
class WorkUnit:
    """Everything a worker needs to settle classes of one design.

    Picklable by construction: pool workers receive the unit table once (via
    fork inheritance or the spawn pickle) and build their own contexts.
    ``analysis`` ships the scheduler's already-computed fanout analysis so
    workers do not recompute it per process (it is a pure function of
    (module, config.inputs), so sharing it never changes results).
    ``golden`` is the golden model of the sequential detection mode (None
    for combinational work).
    """

    key: str
    name: str
    module: Module
    config: DetectionConfig
    analysis: Optional[FanoutAnalysis] = None
    golden: Optional[Module] = None


_EMPTY_STATS = {
    "solver_calls": 0,
    "conflicts": 0,
    "restarts": 0,
    "learned_clauses": 0,
    "deleted_clauses": 0,
    "cnf_clauses": 0,
}

#: Solver-work counters accumulated across engines (the persistent one plus
#: every canonical re-settle engine); CNF size is excluded — it is a
#: snapshot of the persistent encoding, not accumulable work.
_WORK_COUNTERS = ("solver_calls", "conflicts", "restarts", "learned_clauses", "deleted_clauses")


class DesignWorkContext:
    """Settles property classes of one design with engine affinity."""

    def __init__(
        self,
        unit: WorkUnit,
        engine: Optional[IpcEngine] = None,
        analysis: Optional[FanoutAnalysis] = None,
        graph: Optional[DependencyGraph] = None,
    ) -> None:
        self._unit = unit
        self._module = unit.module
        self._config = unit.config
        self._graph = graph
        self._analysis = analysis if analysis is not None else unit.analysis
        self._engine = engine
        # Sequential-mode collaborators: one persistent unroller per context
        # (the sequential counterpart of the engine's clause-reuse affinity)
        # and the fixed output -> class mapping.
        self._unroller: Optional[SequentialUnroller] = None
        self._sequential_outputs: Optional[List[str]] = None
        # True while the context's (self-created) engine has not settled
        # anything yet: a settle on a virgin engine is already canonical.
        # Externally provided engines may carry prior state, so they are
        # conservatively treated as non-virgin.
        self._virgin = engine is None
        # Solver *work* (calls, conflicts) done on canonical re-settle
        # engines (see settle_class) — folded into stats_snapshot() so the
        # report's solver telemetry covers every engine this context used.
        # CNF size is deliberately excluded: ``cnf_clauses`` stays the
        # persistent context's encoding size, the metric the report always
        # carried.
        self._extra_stats = {counter: 0 for counter in _WORK_COUNTERS}

    # ------------------------------------------------------------------ #
    # Lazily built collaborators (a fully cached run builds none of them)
    # ------------------------------------------------------------------ #

    @property
    def unit(self) -> WorkUnit:
        return self._unit

    @property
    def graph(self) -> DependencyGraph:
        if self._graph is None:
            self._graph = DependencyGraph(self._module)
        return self._graph

    @property
    def analysis(self) -> FanoutAnalysis:
        if self._analysis is None:
            self._analysis = compute_fanout_classes(
                self._module, inputs=self._config.inputs, graph=self.graph
            )
        return self._analysis

    @property
    def engine(self) -> IpcEngine:
        if self._engine is None:
            self._engine = IpcEngine(
                self._module,
                solver_backend=self._config.solver_backend,
                simplify=self._config.simplify,
                sim_patterns=self._config.sim_patterns,
                fraig_rounds=self._config.fraig_rounds,
                inprocess=self._config.inprocess,
                sim_backend=self._config.sim_backend,
                graph=self.graph,
            )
        return self._engine

    @property
    def unroller(self) -> SequentialUnroller:
        """The context's persistent design-vs-golden unroller (sequential mode)."""
        if self._unroller is None:
            if self._unit.golden is None:
                raise ConfigError(
                    f"sequential mode needs a golden model for design "
                    f"{self._unit.name!r} (none was provided)"
                )
            self._unroller = SequentialUnroller(
                self._module,
                self._unit.golden,
                reset_values=self._config.reset_values,
                solver_backend=self._config.solver_backend,
                simplify=self._config.simplify,
                sim_patterns=self._config.sim_patterns,
                fraig_rounds=self._config.fraig_rounds,
                inprocess=self._config.inprocess,
                sim_backend=self._config.sim_backend,
            )
        return self._unroller

    @property
    def sequential_outputs(self) -> List[str]:
        """Output checked by sequential class ``k`` at position ``k``."""
        if self._sequential_outputs is None:
            if self._unit.golden is None:
                raise ConfigError(
                    f"sequential mode needs a golden model for design "
                    f"{self._unit.name!r} (none was provided)"
                )
            self._sequential_outputs = sequential_output_classes(
                self._module, self._unit.golden
            )
        return self._sequential_outputs

    def stats_snapshot(self) -> Dict[str, int]:
        snapshot = dict(_EMPTY_STATS)
        for counter in _WORK_COUNTERS:
            snapshot[counter] = self._extra_stats[counter]
        for holder in (self._engine, self._unroller):
            if holder is None:
                continue
            stats = holder.stats()
            for counter in _WORK_COUNTERS:
                snapshot[counter] += stats[counter]
            snapshot["cnf_clauses"] += stats["cnf_clauses"]
        return snapshot

    def backend_name(self) -> str:
        if self._unroller is not None:
            return self._unroller.solver_context.backend_name
        if self._engine is None:
            return resolved_backend_name(self._config)
        return self._engine.solver_context.backend_name

    # ------------------------------------------------------------------ #
    # Property construction and settling
    # ------------------------------------------------------------------ #

    def build_property(self, k: int) -> IntervalProperty:
        if k == 0:
            return build_init_property(self._module, self.analysis, self._config)
        return build_fanout_property(self._module, self.analysis, k, self._config)

    def settle_class(
        self, k: int, allow_split: bool = True
    ) -> Union[ClassResult, SplitResult]:
        """Settle property class ``k`` (0 = init property) to a final result.

        When splitting is enabled (``config.split``, combinational mode) the
        first raw SAT call runs under a ``config.split_conflicts`` budget; a
        class whose check exhausts it comes back as a
        :class:`~repro.exec.records.SplitResult` carrying 2^depth cube tasks
        for the scheduler to fan out instead of a final verdict.  Callers
        that must produce a final answer themselves (the per-cube-SAT
        re-settle, the canonical witness settle) pass ``allow_split=False``
        to run unbudgeted.

        Fast path: settle against this context's shared incremental solver
        state.  If that produced *any* counterexample (a terminal failure or
        auto-resolved spurious rounds), the class is re-settled on a fresh,
        single-use context with the *canonical witness settings*
        (:func:`canonical_witness_config`): which satisfying assignment a
        CDCL search finds depends on everything the solver learned before,
        and which pattern a simulation batch trips over depends on every
        refinement pattern fraig accumulated — so a shared-context
        counterexample would vary with worker sharding and with the
        preprocessing flags.  The canonical re-settle depends only on
        (module, semantic config, class index), making counterexamples,
        diagnoses and spurious-round counts identical for every ``jobs``
        setting *and* for ``--no-simplify`` vs the default — the determinism
        the report contract, the result cache and the simplify-equivalence
        guarantee all rely on.  Classes that simply hold (the overwhelming
        majority) never pay for it, and neither does a class whose fast path
        already ran on a virgin engine with canonical settings — that settle
        *is* the canonical one.
        """
        if self._config.mode == "sequential":
            kind = "sequential"
        else:
            kind = "init" if k == 0 else "fanout"
        with _progress.progress_scope(self._unit.name, k, kind), _trace.span(
            "settle", cls=k, kind=kind
        ):
            return self._settle_class_inner(k, allow_split=allow_split)

    def _settle_class_inner(
        self, k: int, allow_split: bool = True
    ) -> Union[ClassResult, SplitResult]:
        virgin = self._virgin
        budget: Optional[int] = None
        if allow_split and self._config.split and self._config.mode != "sequential":
            budget = self._config.split_conflicts
        # One wall-clock deadline covers the *whole* class settle — the fast
        # path, spurious-resolution rounds and the canonical witness
        # re-settle together — so ``check_timeout_s`` bounds the task a
        # supervisor would otherwise see hang, not one solver call.
        started = _time.perf_counter()
        deadline_s: Optional[float] = None
        if self._config.check_timeout_s is not None:
            deadline_s = _time.monotonic() + self._config.check_timeout_s
        try:
            try:
                result = self._settle_once(k, conflict_limit=budget, deadline_s=deadline_s)
            except ConflictLimitExceeded:
                # The monolithic check blew its conflict budget: abandon it
                # (the persistent context is backtracked and fully reusable)
                # and turn the class into cube tasks instead.
                return self._split_class(k)
            if (result.rounds or result.terminal == "cex") and not (
                virgin and _has_canonical_settings(self._config)
            ):
                canonical_unit = replace(
                    self._unit, config=canonical_witness_config(self._config)
                )
                canonical = DesignWorkContext(
                    canonical_unit, analysis=self._analysis, graph=self._graph
                )
                result = canonical._settle_once(k, deadline_s=deadline_s)
                # The re-proof's solver work happened on the canonical engine;
                # fold it into this context's accounting so chunk deltas (and
                # therefore the report's solver telemetry) cover it.
                canonical_stats = canonical.stats_snapshot()
                for counter in _WORK_COUNTERS:
                    self._extra_stats[counter] += canonical_stats[counter]
        except CheckDeadlineExceeded:
            # The class ran past its wall-clock budget.  The engine is left
            # backtracked and reusable; the class degrades to an
            # *inconclusive* timeout outcome with partial telemetry instead
            # of aborting the run.
            return self._timeout_result(k, elapsed_s=_time.perf_counter() - started)
        if not self._config.simplify:
            _clear_preprocess_telemetry(result.outcome.result)
        return result

    def _timeout_result(self, k: int, elapsed_s: float) -> ClassResult:
        """The inconclusive ``terminal="timeout"`` result of a blown deadline.

        ``holds=True`` keeps a timeout from masquerading as a detection; the
        ``status="timeout"`` marker is what forces the run's verdict down to
        ``inconclusive`` (never up to ``secure``) and keeps the outcome out
        of the result cache.
        """
        if self._config.mode == "sequential":
            kind = "sequential"
            name = f"sequential_equivalence[{self.sequential_outputs[k]}]"
            commitments = self._config.depth
        else:
            kind = "init" if k == 0 else "fanout"
            prop = self.build_property(k)
            name = prop.name
            commitments = len(prop.commitments)
        result = PropertyCheckResult(
            prop=IntervalProperty(
                name=name,
                description=(
                    f"check abandoned after exceeding the "
                    f"{self._config.check_timeout_s}s wall-clock deadline"
                ),
            ),
            holds=True,
            runtime_seconds=elapsed_s,
        )
        outcome = PropertyOutcome(kind=kind, index=k, result=result, status="timeout")
        return ClassResult(
            design=self._unit.name,
            index=k,
            kind=kind,
            property_name=name,
            commitments=commitments,
            terminal="timeout",
            outcome=outcome,
        )

    def _settle_once(
        self,
        k: int,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> ClassResult:
        """One settle pass against this context's own solver state."""
        self._virgin = False
        if self._config.mode == "sequential":
            return self._settle_sequential_once(k, deadline_s=deadline_s)
        return self._settle_combinational_once(
            k, conflict_limit=conflict_limit, deadline_s=deadline_s
        )

    def _settle_sequential_once(
        self, k: int, deadline_s: Optional[float] = None
    ) -> ClassResult:
        """Settle sequential class ``k``: bounded design-vs-golden divergence
        of the ``k``-th common output (see :mod:`repro.core.unroll`).

        There is no spurious-counterexample loop here: a bounded divergence
        from the golden model is a divergence, full stop — the waiver
        machinery of the combinational mode exists only because *that* mode
        compares a design against itself over unconstrained starting states.
        """
        output = self.sequential_outputs[k]
        depth = self._config.depth
        # The unroller's native search cannot be interrupted mid-call, so the
        # deadline is enforced at the call boundary (same contract as the
        # pysat backend one layer down).
        if deadline_s is not None and _time.monotonic() >= deadline_s:
            raise CheckDeadlineExceeded("check deadline exceeded")
        check = self.unroller.check_output(output, depth)
        result = PropertyCheckResult(
            prop=IntervalProperty(
                name=f"sequential_equivalence[{output}]",
                description=(
                    f"design output {output!r} equals the golden model's for "
                    f"{depth} cycles from reset"
                ),
            ),
            holds=check.holds,
            cex=check.cex,
            structurally_proven=check.structurally_proven,
            runtime_seconds=check.runtime_seconds,
            sat_conflicts=check.sat_conflicts,
            sat_decisions=check.sat_decisions,
            cnf_new_clauses=check.cnf_new_clauses,
            cnf_reused_clauses=check.cnf_reused_clauses,
            solver_calls=check.solver_calls,
            sim_falsified=check.sim_falsified,
            nodes_before=check.nodes_before,
            nodes_after=check.nodes_after,
            merged_nodes=check.merged_nodes,
            sweep_seconds=check.sweep_seconds,
        )
        outcome = PropertyOutcome(
            kind="sequential",
            index=k,
            result=result,
            depth_reached=depth,
            first_divergence_cycle=check.first_divergence_cycle,
        )
        if check.structurally_proven:
            terminal = "structural"
        elif check.holds:
            terminal = "proven"
        else:
            terminal = "cex"
        return ClassResult(
            design=self._unit.name,
            index=k,
            kind="sequential",
            property_name=result.prop.name,
            commitments=depth,
            terminal=terminal,
            outcome=outcome,
        )

    def _settle_combinational_once(
        self,
        k: int,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> ClassResult:
        """One combinational settle pass against this context's own engine.

        Structural discharge first; remaining obligations go to the shared
        incremental solver context.  Counterexamples whose every cause is
        provable by another property of the run are resolved by
        re-verification with strengthened assumptions; each such round is
        recorded so event replay reproduces the full ``CexFound``/``CexWaived``
        history.
        """
        kind = "init" if k == 0 else "fanout"
        prop = self.build_property(k)
        base = dict(
            design=self._unit.name,
            index=k,
            kind=kind,
            property_name=prop.name,
            commitments=len(prop.commitments),
        )
        if not prop.commitments:
            # Nothing to prove for this class; trivially holds.
            outcome = PropertyOutcome(
                kind=kind,
                index=k,
                result=PropertyCheckResult(prop=prop, holds=True, structurally_proven=True),
            )
            return ClassResult(terminal="structural", outcome=outcome, **base)

        prepared = self.engine.begin_check(prop)
        if prepared.discharged:
            outcome = PropertyOutcome(
                kind=kind, index=k, result=self.engine.finish_check(prepared)
            )
            return ClassResult(terminal="structural", outcome=outcome, **base)

        # SAT phase with per-class spurious-CEX resolution, against the
        # context's persistent solver state.
        rounds: List[SpuriousRound] = []
        resolved = 0
        extra_assumptions: List[str] = []
        # Only the *first* raw solve is budgeted: once it completes (or once
        # the class split into cubes), every follow-up — spurious-resolution
        # re-checks, cube-SAT re-settles — must run to completion.
        result = self.engine.finish_check(
            prepared, conflict_limit=conflict_limit, deadline_s=deadline_s
        )
        while True:
            if result.holds:
                outcome = PropertyOutcome(
                    kind=kind, index=k, result=result, resolved_spurious=resolved
                )
                return ClassResult(
                    terminal="proven", outcome=outcome, rounds=rounds, **base
                )
            diagnosis = diagnose_counterexample(
                self._module, self.analysis, prop, result.cex, self.graph, self._config
            )
            if diagnosis.auto_resolvable:
                new_assumptions = [
                    signal
                    for signal in diagnosis.proposed_assumptions()
                    if signal not in extra_assumptions
                ]
                if new_assumptions:
                    rounds.append(
                        SpuriousRound(
                            cex=result.cex,
                            diagnosis=diagnosis,
                            waived_signals=list(new_assumptions),
                            solve_s=result.runtime_seconds,
                        )
                    )
                    extra_assumptions.extend(new_assumptions)
                    resolved += 1
                    prop = self.build_property(k)
                    for signal in extra_assumptions:
                        prop.assume_equal(signal, 0)
                    # Between-call deadline check covers backends that cannot
                    # interrupt a native search mid-call.
                    if deadline_s is not None and _time.monotonic() >= deadline_s:
                        raise CheckDeadlineExceeded("check deadline exceeded")
                    result = self.engine.finish_check(
                        self.engine.begin_check(prop), deadline_s=deadline_s
                    )
                    continue
            outcome = PropertyOutcome(
                kind=kind,
                index=k,
                result=result,
                diagnosis=diagnosis,
                resolved_spurious=resolved,
            )
            return ClassResult(terminal="cex", outcome=outcome, rounds=rounds, **base)

    def _split_class(self, k: int) -> Union[ClassResult, SplitResult]:
        """Turn a budget-exhausted class into cube tasks (Sec. cube-and-conquer).

        Cube selection must be a pure function of (module, semantic config,
        class index): the scheduler caches per-cube verdicts under keys that
        embed the cube literals, and two runs (any ``jobs`` value, cold or
        resumed) must fan the same class into the same cubes.  The ambient
        engine cannot provide that — its cone shape and simulation patterns
        depend on every class the worker settled before — so planning runs on
        a fresh single-use context with the *canonical witness settings*
        (:func:`canonical_witness_config`), the same trick the witness
        re-settle uses.  If the canonical cone yields fewer than two cubes
        (or canonical preprocessing already discharges/falsifies the check),
        the class falls back to an unbudgeted monolithic settle on another
        fresh canonical context, which is byte-identical to what a
        ``--no-split`` run reports.
        """
        kind = "init" if k == 0 else "fanout"
        canonical_unit = replace(
            self._unit, config=canonical_witness_config(self._config)
        )
        planner = DesignWorkContext(
            canonical_unit, analysis=self._analysis, graph=self._graph
        )
        prop = planner.build_property(k)
        cubes: List[Cube] = []
        prepared = None
        if prop.commitments:
            planner._virgin = False
            prepared = planner.engine.begin_check(prop)
            if prepared.needs_sat and prepared.sim_model is None:
                cubes = planner.engine.plan_cubes(prepared, self._config.split_depth)
        planner_stats = planner.stats_snapshot()
        for counter in _WORK_COUNTERS:
            self._extra_stats[counter] += planner_stats[counter]
        if prepared is None or len(cubes) < 2:
            # Unsplittable: settle monolithically on a *fresh* canonical
            # context (the planner's engine already preprocessed the cone, so
            # reusing it would not reproduce the canonical settle).  Virgin +
            # canonical settings means the inner settle never re-settles.
            fallback = DesignWorkContext(
                canonical_unit, analysis=self._analysis, graph=self._graph
            )
            result = fallback._settle_class_inner(k, allow_split=False)
            fallback_stats = fallback.stats_snapshot()
            for counter in _WORK_COUNTERS:
                self._extra_stats[counter] += fallback_stats[counter]
            if not self._config.simplify:
                _clear_preprocess_telemetry(result.outcome.result)
            return result
        # The all-cubes-UNSAT outcome, pre-built: its deterministic fields
        # (merged/clause assumption counts, structural flags) are computed
        # before preprocessing from structural hashing, so the canonical
        # prepared result carries exactly what the ambient engine would have
        # reported for a monolithic UNSAT — everything else is volatile
        # telemetry the normalized report strips anyway.
        template_result = prepared.result
        template_result.holds = True
        template_result.cex = None
        if not self._config.simplify:
            _clear_preprocess_telemetry(template_result)
        template = outcome_to_dict(
            PropertyOutcome(kind=kind, index=k, result=template_result)
        )
        return SplitResult(
            design=self._unit.name,
            index=k,
            kind=kind,
            property_name=prop.name,
            commitments=len(prop.commitments),
            cubes=cubes,
            outcome_template=template,
        )

    def run_cube(self, index: int, cube: Cube) -> Tuple[CubeVerdict, Dict[str, object]]:
        """Solve one cube of class ``index`` on this context's engine.

        The cube's literals join the check's clause assumptions *before*
        preprocessing, so simulation-first falsification and assumption
        merging work inside the cube exactly as they do for a whole class.
        Only satisfiability travels back (no counterexample is extracted):
        any SAT cube sends the class to a canonical re-settle that produces
        the witness, so the verdict is semantic — cacheable and identical on
        every engine.

        Stats have the same shape as :meth:`run_chunk`'s, so the scheduler
        aggregates cube work into the report's solver telemetry uniformly.
        """
        started = _time.perf_counter()
        tracer = _trace.Tracer() if self._config.trace else None
        before = self.stats_snapshot()
        with _trace.install_tracer(tracer) if tracer is not None else _nullcontext():
            with _progress.progress_scope(self._unit.name, index, "cube"), _trace.span(
                "cube", cls=index, literals=len(cube)
            ):
                self._virgin = False
                prop = self.build_property(index)
                prepared = self.engine.begin_check(prop, cube=cube)
                result = self.engine.finish_check(prepared, want_cex=False)
        after = self.stats_snapshot()
        stats: Dict[str, object] = {
            "backend": self.backend_name(),
            "cnf_clauses": after["cnf_clauses"],
            "elapsed_s": _time.perf_counter() - started,
        }
        for counter in _WORK_COUNTERS:
            stats[counter] = after[counter] - before[counter]
        if tracer is not None:
            stats["spans"] = tracer.export()
        verdict = CubeVerdict(
            design=self._unit.name, index=index, cube=cube, sat=not result.holds
        )
        return verdict, stats

    def run_chunk(
        self, indices: Sequence[int], stop_on_failure: bool, allow_split: bool = True
    ) -> Tuple[List[Union[ClassResult, SplitResult]], Dict[str, object]]:
        """Settle a shard of classes in index order; returns (results, stats).

        The stats dict is this chunk's *delta* of the context's solver work
        (plus the current CNF size snapshot and the chunk's worker-side wall
        time), so a scheduler can aggregate per-design totals from chunks
        that ran on different workers.

        When the config asks for tracing, a chunk-local tracer is installed
        around the settle loop and its spans travel back in the stats dict
        (``stats["spans"]``, plain JSON-native dicts) — the one channel that
        already crosses the worker-process boundary.  Pool and serial
        executors thus merge traces identically, with no reliance on fork
        semantics.
        """
        started = _time.perf_counter()
        tracer = _trace.Tracer() if self._config.trace else None
        before = self.stats_snapshot()
        results: List[Union[ClassResult, SplitResult]] = []
        with _trace.install_tracer(tracer) if tracer is not None else _nullcontext():
            for k in indices:
                result = self.settle_class(k, allow_split=allow_split)
                results.append(result)
                # A SplitResult is undecided — it cannot trip the
                # stop-on-failure early exit (the reducer re-submits it).
                if (
                    stop_on_failure
                    and isinstance(result, ClassResult)
                    and not result.outcome.holds
                ):
                    break
        after = self.stats_snapshot()
        stats: Dict[str, object] = {
            "backend": self.backend_name(),
            "cnf_clauses": after["cnf_clauses"],
            "elapsed_s": _time.perf_counter() - started,
        }
        for counter in _WORK_COUNTERS:
            stats[counter] = after[counter] - before[counter]
        if tracer is not None:
            stats["spans"] = tracer.export()
        return results, stats
