"""The IPC engine: checks interval properties over symbolic starting states.

The check of an interval property proceeds in three stages:

1. *Assumption merging.*  Equality assumptions between free leaves (primary
   inputs at any time point, registers at the first time point) are applied
   by construction: the right-hand instance's leaf simply reuses the literal
   vector of the left-hand instance.  This is sound — it restricts the model
   exactly as the assumption does — and it is what lets structurally identical
   logic collapse in the next stage.
2. *Structural discharge.*  Both sides of every commitment are bit-blasted
   onto one shared, structurally hashed AIG.  A commitment whose two sides
   reduce to the same literal vector is proven without touching the SAT
   solver.  In an untampered design this discharges every proof obligation.
3. *SAT search.*  Remaining commitments form a miter (OR of bit differences)
   which is checked together with the non-merged assumptions by the CDCL
   solver.  A satisfying assignment is turned into a readable
   :class:`repro.ipc.cex.CounterExample`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.aig.aig import FALSE, TRUE, negate
from repro.aig.bitblast import Vector
from repro.aig.preprocess import Preprocessor
from repro.aig.simvec import DEFAULT_PATTERNS
from repro.errors import PropertyError
from repro.ipc.cex import CounterExample
from repro.ipc.prop import Equality, IntervalProperty, Term
from repro.obs.trace import span as _obs_span
from repro.ipc.transition import SymbolicFrame, TransitionEncoder
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph
from repro.sat.context import SolverContext
from repro.utils.bitvec import from_bits

@dataclass
class PropertyCheckResult:
    """Outcome of one property check."""

    prop: IntervalProperty
    holds: bool
    cex: Optional[CounterExample] = None
    structurally_proven: bool = False
    runtime_seconds: float = 0.0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    aig_nodes: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    merged_assumptions: int = 0
    clause_assumptions: int = 0
    # Incremental-solving statistics: clauses newly encoded for this check vs.
    # clauses already present in the persistent solver context, the number of
    # SAT calls this check issued (0 when discharged without the solver), and
    # the context's conflict total after the check.
    cnf_new_clauses: int = 0
    cnf_reused_clauses: int = 0
    solver_calls: int = 0
    cumulative_conflicts: int = 0
    # Preprocessing telemetry (:mod:`repro.aig` simvec/simplify/fraig):
    # whether bit-parallel random simulation falsified the miter without any
    # CDCL call, the miter-cone size before and after the fraig sweep, the
    # number of proven node merges substituted, and the preprocessing wall
    # time.  All zero/False when the check ran with simplification off.
    sim_falsified: bool = False
    nodes_before: int = 0
    nodes_after: int = 0
    merged_nodes: int = 0
    sweep_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.prop.name

    def __bool__(self) -> bool:  # truthiness == "property holds"
        return self.holds


@dataclass
class PreparedCheck:
    """A property after the cheap structural stage, before any SAT work.

    Produced by :meth:`IpcEngine.begin_check`; finished (SAT search, model
    extraction, counterexample construction) by :meth:`IpcEngine.finish_check`.
    The split lets a scheduler first discharge *every* property structurally
    on the shared AIG and only then run the remaining SAT obligations against
    the shared incremental solver context.
    """

    prop: IntervalProperty
    result: PropertyCheckResult
    frames: Dict[int, List[SymbolicFrame]]
    obligations: List[Tuple[Equality, Vector, Vector, int]]
    clause_assumptions: List[int]
    window: int
    miter: int = FALSE
    needs_sat: bool = False
    prepare_seconds: float = 0.0
    #: A concrete falsifying input assignment found by sim-first
    #: falsification (AIG input node -> bit); when set, finish_check builds
    #: the counterexample from it and never calls the SAT solver.
    sim_model: Optional[Dict[int, int]] = None

    @property
    def discharged(self) -> bool:
        """True when the property was settled without any SAT obligation."""
        return not self.needs_sat


class IpcEngine:
    """Checks interval properties of one module, reusing work across checks.

    The engine keeps the frames of instance 0 (and the shared AIG) alive
    between calls, because the iterative detection flow checks one property
    per fanout class over the *same* one-cycle window.  Further instances get
    fresh frames per property since their leaf merging depends on the
    property's assumptions, but their cones are not lowered again: the
    encoder's bit-blasting memo hands a fresh frame every vector already
    blasted over the same leaf literals (see :mod:`repro.ipc.transition`).
    ``graph`` supplies the memo's leaf support; pass the design's
    :class:`~repro.rtl.netlist.DependencyGraph` to avoid building a second.
    """

    def __init__(
        self,
        module: Module,
        persistent_instances: Tuple[int, ...] = (0,),
        solver_backend: str = "auto",
        simplify: bool = False,
        sim_patterns: int = DEFAULT_PATTERNS,
        fraig_rounds: int = 1,
        inprocess: bool = True,
        sim_backend: str = "auto",
        graph: Optional[DependencyGraph] = None,
    ) -> None:
        self._module = module
        self._encoder = TransitionEncoder(module, graph=graph)
        self._base_frames: Dict[int, List[SymbolicFrame]] = {}
        # Frames of these instances are kept across check() calls; their leaves
        # must never be rebound by assumption merging (a clause constraint is
        # used instead), otherwise one property could constrain the next.
        self._persistent_instances = set(persistent_instances)
        # One CNF builder + one incremental solver for the engine's lifetime:
        # the node→var cache and all emitted clauses persist, so overlapping
        # cones of later checks are never re-encoded or re-learned.
        self._context = SolverContext(self._encoder.aig, backend=solver_backend)
        # Preprocessing state shares the engine's lifetime too: patterns
        # (plus every refinement pattern fraig learned) and proven merges
        # keep helping across all checks of the run.
        self._simplify = simplify
        self._sim_patterns = sim_patterns
        self._fraig_rounds = fraig_rounds
        self._preprocessor: Optional[Preprocessor] = None
        # Inprocessing between checks: after every SAT-settled check the
        # persistent context vivifies its clauses and eliminates dead
        # per-check miter variables at level 0, keeping the shared clause
        # database from growing monotonically over hundreds of checks.
        self._inprocess = inprocess
        self._sim_backend = sim_backend
        self._inprocess_runs = 0
        self._inprocess_removed = 0
        self._inprocess_eliminated = 0

    @property
    def module(self) -> Module:
        return self._module

    @property
    def encoder(self) -> TransitionEncoder:
        return self._encoder

    @property
    def solver_context(self) -> SolverContext:
        return self._context

    def stats(self) -> Dict[str, object]:
        """Snapshot of the engine's shared solver-context statistics.

        One flat dict so that schedulers and reports never need to reach into
        the context object: backend name, number of SAT calls issued, total
        conflicts, and the size of the persistent CNF encoding.
        """
        context = self._context
        return {
            "backend": context.backend_name,
            "solver_calls": context.solve_calls,
            "conflicts": context.cumulative_conflicts,
            "restarts": context.cumulative_restarts,
            "learned_clauses": context.cumulative_learned_clauses,
            "deleted_clauses": context.cumulative_deleted_clauses,
            "cnf_vars": context.num_vars,
            "cnf_clauses": context.num_clauses,
            "aig_nodes": self._encoder.aig.num_nodes,
            "inprocess_runs": self._inprocess_runs,
            "inprocess_removed_clauses": self._inprocess_removed,
            "inprocess_eliminated_vars": self._inprocess_eliminated,
        }

    # ------------------------------------------------------------------ #
    # Frame management
    # ------------------------------------------------------------------ #

    def _frames_for_instance(self, instance: int, window: int, persistent: bool) -> List[SymbolicFrame]:
        if persistent:
            frames = self._base_frames.setdefault(instance, [])
        else:
            frames = []
        if not frames:
            frames.append(self._encoder.new_frame(f"i{instance}@0"))
        while len(frames) <= window:
            time_index = len(frames)
            frames.append(self._encoder.step(frames[-1], f"i{instance}@{time_index}"))
        return frames

    # ------------------------------------------------------------------ #
    # Property checking
    # ------------------------------------------------------------------ #

    def check(self, prop: IntervalProperty) -> PropertyCheckResult:
        """Check one interval property; returns the result with optional CEX."""
        return self.finish_check(self.begin_check(prop))

    def begin_check(self, prop: IntervalProperty) -> PreparedCheck:
        """Structural stage: bit-blast, merge assumptions, discharge on the AIG.

        Cheap (no SAT): a commitment whose sides hash to the same literal
        vector is proven structurally.  The returned :class:`PreparedCheck`
        records whether SAT obligations remain; if so, :meth:`finish_check`
        settles them against the shared incremental solver context.
        """
        started = _time.perf_counter()
        prop.validate()
        window = prop.window()
        instances = prop.instances()

        with _obs_span("bitblast", prop=prop.name):
            frames: Dict[int, List[SymbolicFrame]] = {}
            for instance in instances:
                # Persistent-instance frames survive across properties; the
                # leaves of the other instances depend on the property's
                # merge set, so they get fresh frames for every check (whose
                # cones the encoder's memo mostly serves without blasting).
                persistent = instance in self._persistent_instances
                frames[instance] = self._frames_for_instance(instance, window, persistent)

            merged, clause_assumptions = self._apply_assumption_merging(prop, frames, window)

            # Bit-blast both sides of every commitment.
            obligations: List[Tuple[Equality, Vector, Vector, int]] = []
            for commitment in prop.commitments:
                left_vector = self._term_vector(commitment.left, frames)
                right_vector = self._constraint_rhs_vector(commitment, frames, left_vector)
                difference = self._difference_literal(left_vector, right_vector)
                obligations.append((commitment, left_vector, right_vector, difference))

        pending = [entry for entry in obligations if entry[3] != FALSE]
        result = PropertyCheckResult(
            prop=prop,
            holds=True,
            structurally_proven=not pending and not clause_assumptions,
            merged_assumptions=merged,
            clause_assumptions=len(clause_assumptions),
            aig_nodes=self._encoder.aig.num_nodes,
        )
        prepared = PreparedCheck(
            prop=prop,
            result=result,
            frames=frames,
            obligations=obligations,
            clause_assumptions=clause_assumptions,
            window=window,
        )
        if pending:
            if any(literal == FALSE for literal in clause_assumptions):
                # An assumption is structurally false: holds vacuously.
                pass
            else:
                miter = self._encoder.aig.or_many([entry[3] for entry in pending])
                if miter != FALSE:
                    prepared.miter = miter
                    prepared.needs_sat = True
                    if self._simplify:
                        self._preprocess(prepared)
        prepared.prepare_seconds = _time.perf_counter() - started
        result.runtime_seconds = prepared.prepare_seconds
        return prepared

    # ------------------------------------------------------------------ #
    # Preprocessing (sim-first falsification + fraig sweeping)
    # ------------------------------------------------------------------ #

    def _get_preprocessor(self) -> Preprocessor:
        if self._preprocessor is None:
            self._preprocessor = Preprocessor(
                self._encoder.aig,
                self._context,
                sim_patterns=self._sim_patterns,
                fraig_rounds=self._fraig_rounds,
                sim_backend=self._sim_backend,
            )
        return self._preprocessor

    def _preprocess(self, prepared: PreparedCheck) -> None:
        """Shrink a prepared check's SAT obligation before the solver sees it.

        Stage 1 — *sim-first falsification*: evaluate the miter together
        with the clause assumptions over a batch of random patterns; any
        pattern satisfying all of them is a genuine counterexample, recorded
        (after deterministic zero-minimization) as ``prepared.sim_model`` —
        :meth:`finish_check` then never touches the CDCL solver.

        Stage 2 — *fraig sweeping* (only when simulation could not falsify):
        merge simulation-equivalent nodes by bounded SAT proof and rebuild
        the miter/assumption cones with the merges substituted, constants
        folded and the 2-AND rewriting rules applied.  The rebuilt literals
        are equivalence-preserving, so the check's verdict is unchanged —
        only the CNF the solver receives is smaller.

        Both stages live in :class:`repro.aig.preprocess.Preprocessor`,
        shared with the sequential unroller.
        """
        result = prepared.result
        roots = [prepared.miter] + list(prepared.clause_assumptions)
        outcome = self._get_preprocessor().run(roots)
        result.nodes_before = outcome.nodes_before
        result.nodes_after = outcome.nodes_after
        result.merged_nodes = outcome.merged_nodes
        result.sweep_seconds = outcome.elapsed_seconds
        if outcome.sim_model is not None:
            prepared.sim_model = outcome.sim_model
            result.sim_falsified = True
        else:
            prepared.miter = outcome.roots[0]
            prepared.clause_assumptions = [
                literal for literal in outcome.roots[1:] if literal != TRUE
            ]

    def finish_check(
        self, prepared: PreparedCheck, deadline_s: Optional[float] = None
    ) -> PropertyCheckResult:
        """SAT stage: settle a prepared check's remaining obligations.

        ``deadline_s`` budgets the call in wall-clock terms (absolute
        ``time.monotonic()`` deadline): capable backends raise
        :class:`repro.errors.CheckDeadlineExceeded` with the persistent
        context backtracked and fully reusable.
        """
        result = prepared.result
        if not prepared.needs_sat:
            return result
        started = _time.perf_counter()
        if prepared.sim_model is not None:
            # Sim-first falsification already produced a concrete model; the
            # counterexample is built from it with zero CDCL calls.
            result.holds = False
            result.cex = self._build_counterexample(
                prepared.prop,
                prepared.frames,
                prepared.obligations,
                prepared.sim_model,
                prepared.window,
            )
        else:
            holds, model_values = self._solve(prepared, deadline_s=deadline_s)
            result.holds = holds
            if not holds:
                result.cex = self._build_counterexample(
                    prepared.prop, prepared.frames, prepared.obligations, model_values, prepared.window
                )
            if self._inprocess:
                self._run_inprocessing()
        result.runtime_seconds = prepared.prepare_seconds + (_time.perf_counter() - started)
        return result

    def _run_inprocessing(self) -> None:
        """Simplify the persistent solver context after a SAT-settled check.

        Runs strictly between checks (the solver is back at level 0, the
        model of the finished check has already been extracted), so clause
        vivification and elimination of dead per-check miter variables can
        never perturb a verdict — only the formula the *next* check lands on.
        """
        stats = self._context.inprocess()
        self._inprocess_runs += 1
        self._inprocess_removed += int(stats.get("removed_clauses", 0))
        self._inprocess_eliminated += len(stats.get("eliminated") or [])

    # ------------------------------------------------------------------ #
    # Assumptions
    # ------------------------------------------------------------------ #

    def _is_free_leaf(self, term: Term) -> bool:
        module = self._module
        if module.is_input(term.signal):
            return True
        return module.is_register(term.signal) and term.time == 0

    def _apply_assumption_merging(
        self,
        prop: IntervalProperty,
        frames: Dict[int, List[SymbolicFrame]],
        window: int,
    ) -> Tuple[int, List[int]]:
        """Bind mergeable equalities directly; return (merge count, other literals).

        Merging happens in a first pass over *all* assumptions, and only then
        are the remaining assumptions turned into clause constraints.  The
        clause constraints bit-blast combinational cones of the non-persistent
        instance, which must not happen before every bindable leaf has been
        bound — otherwise a cone cached early would keep referring to stale
        free variables of a leaf that a later assumption merges.
        """
        merged = 0
        deferred: List[Tuple[Term, Union[Term, int]]] = []
        bound: set = set()

        def try_bind(target: Term, vector) -> bool:
            frame = frames[target.instance][target.time]
            if frame.is_bound(target.signal):
                return False
            frame.bind_leaf(target.signal, vector)
            bound.add((target.instance, target.time, target.signal))
            return True

        for assumption in prop.assumptions:
            left, right = assumption.left, assumption.right
            if isinstance(right, Term):
                mergeable = (
                    self._is_free_leaf(right)
                    and right.instance not in self._persistent_instances
                    and right.time <= window
                    and (right.instance, right.time, right.signal) not in bound
                    and self._module.width_of(left.signal) == self._module.width_of(right.signal)
                    and (right.instance, right.signal) != (left.instance, left.signal)
                )
                if mergeable and try_bind(right, self._term_vector(left, frames)):
                    merged += 1
                    continue
                deferred.append((left, right))
            else:
                width = self._module.width_of(left.signal)
                constant_vector = self._encoder.blaster.constant(int(right), width)
                bindable = (
                    self._is_free_leaf(left)
                    and left.instance not in self._persistent_instances
                    and (left.instance, left.time, left.signal) not in bound
                )
                if bindable and try_bind(left, constant_vector):
                    merged += 1
                    continue
                deferred.append((left, right))

        clause_literals: List[int] = []
        for left, right in deferred:
            left_vector = self._term_vector(left, frames)
            if isinstance(right, Term):
                right_vector = self._term_vector(right, frames)
            else:
                right_vector = self._encoder.blaster.constant(int(right), len(left_vector))
            clause_literals.append(self._equality_literal(left_vector, right_vector))
        return merged, [literal for literal in clause_literals if literal != TRUE]

    # ------------------------------------------------------------------ #
    # Term evaluation
    # ------------------------------------------------------------------ #

    def _term_vector(self, term: Term, frames: Dict[int, List[SymbolicFrame]]) -> Vector:
        if term.signal not in self._module.signals:
            raise PropertyError(f"property references unknown signal {term.signal!r}")
        return frames[term.instance][term.time].vector_of(term.signal)

    def _constraint_rhs_vector(
        self,
        constraint: Equality,
        frames: Dict[int, List[SymbolicFrame]],
        left_vector: Vector,
    ) -> Vector:
        if isinstance(constraint.right, Term):
            return self._term_vector(constraint.right, frames)
        return self._encoder.blaster.constant(int(constraint.right), len(left_vector))

    def _difference_literal(self, left: Vector, right: Vector) -> int:
        return negate(self._encoder.blaster.equal_vectors(left, right))

    def _equality_literal(self, left: Vector, right: Vector) -> int:
        return self._encoder.blaster.equal_vectors(left, right)

    # ------------------------------------------------------------------ #
    # SAT interaction
    # ------------------------------------------------------------------ #

    def _solve(
        self, prepared: PreparedCheck, deadline_s: Optional[float] = None
    ) -> Tuple[bool, Dict[int, int]]:
        """Settle a prepared check's miter against the shared solver context.

        The miter goal and the non-merged assumptions are passed as solver
        *assumptions*, never as permanent unit clauses: the solver keeps its
        clause database (and everything it learned) valid for the next check.
        """
        aig = self._encoder.aig
        context = self._context

        goal_literal = context.literal_of(prepared.miter)
        assumption_literals = [
            context.literal_of(literal) for literal in prepared.clause_assumptions
        ]
        result = prepared.result
        outcome = context.solve(assumption_literals + [goal_literal], deadline_s=deadline_s)
        result.cnf_vars = context.num_vars
        result.cnf_clauses = context.num_clauses
        result.cnf_new_clauses = outcome.new_clauses
        result.cnf_reused_clauses = outcome.reused_clauses
        result.solver_calls = 1
        result.cumulative_conflicts = context.cumulative_conflicts
        result.sat_conflicts = outcome.result.conflicts
        result.sat_decisions = outcome.result.decisions
        if not outcome.satisfiable:
            return True, {}

        # Map the CNF model back to AIG input-node values.  Only inputs in the
        # support of *this* check's constraints are extracted; variables that
        # earlier checks encoded into the persistent context carry arbitrary
        # model values and must not leak into the counterexample.
        support_roots = [prepared.miter] + list(prepared.clause_assumptions)
        model = outcome.result.model
        input_values: Dict[int, int] = {}
        for node in aig.cone_nodes(support_roots):
            if not aig.is_input(node):
                continue
            cnf_literal = context.literal_of(node << 1)
            value = model.get(abs(cnf_literal))
            if value is None:
                continue
            input_values[node] = int(value if cnf_literal > 0 else not value)
        return False, input_values

    # ------------------------------------------------------------------ #
    # Counterexample reconstruction
    # ------------------------------------------------------------------ #

    def _build_counterexample(
        self,
        prop: IntervalProperty,
        frames: Dict[int, List[SymbolicFrame]],
        obligations: List[Tuple[Equality, Vector, Vector, int]],
        input_values: Dict[int, int],
        window: int,
    ) -> CounterExample:
        # Collect every vector the witness reports, in report order, and
        # evaluate them in one pass over their union cone.
        failing = [entry for entry in obligations if entry[3] != FALSE]
        vectors: List[Vector] = []
        for _, left_vector, right_vector, _ in failing:
            vectors += [left_vector, right_vector]
        # The starting-state and input valuation of both instances for every
        # leaf that participated in the check ...
        keys: List[Tuple[int, int, str]] = []
        for instance, instance_frames in frames.items():
            for time_index, frame in enumerate(instance_frames[: window + 1]):
                for signal, vector in frame.leaves.items():
                    keys.append((instance, time_index, signal))
                    vectors.append(vector)
        # ... and the values that appear explicitly in the property.
        recorded = set(keys)
        for constraint in list(prop.assumptions) + list(prop.commitments):
            terms = [constraint.left]
            if isinstance(constraint.right, Term):
                terms.append(constraint.right)
            for term in terms:
                key = (term.instance, term.time, term.signal)
                if key not in recorded:
                    recorded.add(key)
                    keys.append(key)
                    vectors.append(self._term_vector(term, frames))

        bits = self._encoder.aig.evaluate(
            [literal for vector in vectors for literal in vector], input_values
        )
        values: List[int] = []
        offset = 0
        for vector in vectors:
            values.append(from_bits(bits[offset : offset + len(vector)]))
            offset += len(vector)

        cex = CounterExample(property_name=prop.name)
        for position, (commitment, _, _, _) in enumerate(failing):
            left_value, right_value = values[2 * position], values[2 * position + 1]
            if left_value != right_value:
                cex.failing_signals.append(
                    (commitment.left.signal, commitment.left.time, left_value, right_value)
                )
        for key, value in zip(keys, values[2 * len(failing):]):
            cex.values[key] = value
        return cex
