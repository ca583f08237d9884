"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConflictLimitExceeded, SolverError
from repro.sat.solver import SatSolver, _luby


def brute_force_satisfiable(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(
            any((assignment[abs(l)] if l > 0 else not assignment[abs(l)]) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def check_model(clauses, model):
    for clause in clauses:
        if not any((model[abs(l)] if l > 0 else not model[abs(l)]) for l in clause):
            return False
    return True


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve().satisfiable

    def test_single_unit_clause(self):
        solver = SatSolver()
        solver.add_clause([1])
        result = solver.solve()
        assert result.satisfiable and result.value(1) is True

    def test_conflicting_units_unsat(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.solve().satisfiable

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert not solver.solve().satisfiable

    def test_tautological_clause_ignored(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        assert solver.solve().satisfiable

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            SatSolver().add_clause([0])

    def test_simple_implication_chain(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        result = solver.solve()
        assert result.satisfiable
        assert result.value(3) is True

    def test_xor_constraint_model(self):
        # x1 XOR x2 encoded as CNF, plus x1 = True forces x2 = False.
        clauses = [[1, 2], [-1, -2], [1]]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        assert check_model(clauses, result.model)
        assert result.value(2) is False

    def test_unsat_core_style_problem(self):
        # (a or b) and (a or -b) and (-a or b) and (-a or -b) is UNSAT.
        solver = SatSolver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable

    def test_num_vars_and_clauses_tracking(self):
        solver = SatSolver()
        solver.add_clause([1, -3])
        assert solver.num_vars == 3
        assert solver.num_clauses == 1


def pigeonhole(holes):
    """holes+1 pigeons into `holes` holes — classic small UNSAT family."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = []
    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        solver = SatSolver()
        for clause in pigeonhole(holes):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable


class TestConflictLimit:
    """Conflict-budgeted solving, as fraig's bounded equivalence proofs use it."""

    def test_limit_raises_and_is_a_solver_error(self):
        solver = SatSolver()
        for clause in pigeonhole(5):
            solver.add_clause(clause)
        with pytest.raises(ConflictLimitExceeded):
            solver.solve(conflict_limit=3)
        assert issubclass(ConflictLimitExceeded, SolverError)

    def test_solver_stays_usable_after_an_aborted_call(self):
        solver = SatSolver()
        for clause in pigeonhole(4):
            solver.add_clause(clause)
        with pytest.raises(ConflictLimitExceeded):
            solver.solve(conflict_limit=2)
        # The aborted call backtracked to level 0: the same persistent
        # context finishes the proof (keeping its learned clauses).
        assert not solver.solve().satisfiable

    def test_unlimited_call_never_raises(self):
        solver = SatSolver()
        for clause in pigeonhole(3):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable


class TestAssumptions:
    def _solver(self):
        solver = SatSolver()
        solver.add_clause([-1, 2])   # 1 -> 2
        solver.add_clause([-2, -3])  # 2 -> not 3
        return solver

    def test_sat_under_assumptions(self):
        result = self._solver().solve(assumptions=[1])
        assert result.satisfiable
        assert result.value(2) is True and result.value(3) is False

    def test_unsat_under_assumptions(self):
        assert not self._solver().solve(assumptions=[1, 3]).satisfiable

    def test_solver_reusable_after_assumption_unsat(self):
        solver = self._solver()
        assert not solver.solve(assumptions=[1, 3]).satisfiable
        assert solver.solve(assumptions=[1]).satisfiable
        assert solver.solve().satisfiable

    def test_contradicting_assumption_with_unit(self):
        solver = SatSolver()
        solver.add_clause([5])
        assert not solver.solve(assumptions=[-5]).satisfiable


class TestRandomised:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_3sat_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        num_clauses = rng.randint(3, 24)
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)
        if result.satisfiable:
            assert check_model(clauses, result.model)

    def test_larger_random_satisfiable_instance(self):
        rng = random.Random(99)
        num_vars = 60
        clauses = []
        planted = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
        for _ in range(250):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clause = [v if rng.random() < 0.5 else -v for v in variables]
            # Ensure the planted assignment satisfies the clause.
            if not any((planted[abs(l)] if l > 0 else not planted[abs(l)]) for l in clause):
                flip = rng.choice(range(3))
                clause[flip] = -clause[flip]
            clauses.append(clause)
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        assert check_model(clauses, result.model)


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


class TestPropagationCounterRegression:
    """Pin the watched-literal scheme's exact behaviour on a fixed formula.

    The `_propagate` hot loop hoists attribute lookups into locals and only
    rebuilds a watch list when a watch actually moved; none of that may
    change *what* is propagated.  The counters below were recorded on the
    straightforward always-rebuild implementation — any drift means the
    optimisation changed semantics, not just speed.
    """

    def _fixed_formula(self):
        rng = random.Random(42)
        clauses = []
        for _ in range(126):
            clause = sorted(rng.sample(range(1, 31), 3))
            clauses.append([v if rng.random() < 0.5 else -v for v in clause])
        return clauses

    def test_counters_unchanged_on_fixed_formula(self):
        clauses = self._fixed_formula()
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        assert check_model(clauses, result.model)
        assert (result.propagations, result.decisions, result.conflicts) == (52, 15, 5)

    def test_counters_unchanged_under_assumptions(self):
        clauses = self._fixed_formula()
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        result = solver.solve(assumptions=[1, -2])
        assert result.satisfiable
        assert (result.propagations, result.decisions, result.conflicts) == (30, 9, 0)

    def test_unmoved_watch_lists_keep_their_contents(self):
        # A solve that moves no watches must leave every clause still
        # watched by exactly two literals (the invariant the lazy rebuild
        # relies on); re-solving after backtracking exercises the same
        # lists again and must reach the same model.
        solver = SatSolver()
        solver.add_clause([1, 2, 3])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        first = solver.solve()
        second = solver.solve()
        assert first.satisfiable and second.satisfiable
        assert first.model == second.model
