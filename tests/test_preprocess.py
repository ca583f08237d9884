"""Tests for the simulation-guided preprocessing subsystem (repro.aig).

Invariants under test:

* the rewrite pass (:func:`repro.aig.simplify.simplify_cone`) and the fraig
  sweep (:class:`repro.aig.fraig.FraigContext`) are *equivalence-preserving*
  — rebuilt cones compute the same function, cross-checked with random
  bit-parallel simulation after the sweep;
* sim-first falsification yields genuine counterexamples with zero CDCL
  calls, and trojan counterexamples survive simplification byte-identically
  under ``exec.normalized_report_dict`` (``--no-simplify`` vs default,
  ``--jobs 1`` vs ``--jobs 2``) across the RS232/AES/SEQ benchmark families;
* the new config knobs validate, fingerprint, and reach the CLI.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG, FALSE, TRUE, negate
from repro.aig.fraig import FraigContext
from repro.aig.simplify import cone_size, rewrite_and, simplify_cone
from repro.aig.simvec import (
    PatternSet,
    find_satisfying_pattern,
    minimize_assignment,
    node_signatures,
)
from repro.api import Design, DetectionConfig, DetectionSession, Waiver
from repro.api.events import CexFound, ClassSimFalsified, ConeSimplified
from repro.errors import ConfigError
from repro.exec import normalized_report_dict
from repro.sat.context import SolverContext


def _random_cone(rng, aig=None, num_inputs=6, num_gates=40):
    aig = aig or AIG()
    literals = [aig.add_input(f"i{k}") for k in range(num_inputs)] or aig.inputs()
    for _ in range(num_gates):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_(a, b))
    return aig, literals[-1] ^ rng.randint(0, 1)


def _functions_agree(aig, left, right, patterns=256, seed=7):
    rng = random.Random(seed)
    inputs = aig.inputs()
    words = {node: rng.getrandbits(patterns) for node in inputs}
    mask = (1 << patterns) - 1
    left_word, right_word = aig.evaluate_words([left, right], words, mask)
    return left_word == right_word


class TestPatternSet:
    def test_words_are_deterministic_and_order_independent(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        root = aig.and_(a, b)
        one = PatternSet(64)
        one.ensure_inputs(aig, [root])
        two = PatternSet(64)
        two.ensure_inputs(aig, [b])  # different discovery order
        two.ensure_inputs(aig, [root])
        assert one.words == two.words

    def test_add_pattern_appends_a_column(self):
        aig = AIG()
        a = aig.add_input("a")
        patterns = PatternSet(8)
        patterns.ensure_inputs(aig, [a])
        index = patterns.add_pattern({a >> 1: 1})
        assert index == 8
        assert patterns.num_patterns == 9
        assert (patterns.words[a >> 1] >> index) & 1 == 1

    def test_find_satisfying_pattern_respects_all_goals(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        patterns = PatternSet(64)
        index = find_satisfying_pattern(aig, [a, negate(b)], patterns)
        assert index is not None
        assert (patterns.words[a >> 1] >> index) & 1 == 1
        assert (patterns.words[b >> 1] >> index) & 1 == 0
        assert find_satisfying_pattern(aig, [a, negate(a)], patterns) is None

    def test_minimize_assignment_zeroes_irrelevant_inputs(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        c = aig.add_input("c")
        goal = aig.and_(a, b)  # c is irrelevant
        full = {a >> 1: 1, b >> 1: 1, c >> 1: 1}
        minimized = minimize_assignment(aig, [goal], full)
        assert minimized == {a >> 1: 1, b >> 1: 1, c >> 1: 0}
        assert aig.evaluate([goal], minimized) == [1]

    @pytest.mark.parametrize("num_patterns", [64, 512])
    def test_columns_and_signatures_match_scalar_evaluate(self, num_patterns):
        rng = random.Random(num_patterns)
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        patterns = PatternSet(num_patterns)
        (word,) = patterns.evaluate(aig, [root])
        signatures = node_signatures(aig, [root], patterns)
        nodes = sorted(signatures)
        for index in range(num_patterns):
            assignment = patterns.extract(aig, [root], index)
            expected = aig.evaluate([root] + [2 * node for node in nodes], assignment)
            assert (word >> index) & 1 == expected[0]
            assert [(signatures[node] >> index) & 1 for node in nodes] == expected[1:]

    def test_minimize_assignment_over_more_than_256_candidates(self):
        # 299 set bits: each round simulates one pattern column per
        # candidate, so the batch is wider than four machine words.
        aig = AIG()
        bits = [aig.add_input(f"i{k}") for k in range(300)]
        goals = [
            aig.and_many(bits[:10]),  # all ten needed
            aig.or_many(bits[100:200]),  # any one suffices
            aig.xor(bits[250], bits[251]),  # 250 set, 251 clear
        ]
        start = {literal >> 1: 1 for literal in bits}
        start[bits[251] >> 1] = 0
        assert aig.evaluate(goals, start) == [1, 1, 1]
        minimized = minimize_assignment(aig, goals, start)
        assert aig.evaluate(goals, minimized) == [1, 1, 1]
        kept = {k for k, literal in enumerate(bits) if minimized[literal >> 1]}
        assert kept == set(range(10)) | {199, 250}


class TestRewriteRules:
    def test_containment_and_contradiction(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        ab = aig.and_(a, b)
        assert rewrite_and(aig, ab, a) == ab
        assert rewrite_and(aig, ab, negate(a)) == FALSE

    def test_negated_and_substitution(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        nab = negate(aig.and_(a, b))
        assert rewrite_and(aig, nab, a) == aig.and_(a, negate(b))
        assert rewrite_and(aig, nab, negate(a)) == negate(a)

    def test_cross_and_contradiction(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        c = aig.add_input("c")
        assert rewrite_and(aig, aig.and_(a, b), aig.and_(negate(a), c)) == FALSE

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50)
    def test_rewrite_preserves_function_on_random_cones(self, seed):
        rng = random.Random(seed)
        aig, root = _random_cone(rng)
        result = simplify_cone(aig, [root])
        assert _functions_agree(aig, root, result.roots[0])
        assert result.nodes_after <= result.nodes_before


class TestFraigSweep:
    def _duplicated_cone(self):
        """Two structurally different but equivalent cones: x&(y&z) vs (x&y)&z
        built around a blocker input so strashing cannot collapse them."""
        aig = AIG()
        x = aig.add_input("x")
        y = aig.add_input("y")
        z = aig.add_input("z")
        left = aig.and_(x, aig.and_(y, z))
        right = aig.and_(aig.and_(x, y), z)
        return aig, left, right

    def test_sweep_merges_equivalent_nodes(self):
        aig, left, right = self._duplicated_cone()
        assert left != right  # strash alone cannot identify them
        miter = aig.xor(left, right)
        fraig = FraigContext(
            aig=aig,
            context=SolverContext(aig, backend="python"),
            patterns=PatternSet(64),
            rounds=2,
        )
        swept, stats = fraig.sweep([miter])
        assert stats.merged_nodes >= 1
        assert swept.roots[0] == FALSE  # proven equivalent -> miter collapses
        assert _functions_agree(aig, miter, swept.roots[0])

    def test_blown_conflict_limit_leaves_the_pair_unproven(self):
        # Every UNSAT proof needs at least one conflict, so a limit of one
        # aborts it: the pair counts as unknown and is never merged.
        aig, left, right = self._duplicated_cone()
        miter = aig.xor(left, right)
        fraig = FraigContext(
            aig=aig,
            context=SolverContext(aig, backend="python"),
            patterns=PatternSet(64),
            conflict_limit=1,
        )
        swept, stats = fraig.sweep([miter])
        assert stats.proofs_unknown >= 1
        assert stats.merged_nodes == 0 and not fraig.merges
        assert _functions_agree(aig, miter, swept.roots[0])

    def test_sweep_proves_constant_trigger_cones(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        # a & !a & b is structurally folded; build a non-obvious constant:
        # (a & b) & (a & !b) == 0, hidden behind two gates.
        constant = aig.and_(aig.and_(a, b), aig.and_(a, negate(b)))
        if constant == FALSE:
            pytest.skip("constructor folded the cone; nothing to sweep")
        fraig = FraigContext(
            aig=aig,
            context=SolverContext(aig, backend="python"),
            patterns=PatternSet(64),
        )
        swept, _stats = fraig.sweep([constant])
        assert swept.roots[0] == FALSE

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_sweep_preserves_function_on_random_cones(self, seed):
        rng = random.Random(seed)
        aig, root = _random_cone(rng, num_inputs=5, num_gates=30)
        fraig = FraigContext(
            aig=aig,
            context=SolverContext(aig, backend="python"),
            patterns=PatternSet(32),
            rounds=2,
        )
        swept, _stats = fraig.sweep([root])
        assert _functions_agree(aig, root, swept.roots[0])
        # Merges must also hold under fresh random patterns (post-sweep
        # cross-check with a seed the sweep never saw).
        assert _functions_agree(aig, root, swept.roots[0], seed=seed ^ 0xDEAD)


def _benchmark_config(design: Design, **overrides) -> DetectionConfig:
    waivers = [
        Waiver(signal=name, reason=f"recommended for {design.name}")
        for name in design.recommended_waivers
    ]
    kwargs = dict(inputs=list(design.data_inputs) or None, waivers=waivers)
    kwargs.update(overrides)
    return DetectionConfig(**kwargs)


def _audit(name: str, **overrides):
    design = Design.from_benchmark(name)
    if "-SEQ-" in name:
        config = DetectionConfig(mode="sequential", depth=8, **overrides)
    else:
        config = _benchmark_config(design, **overrides)
    return DetectionSession(design, config=config).run()


class TestSimplifyEquivalence:
    """Trojan counterexamples survive simplification byte-identically."""

    @pytest.mark.parametrize(
        "bench_name",
        ["RS232-T2400", "RS232-HT-FREE", "AES-T1400", "RS232-SEQ-T3000"],
    )
    def test_no_simplify_and_default_reports_are_identical(self, bench_name):
        default = _audit(bench_name)
        plain = _audit(bench_name, simplify=False)
        assert normalized_report_dict(default.to_dict()) == normalized_report_dict(
            plain.to_dict()
        )
        if default.counterexample is not None:
            assert (
                default.counterexample.values == plain.counterexample.values
            ), "counterexample must be byte-identical across simplify modes"

    @pytest.mark.parametrize("bench_name", ["RS232-T2400", "RS232-SEQ-T3000"])
    def test_jobs_one_and_two_reports_are_identical(self, bench_name):
        serial = _audit(bench_name)
        parallel = _audit(bench_name, jobs=2)
        assert normalized_report_dict(serial.to_dict()) == normalized_report_dict(
            parallel.to_dict()
        )

    @pytest.mark.parametrize(
        "bench_name", ["RS232-T2400", "RS232-HT-FREE", "RS232-SEQ-T3000"]
    )
    def test_wide_pattern_batches_leave_the_report_unchanged(self, bench_name):
        # The batch width only changes how soon simulation finds a witness;
        # the canonical re-settle keeps verdict and counterexample fixed.
        default = _audit(bench_name)
        wide = _audit(bench_name, sim_patterns=512)
        assert normalized_report_dict(default.to_dict()) == normalized_report_dict(
            wide.to_dict()
        )
        if default.counterexample is not None:
            assert default.counterexample.values == wide.counterexample.values

    def test_sim_falsification_skips_the_solver(self):
        report = _audit("RS232-T2400")
        assert report.trojan_detected
        assert report.preprocess_sim_falsified > 0
        assert report.solver_conflicts == 0
        failing = report.failing_outcome()
        assert failing.result.sim_falsified
        assert failing.result.solver_calls == 0

    def test_counterexample_is_a_genuine_witness(self):
        # The minimized sim-model must replay as a true divergence: both
        # instances' recorded output values differ in the failing signals.
        report = _audit("AES-T100")
        cex = report.counterexample
        assert cex is not None and cex.failing_signals
        for _signal, _time, left, right in cex.failing_signals:
            assert left != right

    def test_no_simplify_report_hides_preprocess_telemetry(self):
        report = _audit("RS232-T2400", simplify=False)
        assert report.trojan_detected
        assert report.preprocess_sim_falsified == 0
        assert report.preprocess_merged_nodes == 0


class TestPreprocessEventsAndConfig:
    def test_sim_falsified_event_is_emitted(self):
        design = Design.from_benchmark("RS232-T2400")
        session = DetectionSession(design, config=_benchmark_config(design))
        events = list(session.iter_results())
        assert any(isinstance(event, ClassSimFalsified) for event in events)
        cex_events = [event for event in events if isinstance(event, CexFound)]
        assert cex_events and not cex_events[-1].auto_resolvable

    def test_no_simplify_emits_no_preprocess_events(self):
        design = Design.from_benchmark("RS232-T2400")
        session = DetectionSession(
            design, config=_benchmark_config(design, simplify=False)
        )
        events = list(session.iter_results())
        assert not any(
            isinstance(event, (ClassSimFalsified, ConeSimplified)) for event in events
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="simplify"):
            DetectionConfig(simplify="yes")
        with pytest.raises(ConfigError, match="sim_patterns"):
            DetectionConfig(sim_patterns=0)
        with pytest.raises(ConfigError, match="fraig_rounds"):
            DetectionConfig(fraig_rounds=-1)
        with pytest.raises(ConfigError, match="sim_patterns"):
            DetectionConfig(sim_patterns=True)

    def test_report_schema_round_trips_preprocess_block(self):
        from repro.core.report import DetectionReport, SCHEMA_VERSION

        report = _audit("RS232-T2400")
        data = report.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["preprocess"]["sim_falsified"] > 0
        rebuilt = DetectionReport.from_dict(data)
        assert rebuilt.to_dict() == data
        assert "preprocess" not in normalized_report_dict(data)

    def test_cli_flags_reach_the_config(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(
            ["run", "--benchmark", "RS232-T2400", "--json", "--sim-patterns", "32"]
        )
        assert exit_code == 1  # trojan found
        import json as _json

        data = _json.loads(capsys.readouterr().out)
        assert data["preprocess"]["sim_falsified"] > 0

        exit_code = main(["run", "--benchmark", "RS232-T2400", "--json", "--no-simplify"])
        assert exit_code == 1
        data = _json.loads(capsys.readouterr().out)
        assert data["preprocess"]["sim_falsified"] == 0
