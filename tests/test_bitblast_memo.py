"""The bit-blasting memo and the inlined strash kernels leave the AIG unchanged.

:class:`repro.ipc.transition.TransitionEncoder` memoizes blasted vectors
under ``(signal, support leaf vectors)``, and :class:`repro.aig.aig.AIG`
inlines the strash step of its hot gate chains.  Both are pure speedups: the
AIG must be identical node for node (same ``_nodes`` order, same input
names) to the one a plain blast through ``and_`` builds, so CNF numbering,
simulation patterns and witnesses cannot move.  The reference runs below
disable the memo by making every frame report an incomplete support.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG, FALSE, TRUE
from repro.api import Design, DetectionConfig, DetectionSession
from repro.core.unroll import SequentialUnroller, sequential_output_classes
from repro.ipc.engine import IpcEngine
from repro.ipc.prop import IntervalProperty
from repro.ipc.transition import SymbolicFrame
from repro.rtl import exprs
from repro.rtl.ir import Module, Register

WIDTH = 4


@contextmanager
def memo_disabled():
    with mock.patch.object(SymbolicFrame, "_memo_key", lambda self, name: None):
        yield


def _fingerprint(aig: AIG):
    return list(aig._nodes), dict(aig._input_names)


# --------------------------------------------------------------------------- #
# Random modules and properties
# --------------------------------------------------------------------------- #


def _random_expr(rng: random.Random, names, depth: int) -> exprs.Expr:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return exprs.const(rng.getrandbits(WIDTH), WIDTH)
        return exprs.ref(rng.choice(names), WIDTH)
    choice = rng.random()
    if choice < 0.45:
        op = rng.choice([exprs.BinaryOp.AND, exprs.BinaryOp.OR, exprs.BinaryOp.XOR,
                         exprs.BinaryOp.ADD, exprs.BinaryOp.SUB])
        return exprs.Binop(WIDTH, op, _random_expr(rng, names, depth - 1),
                           _random_expr(rng, names, depth - 1))
    if choice < 0.6:
        return exprs.mux(
            exprs.Binop(1, exprs.BinaryOp.EQ, _random_expr(rng, names, depth - 1),
                        _random_expr(rng, names, depth - 1)),
            _random_expr(rng, names, depth - 1),
            _random_expr(rng, names, depth - 1),
        )
    if choice < 0.8:
        # An inferred ROM: exercises the inlined decoder and OR chains.
        table = tuple(rng.getrandbits(WIDTH) for _ in range(1 << WIDTH))
        return exprs.Lut(width=WIDTH, index=_random_expr(rng, names, depth - 1), table=table)
    return exprs.Unop(WIDTH, exprs.UnaryOp.NOT, _random_expr(rng, names, depth - 1))


def _random_module(rng: random.Random) -> Module:
    inputs = ["a", "b"]
    registers = [f"r{index}" for index in range(rng.randint(2, 4))]
    module = Module(name="random")
    for name in inputs:
        module.inputs[name] = WIDTH
        module.signals[name] = WIDTH
    names = inputs + registers
    wires = []
    for index in range(rng.randint(1, 4)):
        wire = f"w{index}"
        module.comb[wire] = _random_expr(rng, names + wires, 2)
        module.signals[wire] = WIDTH
        wires.append(wire)
    for register in registers:
        module.registers[register] = Register(
            register, WIDTH, _random_expr(rng, names + wires, 2)
        )
        module.signals[register] = WIDTH
    module.outputs[wires[-1]] = WIDTH
    return module


def _random_property(rng: random.Random, module: Module, index: int) -> IntervalProperty:
    prop = IntervalProperty(name=f"p{index}")
    leaves = sorted(module.inputs) + sorted(module.registers)
    for leaf in rng.sample(leaves, rng.randint(1, len(leaves))):
        prop.assume_equal(leaf, 0)
    for name in sorted(module.inputs):
        if rng.random() < 0.5:
            prop.assume_equal(name, 1)
    candidates = sorted(module.registers) + sorted(module.comb)
    for signal in rng.sample(candidates, rng.randint(1, 3)):
        prop.prove_equal(signal, rng.choice([1, 1, 2]) if signal in module.registers else 1)
    return prop


def _check_all(module: Module, props):
    engine = IpcEngine(module)
    verdicts = []
    for prop in props:
        result = engine.check(prop)
        verdicts.append((result.holds, result.structurally_proven,
                         result.cex.values if result.cex else None))
    return engine, verdicts


class TestMemoKeepsTheAig:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_random_modules_and_merge_sets(self, seed):
        rng = random.Random(seed)
        module = _random_module(rng)
        props = [_random_property(rng, module, index) for index in range(3)]
        engine, verdicts = _check_all(module, props)
        with memo_disabled():
            reference, reference_verdicts = _check_all(module, props)
        assert _fingerprint(engine.encoder.aig) == _fingerprint(reference.encoder.aig)
        assert verdicts == reference_verdicts
        assert reference.encoder.memo_hits == 0

    def test_aes_clean_core_node_count_is_pinned(self):
        # AES-HT-FREE --check-all built 331,425 AIG nodes before the memo;
        # the memo serves instance 1's merged cones instead of re-blasting.
        design = Design.from_benchmark("AES-HT-FREE")
        session = DetectionSession(design, design.default_config(stop_at_first_failure=False))
        report = session.run()
        encoder = session.flow.engine.encoder
        assert report.is_secure
        assert encoder.aig.num_nodes == 331_425
        assert encoder.memo_hits > 0

    def test_sequential_unroller_is_unchanged(self):
        design = Design.from_benchmark("RS232-SEQ-T3100")
        golden = design.golden_module()
        outputs = sequential_output_classes(design.module, golden)
        depth = DetectionConfig().depth

        def unroll():
            unroller = SequentialUnroller(design.module, golden)
            results = [unroller.check_output(name, depth) for name in outputs]
            return unroller, [(r.holds, r.cex.values if r.cex else None) for r in results]

        unroller, verdicts = unroll()
        with memo_disabled():
            reference, reference_verdicts = unroll()
        assert _fingerprint(unroller._aig) == _fingerprint(reference._aig)
        assert verdicts == reference_verdicts


# --------------------------------------------------------------------------- #
# Inlined strash kernels against their and_-chain references
# --------------------------------------------------------------------------- #


def _base_aig(rng: random.Random) -> AIG:
    aig = AIG()
    literals = [aig.add_input(f"x{index}") for index in range(5)]
    for _ in range(6):
        a, b = rng.sample(literals, 2)
        literals.append(aig.and_(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1)))
    return aig


def _literal_list(rng: random.Random, aig: AIG):
    pool = [FALSE, TRUE] + [node << 1 for node in range(1, aig.num_nodes)]
    return [rng.choice(pool) ^ rng.getrandbits(1) for _ in range(rng.randint(0, 8))]


def _and_chain(aig: AIG, literals):
    result = TRUE
    for literal in literals:
        result = aig.and_(result, literal)
        if result == FALSE:
            return FALSE
    return result


def _or_chain(aig: AIG, literals):
    result = FALSE
    for literal in literals:
        result = aig.or_(result, literal)
        if result == TRUE:
            return TRUE
    return result


def _decoder_chain(aig: AIG, bits):
    minterms = [TRUE]
    for bit in bits:
        minterms = [aig.and_(term, bit ^ 1) for term in minterms] + [
            aig.and_(term, bit) for term in minterms
        ]
    return minterms


class TestInlinedKernels:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_gate_chains_match_the_and_reference(self, seed):
        rng = random.Random(seed)
        kernels = [
            (AIG.and_many, _and_chain),
            (AIG.or_many, _or_chain),
            (AIG.decoder, _decoder_chain),
        ]
        for kernel, reference_chain in kernels:
            aig, reference = _base_aig(random.Random(seed)), _base_aig(random.Random(seed))
            for _ in range(3):
                literals = _literal_list(rng, aig)
                if kernel is AIG.decoder:
                    literals = literals[:4]
                assert kernel(aig, literals) == reference_chain(reference, literals)
                assert _fingerprint(aig) == _fingerprint(reference)
