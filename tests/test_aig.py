"""Tests for the And-Inverter Graph."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.aig.aig import AIG, FALSE, TRUE, negate


class TestSimplificationRules:
    def test_and_with_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, FALSE) == FALSE

    def test_and_with_true(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, TRUE) == a

    def test_and_idempotent(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, a) == a

    def test_and_with_complement_is_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, negate(a)) == FALSE

    def test_structural_hashing_shares_nodes(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        first = aig.and_(a, b)
        second = aig.and_(b, a)
        assert first == second
        assert aig.num_and_nodes == 1

    def test_mux_constant_select(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert aig.mux(TRUE, a, b) == a
        assert aig.mux(FALSE, a, b) == b

    def test_mux_same_branches(self):
        aig = AIG()
        s, a = aig.add_input("s"), aig.add_input("a")
        assert aig.mux(s, a, a) == a

    def test_or_many_short_circuits_on_true(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.or_many([a, TRUE, aig.add_input("b")]) == TRUE

    def test_and_many_short_circuits_on_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_many([a, FALSE]) == FALSE

    def test_input_names_recorded(self):
        aig = AIG()
        literal = aig.add_input("my_signal[3]")
        assert aig.input_name(literal >> 1) == "my_signal[3]"


class TestEvaluation:
    def _truth_table(self, build):
        """Evaluate a two-input function built over an AIG for all input values."""
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        root = build(aig, a, b)
        table = {}
        for va, vb in itertools.product((0, 1), repeat=2):
            table[(va, vb)] = aig.evaluate([root], {a >> 1: va, b >> 1: vb})[0]
        return table

    def test_and_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.and_(a, b))
        assert table == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}

    def test_or_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.or_(a, b))
        assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_xor_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.xor(a, b))
        assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}

    def test_xnor_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.xnor(a, b))
        assert table == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}

    def test_mux_truth_table(self):
        aig = AIG()
        s, a, b = aig.add_input("s"), aig.add_input("a"), aig.add_input("b")
        root = aig.mux(s, a, b)
        for vs, va, vb in itertools.product((0, 1), repeat=3):
            expected = va if vs else vb
            value = aig.evaluate([root], {s >> 1: vs, a >> 1: va, b >> 1: vb})[0]
            assert value == expected

    def test_constants_evaluate(self):
        aig = AIG()
        assert aig.evaluate([TRUE, FALSE], {}) == [1, 0]

    def test_missing_input_defaults_to_zero(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.evaluate([a], {}) == [0]

    def test_cone_nodes_topological(self):
        aig = AIG()
        a, b, c = (aig.add_input(x) for x in "abc")
        ab = aig.and_(a, b)
        root = aig.and_(ab, c)
        order = aig.cone_nodes([root])
        assert order.index(ab >> 1) < order.index(root >> 1)

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=16))
    def test_composed_expression_matches_python(self, rows):
        aig = AIG()
        a, b, c = (aig.add_input(x) for x in "abc")
        # f = (a AND b) XOR (NOT c)
        root = aig.xor(aig.and_(a, b), negate(c))
        for va, vb, vc in rows:
            expected = int((va and vb) != (not vc))
            value = aig.evaluate(
                [root], {a >> 1: int(va), b >> 1: int(vb), c >> 1: int(vc)}
            )[0]
            assert value == expected


def _random_cone(rng, num_inputs=5, num_gates=25):
    """A random AIG cone over ``num_inputs`` inputs; returns (aig, root)."""
    aig = AIG()
    literals = [aig.add_input(f"i{k}") for k in range(num_inputs)]
    for _ in range(num_gates):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_(a, b))
    return aig, literals[-1] ^ rng.randint(0, 1)


class TestEvaluateWords:
    # Widths straddle one 64-bit machine word and the 256-pattern mark;
    # Python ints make every width one traversal of the cone.
    @pytest.mark.parametrize("num_patterns", [1, 16, 64, 65, 257, 1000])
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_matches_scalar_evaluate_on_random_cones(self, num_patterns, seed):
        import random

        rng = random.Random(seed)
        aig, root = _random_cone(rng)
        inputs = aig.inputs()
        words = {node: rng.getrandbits(num_patterns) for node in inputs}
        mask = (1 << num_patterns) - 1
        word = aig.evaluate_words([root], words, mask)[0]
        values = aig.evaluate_word_values([root], words, mask)
        nodes = sorted(values)
        for index in range(num_patterns):
            scalar = {node: (words[node] >> index) & 1 for node in inputs}
            expected = aig.evaluate([root] + [2 * node for node in nodes], scalar)
            assert (word >> index) & 1 == expected[0]
            assert [(values[node] >> index) & 1 for node in nodes] == expected[1:]

    def test_constant_roots(self):
        aig = AIG()
        aig.add_input("a")
        mask = (1 << 8) - 1
        assert aig.evaluate_words([TRUE], {}, mask) == [mask]
        assert aig.evaluate_words([FALSE], {}, mask) == [0]

    def test_constant_and_input_roots_on_a_wide_batch(self):
        import random

        aig = AIG()
        a = aig.add_input("a")
        mask = (1 << 200) - 1
        word = random.Random(3).getrandbits(200)
        roots = [FALSE, TRUE, a, negate(a)]
        assert aig.evaluate_words(roots, {a >> 1: word}, mask) == [
            0,
            mask,
            word,
            word ^ mask,
        ]

    @pytest.mark.parametrize("num_patterns", [1, 65, 300])
    def test_complemented_roots_are_bitwise_inverses(self, num_patterns):
        import random

        rng = random.Random(num_patterns)
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        mask = (1 << num_patterns) - 1
        words = {node: rng.getrandbits(num_patterns) for node in aig.inputs()}
        positive, negative = aig.evaluate_words([root, negate(root)], words, mask)
        assert positive ^ negative == mask
        node_word = aig.evaluate_word_values([root], words, mask)[root >> 1]
        assert positive == (node_word ^ mask if root & 1 else node_word)

    def test_cones_grown_on_a_shared_aig_match_scalar_evaluate(self):
        # The fraig sweep and the unroller append to one AIG between
        # evaluations; nodes added later must simulate like the old ones.
        import random

        rng = random.Random(11)
        aig, first = _random_cone(rng, num_inputs=4, num_gates=15)
        literals = [2 * node for node in aig.inputs()]
        for _ in range(25):
            left = rng.choice(literals + [first]) ^ rng.randint(0, 1)
            right = rng.choice(literals + [first]) ^ rng.randint(0, 1)
            literals.append(aig.and_(left, right))
        second = literals[-1]
        num_patterns = 128
        mask = (1 << num_patterns) - 1
        words = {node: rng.getrandbits(num_patterns) for node in aig.inputs()}
        got = aig.evaluate_words([first, second], words, mask)
        for index in range(num_patterns):
            scalar = {node: (words[node] >> index) & 1 for node in aig.inputs()}
            expected = aig.evaluate([first, second], scalar)
            assert [(word >> index) & 1 for word in got] == expected

    def test_precomputed_cone_gives_the_same_words(self):
        import random

        rng = random.Random(5)
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        mask = (1 << 100) - 1
        words = {node: rng.getrandbits(100) for node in aig.inputs()}
        cone = aig.cone_nodes([root])
        assert aig.evaluate_words([root], words, mask, cone=cone) == (
            aig.evaluate_words([root], words, mask)
        )
        assert aig.evaluate_word_values([root], words, mask, cone=cone) == (
            aig.evaluate_word_values([root], words, mask)
        )

    def test_untracked_inputs_default_to_zero(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        node = aig.and_(a, b)
        mask = 0b1111
        assert aig.evaluate_words([node], {a >> 1: mask}, mask) == [0]


class TestNodeCounting:
    def test_num_and_nodes_counts_only_and_gates(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        assert aig.num_and_nodes == 0
        aig.and_(a, b)
        assert aig.num_and_nodes == 1
        assert aig.num_nodes == 4  # constant + 2 inputs + 1 AND
