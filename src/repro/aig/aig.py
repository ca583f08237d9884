"""And-Inverter Graph with structural hashing.

Literal encoding
----------------
A *node* is an integer index; node ``0`` is the constant-false node.  A
*literal* is ``2 * node + sign`` where ``sign == 1`` denotes complementation,
so ``FALSE == 0`` and ``TRUE == 1``.  Inputs (free variables) and AND nodes
share the node index space.

Structural hashing plus the usual two-level simplification rules mean that
two structurally identical cones built over the same input literals collapse
to the same literal.  The 2-safety engine of :mod:`repro.ipc.engine` relies on
this: after substituting assumed-equal signals of the second design instance
by the literals of the first, an untampered logic cone hashes to the
identical literal and the proof obligation discharges without any SAT call.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

FALSE = 0
TRUE = 1


def negate(literal: int) -> int:
    """Complement a literal."""
    return literal ^ 1


class AIG:
    """A mutable And-Inverter Graph."""

    def __init__(self) -> None:
        # _nodes[i] is None for primary inputs, or (left_lit, right_lit) for ANDs.
        self._nodes: List[Optional[Tuple[int, int]]] = [None]  # node 0 = constant false
        # Fanin pair -> positive literal of its AND node.  Handing out the
        # one stored literal object on every hit lets all fanout tuples share
        # it instead of each holding an int of its own.
        self._strash: Dict[Tuple[int, int], int] = {}
        self._input_names: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: Optional[str] = None) -> int:
        """Create a fresh primary input and return its positive literal."""
        node = len(self._nodes)
        self._nodes.append(None)
        if name is not None:
            self._input_names[node] = name
        return node << 1

    def and_(self, a: int, b: int) -> int:
        """Return a literal for ``a AND b`` with two-level simplification."""
        if a == FALSE or b == FALSE or a == negate(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        literal = self._strash.get(key)
        if literal is None:
            literal = len(self._nodes) << 1
            self._nodes.append(key)
            self._strash[key] = literal
        return literal

    def not_(self, a: int) -> int:
        return negate(a)

    def or_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(a), negate(b)))

    def xor(self, a: int, b: int) -> int:
        # (a AND NOT b) OR (NOT a AND b)
        return self.or_(self.and_(a, negate(b)), self.and_(negate(a), b))

    def xnor(self, a: int, b: int) -> int:
        return negate(self.xor(a, b))

    def mux(self, select: int, then: int, otherwise: int) -> int:
        """``select ? then : otherwise``"""
        if select == TRUE:
            return then
        if select == FALSE:
            return otherwise
        if then == otherwise:
            return then
        return self.or_(self.and_(select, then), self.and_(negate(select), otherwise))

    def and_many(self, literals: Iterable[int]) -> int:
        """AND of ``literals``, folded left to right like an ``and_`` chain.

        The strash step is inlined (this is the hot loop of every LUT output
        bit and of :meth:`or_many`): the result literal and the order in
        which new nodes are created are exactly those of
        ``result = and_(result, literal)`` from ``TRUE``, stopping at
        ``FALSE``.
        """
        nodes = self._nodes
        strash = self._strash
        result = TRUE
        for literal in literals:
            if literal == FALSE or result == literal ^ 1:
                return FALSE
            if result == TRUE:
                result = literal
            elif literal != TRUE and result != literal:
                key = (result, literal) if result < literal else (literal, result)
                result = strash.get(key)
                if result is None:
                    result = len(nodes) << 1
                    nodes.append(key)
                    strash[key] = result
        return result

    def or_many(self, literals: Iterable[int]) -> int:
        """OR of ``literals``: the complement of the AND of their complements,
        which is literal for literal and node for node the ``or_`` chain."""
        return negate(self.and_many(literal ^ 1 for literal in literals))

    def decoder(self, bits: Sequence[int]) -> List[int]:
        """One-hot minterms of ``bits`` (LSB first): entry ``i`` is true iff
        the bits spell ``i``.

        Each bit doubles the term list — every term ANDed with the bit's
        complement, then every term ANDed with the bit — with the strash
        step inlined; literals and node-creation order are exactly those of
        the equivalent ``and_(term, ~bit)`` / ``and_(term, bit)`` loops.
        """
        nodes = self._nodes
        strash = self._strash
        minterms = [TRUE]
        for bit in bits:
            expanded: List[int] = []
            append = expanded.append
            for b in (bit ^ 1, bit):
                for a in minterms:
                    if a == FALSE or b == FALSE or a == b ^ 1:
                        append(FALSE)
                    elif a == TRUE:
                        append(b)
                    elif b == TRUE or a == b:
                        append(a)
                    else:
                        key = (a, b) if a < b else (b, a)
                        literal = strash.get(key)
                        if literal is None:
                            literal = len(nodes) << 1
                            nodes.append(key)
                            strash[key] = literal
                        append(literal)
            minterms = expanded
        return minterms

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_and_nodes(self) -> int:
        return sum(1 for node in self._nodes if node is not None)

    def is_input(self, node: int) -> bool:
        return node != 0 and self._nodes[node] is None

    def is_and(self, node: int) -> bool:
        return self._nodes[node] is not None

    def node_of(self, literal: int) -> int:
        return literal >> 1

    def fanins(self, node: int) -> Tuple[int, int]:
        children = self._nodes[node]
        if children is None:
            raise ValueError(f"node {node} is not an AND node")
        return children

    def input_name(self, node: int) -> Optional[str]:
        return self._input_names.get(node)

    def inputs(self) -> List[int]:
        """All primary-input nodes."""
        return [node for node in range(1, len(self._nodes)) if self._nodes[node] is None]

    # ------------------------------------------------------------------ #
    # Cone traversal and evaluation
    # ------------------------------------------------------------------ #

    def cone_nodes(self, roots: Iterable[int]) -> List[int]:
        """All nodes in the transitive fanin cone of the root literals, topologically sorted."""
        seen = set()
        order: List[int] = []
        # Iterative DFS with explicit post-ordering.
        visit_stack: List[Tuple[int, bool]] = [
            (self.node_of(literal), False) for literal in roots
        ]
        while visit_stack:
            node, processed = visit_stack.pop()
            if processed:
                order.append(node)
                continue
            if node in seen or node == 0:
                continue
            seen.add(node)
            visit_stack.append((node, True))
            children = self._nodes[node]
            if children is not None:
                left, right = children
                visit_stack.append((self.node_of(left), False))
                visit_stack.append((self.node_of(right), False))
        return order

    def evaluate(self, roots: Iterable[int], input_values: Dict[int, int]) -> List[int]:
        """Evaluate root literals under an assignment of input *nodes* to 0/1.

        One pass over the union cone of all roots, with node-indexed byte
        arrays for the visited flags and values.  Node indices are a
        topological order (fanins are always created first), so a downward
        sweep marks the cone and an upward sweep evaluates it; ``compress``
        skips the unmarked nodes of both sweeps.
        """
        roots = list(roots)
        nodes = self._nodes
        count = len(nodes)
        marked = bytearray(count)
        for literal in roots:
            marked[literal >> 1] = 1
        # The reversed view reads each flag when reached, after every fanout
        # (a higher index) has had its chance to mark it.
        for node in compress(range(count - 1, -1, -1), reversed(marked)):
            children = nodes[node]
            if children is not None:
                marked[children[0] >> 1] = 1
                marked[children[1] >> 1] = 1
        marked[0] = 0  # the constant node: its value stays 0
        values = bytearray(count)
        for node in compress(range(count), marked):
            children = nodes[node]
            if children is None:
                values[node] = input_values.get(node, 0) & 1
            else:
                left, right = children
                values[node] = (values[left >> 1] ^ (left & 1)) & (values[right >> 1] ^ (right & 1))
        return [values[literal >> 1] ^ (literal & 1) for literal in roots]

    def evaluate_word_values(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]] = None,
    ) -> Dict[int, int]:
        """Bit-parallel evaluation: word of every node in the roots' cone.

        The shared kernel of :meth:`evaluate_words` and the fraig sweep's
        signature computation: ``input_words`` maps input *nodes* to machine
        words holding one assignment bit per pattern (bit ``i`` of every
        word belongs to pattern ``i``), ``mask`` is the all-ones word
        ``(1 << patterns) - 1``, and the returned dict holds the
        positive-literal word of every cone node.  Python ints carry
        arbitrarily many patterns in one word, so a single cone traversal
        evaluates the whole batch — complemented literals XOR against the
        mask instead of flipping bits one by one.  Callers that already
        hold the roots' topologically sorted cone pass it via ``cone`` to
        skip the repeat traversal.
        """
        nodes = self._nodes
        values: Dict[int, int] = {0: 0}
        for node in cone if cone is not None else self.cone_nodes(roots):
            children = nodes[node]
            if children is None:
                values[node] = input_words.get(node, 0) & mask
            else:
                left, right = children
                left_word = values[left >> 1]
                if left & 1:
                    left_word ^= mask
                right_word = values[right >> 1]
                if right & 1:
                    right_word ^= mask
                values[node] = left_word & right_word
        return values

    def evaluate_words(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]] = None,
    ) -> List[int]:
        """Bit-parallel evaluation of root literals over a batch of patterns.

        One word per root literal, in root order; see
        :meth:`evaluate_word_values` for the word semantics.
        """
        roots = list(roots)
        values = self.evaluate_word_values(roots, input_words, mask, cone=cone)
        results = []
        for literal in roots:
            word = values.get(literal >> 1, 0)
            results.append(word ^ mask if literal & 1 else word)
        return results
