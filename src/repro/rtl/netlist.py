"""Structural netlist views of a flat RTL module.

The detection method of the paper relies on a purely *structural* analysis
(``Get_Fanout`` in Algorithm 1): syntactic dependencies of state-holding
elements and outputs on other signals, traced through combinational logic.
This module provides those views on top of :class:`repro.rtl.ir.Module`:

* the combinational dependency graph (and cycle detection),
* the *leaf support* of any signal — the primary inputs and registers its
  value combinationally depends on,
* the one-clock-cycle register-level dependency graph used by
  :mod:`repro.rtl.fanout`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

import networkx as nx

from repro.errors import ElaborationError
from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.utils.graphs import find_cycle


class DependencyGraph:
    """Structural dependency analysis over a flat module."""

    def __init__(self, module: Module) -> None:
        self._module = module
        # Direct (one-level) support of every combinational driver.
        self._drivers_support: Dict[str, FrozenSet[str]] = {
            name: frozenset(exprs.support(expr)) for name, expr in module.comb.items()
        }
        # The networkx graph serves only the cycle check; the support queries
        # walk the direct supports above, so the graph is not kept.
        self._check_comb_cycles(self._build_comb_graph())
        self._leaf_support_cache: Dict[str, FrozenSet[str]] = {}
        self._next_support_cache: Dict[str, FrozenSet[str]] = {}

    @property
    def module(self) -> Module:
        return self._module

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #

    def _build_comb_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(self._module.signals)
        for name, support in self._drivers_support.items():
            for dependency in support:
                graph.add_edge(dependency, name)
        return graph

    def _check_comb_cycles(self, comb_graph: nx.DiGraph) -> None:
        cycle = find_cycle(comb_graph)
        if cycle:
            raise ElaborationError(
                "combinational loop detected through signals: " + " -> ".join(cycle[:8])
            )

    # ------------------------------------------------------------------ #
    # Support queries
    # ------------------------------------------------------------------ #

    def is_leaf(self, name: str) -> bool:
        """Leaves of combinational cones: primary inputs and registers."""
        return self._module.is_input(name) or self._module.is_register(name)

    def leaf_support_of_expr(self, expr: exprs.Expr) -> Set[str]:
        """Primary inputs and registers the expression transitively depends on."""
        result: Set[str] = set()
        for name in exprs.support(expr):
            result |= self._leaf_support(name)
        return result

    def leaf_support(self, name: str) -> Set[str]:
        """Primary inputs and registers signal ``name`` combinationally depends on.

        For a register or input, this is the signal itself (its *value* at a
        time point is a leaf); combinational wires and outputs are expanded
        through their drivers.
        """
        return set(self._leaf_support(name))

    def _leaf_support(self, name: str) -> FrozenSet[str]:
        """Cached leaf support; every combinational signal on the way is
        resolved once, from the supports of its direct dependencies."""
        cache = self._leaf_support_cache
        cached = cache.get(name)
        if cached is not None:
            return cached
        drivers = self._drivers_support
        stack: List[str] = [name]
        while stack:
            current = stack[-1]
            if current in cache:
                stack.pop()
                continue
            direct = drivers.get(current)
            if direct is None or self.is_leaf(current):
                # A leaf, or an undriven wire treated as its own leaf so
                # problems stay visible.
                cache[current] = frozenset((current,))
                stack.pop()
                continue
            missing = [dependency for dependency in direct if dependency not in cache]
            if missing:
                stack.extend(missing)
                continue
            result: Set[str] = set()
            for dependency in direct:
                result |= cache[dependency]
            cache[current] = frozenset(result)
            stack.pop()
        return cache[name]

    def next_state_leaf_support(self, register: str) -> Set[str]:
        """Leaf support of the next-state function of ``register``."""
        cached = self._next_support_cache.get(register)
        if cached is None:
            cached = frozenset(
                self.leaf_support_of_expr(self._module.registers[register].next)
            )
            self._next_support_cache[register] = cached
        return set(cached)

    # ------------------------------------------------------------------ #
    # One-clock-cycle register-level graph
    # ------------------------------------------------------------------ #

    def cycle_graph(self, data_inputs: Iterable[str] | None = None) -> nx.DiGraph:
        """Graph whose edge ``a -> b`` means: the value of leaf ``a`` at cycle t
        can affect the value of state/output signal ``b`` at cycle t+1 (for
        registers) or the combinational value of output ``b`` (for outputs).

        Nodes are primary data inputs, registers and primary outputs.
        """
        module = self._module
        inputs = set(data_inputs) if data_inputs is not None else set(module.data_inputs())
        graph = nx.DiGraph()
        graph.add_nodes_from(inputs)
        graph.add_nodes_from(module.registers)
        graph.add_nodes_from(module.outputs)
        for register in module.registers:
            for leaf in self.next_state_leaf_support(register):
                if leaf in inputs or leaf in module.registers:
                    graph.add_edge(leaf, register)
        for output in module.outputs:
            if output in module.registers:
                continue
            for leaf in self.leaf_support(output):
                if leaf in inputs or leaf in module.registers:
                    graph.add_edge(leaf, output)
        return graph

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def signals_depending_on(self, sources: Iterable[str]) -> Set[str]:
        """State/output signals whose next value depends on any of ``sources``.

        This is the paper's ``Get_Fanout(IP, sources)``: one clock cycle of
        structural reachability.
        """
        sources = set(sources)
        module = self._module
        result: Set[str] = set()
        for register in module.registers:
            if self.next_state_leaf_support(register) & sources:
                result.add(register)
        for output in module.outputs:
            if output in module.registers:
                continue
            if self.leaf_support(output) & sources:
                result.add(output)
        return result
