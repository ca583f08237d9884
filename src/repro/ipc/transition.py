"""Symbolic transition encoding of a flat RTL module onto an AIG.

A :class:`SymbolicFrame` assigns an AIG literal vector to every *leaf* signal
(primary input or register) of one design instance at one time point.  All
combinational signals and the next-state functions are then derived lazily
and cached inside the frame.

Frames of different instances/time points share one AIG, so identical logic
cones built over identical leaf vectors collapse to identical literals via
structural hashing — the mechanism the 2-safety equivalence proofs rely on.

Because the AIG is append-only and strashed, bit-blasting a signal is a pure
function of its driver and the literal vectors of its leaf support.  The
encoder therefore memoizes every blasted vector under ``(signal, support
vectors)``: a frame whose support leaves are bound to vectors some earlier
frame already blasted over — instance 1's merged leaves in a 2-safety check,
say — takes the vector without lowering the cone again.  The memo is only
consulted when every support leaf is already materialised, so a hit skips
nothing but ``and_`` calls that strash would fold back: the AIG stays node
for node identical to the one a plain blast builds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.aig.aig import AIG
from repro.aig.bitblast import BitBlaster, Vector
from repro.errors import BitblastError
from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph

#: Frame-cache and memo key prefix of a register's next-state vector.
_NEXT = "next::"


class SymbolicFrame:
    """Literal vectors of one design instance at one time point.

    Leaves are materialised *lazily*: a register of a frame with a
    ``predecessor`` takes the predecessor's next-state cone on first use,
    every other unbound leaf becomes a fresh symbolic variable.  Laziness
    matters because the property checker binds assumption-merged leaves
    before any cone is built — only leaves that are still unbound at their
    first use become free variables of the proof.
    """

    def __init__(
        self,
        encoder: "TransitionEncoder",
        label: str,
        predecessor: Optional["SymbolicFrame"] = None,
    ) -> None:
        self._encoder = encoder
        self._label = label
        self._predecessor = predecessor
        self._leaves: Dict[str, Vector] = {}
        # Interned id of every materialised leaf vector (the memo key parts).
        self._leaf_ids: Dict[str, int] = {}
        self._cache: Dict[str, Vector] = {}

    @property
    def label(self) -> str:
        return self._label

    @property
    def predecessor(self) -> Optional["SymbolicFrame"]:
        return self._predecessor

    @property
    def leaves(self) -> Dict[str, Vector]:
        return self._leaves

    def bind_leaf(self, name: str, vector: Vector) -> None:
        """Bind a primary input or register to an existing literal vector."""
        self._set_leaf(name, list(vector))

    def _set_leaf(self, name: str, vector: Vector) -> None:
        self._leaves[name] = vector
        self._leaf_ids[name] = self._encoder.intern(vector)

    def is_bound(self, name: str) -> bool:
        return name in self._leaves

    def leaf_vector(self, name: str) -> Vector:
        """Vector of a leaf signal, materialising it on first use."""
        vector = self._leaves.get(name)
        if vector is None:
            if self._predecessor is not None and self._encoder.module.is_register(name):
                vector = self._predecessor.next_state_of(name)
            else:
                width = self._encoder.module.width_of(name)
                vector = self._encoder.blaster.fresh_vector(f"{self._label}:{name}", width)
            self._set_leaf(name, vector)
        return vector

    def vector_of(self, name: str) -> Vector:
        """Vector of any signal (leaf or combinational) at this time point."""
        module = self._encoder.module
        if module.is_input(name) or module.is_register(name):
            return self.leaf_vector(name)
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        driver = module.driver_of(name)
        if driver is None:
            raise BitblastError(f"signal {name!r} has no driver and is not a leaf")
        vector = self._blast(name, driver)
        self._cache[name] = vector
        return vector

    def next_state_of(self, register: str) -> Vector:
        """Vector of the register's next-state function evaluated in this frame."""
        key = _NEXT + register
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        next_expr = self._encoder.module.registers[register].next
        vector = self._blast(key, next_expr)
        self._cache[key] = vector
        return vector

    def _memo_key(self, name: str) -> Optional[Tuple[str, Tuple[int, ...]]]:
        """``(name, support vector ids)``, or None while a support leaf is unbound."""
        ids = self._leaf_ids
        try:
            return (name, tuple([ids[leaf] for leaf in self._encoder.support_of(name)]))
        except KeyError:
            return None

    def _blast(self, name: str, expr: exprs.Expr) -> Vector:
        """Blast ``expr`` in this frame through the encoder's memo.

        The memo is consulted only when every support leaf is materialised:
        blasting would otherwise create those leaves (fresh inputs or the
        predecessor's next-state cones) in an order a hit would skip.
        """
        encoder = self._encoder
        key = self._memo_key(name)
        if key is not None:
            vector = encoder.memo.get(key)
            if vector is not None:
                encoder.memo_hits += 1
                return vector
        vector = encoder.blaster.blast(expr, _FrameEnv(self))
        if key is None:
            key = self._memo_key(name)
        if key is not None:
            encoder.memo[key] = vector
        return vector


class _FrameEnv(dict):
    """Environment adapter: lets the bit-blaster resolve signals via a frame."""

    def __init__(self, frame: SymbolicFrame) -> None:
        super().__init__()
        self._frame = frame

    def get(self, name, default=None):  # type: ignore[override]
        try:
            return self._frame.vector_of(name)
        except KeyError:
            return default

    def __getitem__(self, name):  # pragma: no cover - get() is the used path
        return self._frame.vector_of(name)

    def __contains__(self, name) -> bool:  # pragma: no cover
        return True


class TransitionEncoder:
    """Creates and advances symbolic frames of a module over a shared AIG.

    The encoder owns the bit-blasting memo shared by all of its frames (see
    the module docstring), so the memo lives exactly as long as the engine
    or unroller that holds the encoder.  ``graph`` supplies the leaf support
    of the memo keys; it is built on first use when not given.
    """

    def __init__(
        self,
        module: Module,
        aig: Optional[AIG] = None,
        graph: Optional[DependencyGraph] = None,
    ) -> None:
        self._module = module
        self._aig = aig or AIG()
        self._blaster = BitBlaster(self._aig)
        self._graph = graph
        self._supports: Dict[str, Tuple[str, ...]] = {}
        self._vector_ids: Dict[Tuple[int, ...], int] = {}
        #: ``(signal or next::<register>, support vector ids)`` -> blasted vector.
        self.memo: Dict[Tuple[str, Tuple[int, ...]], Vector] = {}
        self.memo_hits = 0

    @property
    def module(self) -> Module:
        return self._module

    @property
    def aig(self) -> AIG:
        return self._aig

    @property
    def blaster(self) -> BitBlaster:
        return self._blaster

    @property
    def graph(self) -> DependencyGraph:
        if self._graph is None:
            self._graph = DependencyGraph(self._module)
        return self._graph

    def intern(self, vector: Vector) -> int:
        """Small id of a leaf vector; equal vectors share one id."""
        ids = self._vector_ids
        return ids.setdefault(tuple(vector), len(ids))

    def support_of(self, key: str) -> Tuple[str, ...]:
        """Sorted leaf support of a signal, or of ``next::<register>``'s
        next-state function (the keys of a frame's vector cache)."""
        support = self._supports.get(key)
        if support is None:
            if key.startswith(_NEXT):
                leaves = self.graph.next_state_leaf_support(key[len(_NEXT):])
            else:
                leaves = self.graph.leaf_support(key)
            support = self._supports[key] = tuple(sorted(leaves))
        return support

    def new_frame(self, label: str) -> SymbolicFrame:
        """A frame whose leaves are all fresh symbolic variables (lazily created)."""
        return SymbolicFrame(self, label)

    def step(self, frame: SymbolicFrame, label: str) -> SymbolicFrame:
        """Frame for the next time point: registers lazily take their
        next-state cones from ``frame``, primary inputs become fresh variables
        (they are unconstrained unless the property says otherwise)."""
        return SymbolicFrame(self, label, predecessor=frame)

    def unroll(self, label: str, cycles: int) -> List[SymbolicFrame]:
        """Frames for time points ``t .. t+cycles`` (``cycles + 1`` frames)."""
        frames = [self.new_frame(f"{label}@0")]
        for time in range(1, cycles + 1):
            frames.append(self.step(frames[-1], f"{label}@{time}"))
        return frames
