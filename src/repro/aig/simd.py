"""Vectorized (numpy) bit-parallel AIG simulation.

Accelerator twin of :meth:`repro.aig.aig.AIG.evaluate_word_values` for wide
pattern batches: every node's pattern word is a row of ``uint64`` limbs and
whole *levels* of the cone are evaluated with fancy-indexed numpy
expressions, so the per-gate Python interpreter cost is paid once per level
instead of once per AND gate.

CPython's big ints are themselves limb arrays combined by C loops, so the
pure-Python kernel is already "vectorized" per gate — what numpy removes is
the per-gate *interpreter* overhead (dict lookups, branch on complement
bits).  That only pays off when the schedule bookkeeping is not rebuilt per
evaluation, which is why :class:`SimdEvaluator` caches levels and fanin
arrays per AIG: the AIG is append-only, so a node's level and fanins never
change, and repeated evaluations (fraig signature refinement, sim-first
checks over a shared, growing AIG) reuse the schedule and only extend it
for newly created nodes.

Correctness contract: returned words are **bit-identical** to the Python
kernel's.  Both operate column-wise (bit ``i`` of every word belongs to
pattern ``i``); complemented fanins XOR against all-ones limbs, which sets
garbage above the pattern mask, but bitwise ops never move information
between columns, so masking the top limb on extraction reproduces the
Python ints exactly.  ``tests/test_sim_backends.py`` enforces this on
random cones.

numpy is an *optional* dependency: :func:`numpy_available` gates every use
and callers fall back to the Python kernel when it is absent or the batch
is too narrow to amortize the numpy fixed costs (``NUMPY_MIN_PATTERNS``).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None

from repro.aig.aig import AIG

#: Narrower batches than this run faster on Python ints: one big-int op per
#: gate beats the numpy dispatch overhead until words span several limbs.
NUMPY_MIN_PATTERNS = 256

_LIMB_BITS = 64
_ALL_ONES = 0xFFFFFFFFFFFFFFFF


def numpy_available() -> bool:
    """True when the numpy package is importable."""
    return _np is not None


class SimdEvaluator:
    """Persistent vectorized evaluator over one append-only AIG.

    Keeps per-node level and fanin arrays, extended incrementally as the
    AIG grows; every :meth:`evaluate_word_values` call then schedules the
    cone with numpy primitives (argsort by cached level) instead of a
    per-gate Python pass.
    """

    def __init__(self, aig: AIG) -> None:
        # Weak: the evaluator is the value of a WeakKeyDictionary keyed by
        # this AIG, and a strong reference would keep the key alive forever.
        self._aig_ref = weakref.ref(aig)
        self._known = 1  # node 0 (constant false) is always known
        self._level = _np.zeros(1, dtype=_np.int32)
        self._left = _np.zeros(1, dtype=_np.intp)
        self._right = _np.zeros(1, dtype=_np.intp)
        self._left_inv = _np.zeros(1, dtype=bool)
        self._right_inv = _np.zeros(1, dtype=bool)

    @property
    def _aig(self) -> AIG:
        return self._aig_ref()

    def _extend(self) -> None:
        """Grow the cached schedule to cover nodes created since last call."""
        total = self._aig.num_nodes
        if total <= self._known:
            return
        nodes_table = self._aig._nodes
        level = _np.zeros(total, dtype=_np.int32)
        level[: self._known] = self._level
        left = _np.zeros(total, dtype=_np.intp)
        left[: self._known] = self._left
        right = _np.zeros(total, dtype=_np.intp)
        right[: self._known] = self._right
        left_inv = _np.zeros(total, dtype=bool)
        left_inv[: self._known] = self._left_inv
        right_inv = _np.zeros(total, dtype=bool)
        right_inv[: self._known] = self._right_inv
        for node in range(self._known, total):
            children = nodes_table[node]
            if children is None:
                continue  # input: level 0, fanins stay at the zero row
            fanin_left, fanin_right = children
            left[node] = fanin_left >> 1
            right[node] = fanin_right >> 1
            left_inv[node] = bool(fanin_left & 1)
            right_inv[node] = bool(fanin_right & 1)
            level[node] = max(level[left[node]], level[right[node]]) + 1
        self._level = level
        self._left = left
        self._right = right
        self._left_inv = left_inv
        self._right_inv = right_inv
        self._known = total

    def _simulate(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]],
    ):
        """Run the levelized simulation; returns (cone_list, limb matrix).

        The matrix is indexed by node id and already masked, so extracting
        any node's Python-int word is one ``int.from_bytes``.
        """
        self._extend()
        cone_list = list(cone) if cone is not None else self._aig.cone_nodes(roots)
        num_patterns = mask.bit_length()
        limbs = max(1, (num_patterns + _LIMB_BITS - 1) // _LIMB_BITS)
        values = _np.zeros((self._known, limbs), dtype="<u8")

        cone_arr = _np.asarray(cone_list, dtype=_np.intp)
        if cone_arr.size == 0:
            return cone_list, values
        cone_levels = self._level[cone_arr]
        # Stable sort groups the cone by level while keeping topological
        # order inside each level (irrelevant for correctness — same-level
        # gates are independent — but deterministic).
        order = _np.argsort(cone_levels, kind="stable")
        sorted_nodes = cone_arr[order]
        sorted_levels = cone_levels[order]

        # Level 0: inputs, converted from Python ints once each.
        input_count = int(_np.searchsorted(sorted_levels, 1))
        byte_length = limbs * 8
        for node in sorted_nodes[:input_count].tolist():
            word = input_words.get(node, 0) & mask
            values[node] = _np.frombuffer(word.to_bytes(byte_length, "little"), dtype="<u8")

        boundaries = _np.searchsorted(
            sorted_levels, _np.arange(1, int(sorted_levels[-1]) + 2)
        )
        # Reused scratch rows: per-level gather temporaries at wide widths
        # would otherwise each be a fresh multi-MB allocation (mmap churn).
        widest = int(_np.max(boundaries[1:] - boundaries[:-1], initial=0))
        left_scratch = _np.empty((widest, limbs), dtype="<u8")
        right_scratch = _np.empty((widest, limbs), dtype="<u8")
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            gates = sorted_nodes[start:stop]
            count = gates.shape[0]
            left_words = left_scratch[:count]
            right_words = right_scratch[:count]
            _np.take(values, self._left[gates], axis=0, out=left_words)
            _np.take(values, self._right[gates], axis=0, out=right_words)
            # A complemented fanin XORs against all-ones; (count, 1) flip
            # columns broadcast over the limbs in place.
            left_flip = self._left_inv[gates, None].astype("<u8") * _np.uint64(_ALL_ONES)
            right_flip = self._right_inv[gates, None].astype("<u8") * _np.uint64(_ALL_ONES)
            _np.bitwise_xor(left_words, left_flip, out=left_words)
            _np.bitwise_xor(right_words, right_flip, out=right_words)
            _np.bitwise_and(left_words, right_words, out=left_words)
            values[gates] = left_words

        # Complements set garbage above the mask; clearing the top limb once,
        # vectorized, makes the extracted ints equal the Python kernel's.
        spill = num_patterns % _LIMB_BITS
        if spill:
            values[:, -1] &= _np.uint64((1 << spill) - 1)
        return cone_list, values

    def evaluate_word_values(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]] = None,
    ) -> Dict[int, int]:
        """Numpy twin of :meth:`AIG.evaluate_word_values` (same contract)."""
        cone_list, values = self._simulate(roots, input_words, mask, cone)
        byte_length = values.shape[1] * 8
        blob = values[_np.asarray(cone_list, dtype=_np.intp)].tobytes()
        out = {0: 0}
        for position, node in enumerate(cone_list):
            out[node] = int.from_bytes(
                blob[position * byte_length : (position + 1) * byte_length], "little"
            )
        return out

    def evaluate_words(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]] = None,
    ) -> List[int]:
        """Numpy twin of :meth:`AIG.evaluate_words`: root words only.

        Skips the per-node int extraction of :meth:`evaluate_word_values` —
        on a wide batch almost the whole cost — so the sim-first
        falsification and assignment-minimization paths (which only consume
        root words) get the full vectorization benefit.
        """
        roots = list(roots)
        _cone, values = self._simulate(roots, input_words, mask, cone)
        results = []
        for literal in roots:
            word = int.from_bytes(values[literal >> 1].tobytes(), "little")
            results.append(word ^ mask if literal & 1 else word)
        return results


# One cached evaluator per live AIG; the weak keys let an engine's AIG (and
# its schedule arrays) be reclaimed when the engine goes away.
_EVALUATORS: "weakref.WeakKeyDictionary[AIG, SimdEvaluator]" = (
    weakref.WeakKeyDictionary() if _np is not None else None  # type: ignore[assignment]
)


def evaluator_for(aig: AIG) -> SimdEvaluator:
    """The (cached) persistent evaluator of one AIG."""
    if _np is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("numpy is not available")
    evaluator = _EVALUATORS.get(aig)
    if evaluator is None:
        evaluator = SimdEvaluator(aig)
        _EVALUATORS[aig] = evaluator
    return evaluator


def evaluate_word_values_numpy(
    aig: AIG,
    roots: Iterable[int],
    input_words: Dict[int, int],
    mask: int,
    cone: Optional[List[int]] = None,
) -> Dict[int, int]:
    """Module-level convenience over :func:`evaluator_for` (same contract
    as :meth:`AIG.evaluate_word_values`)."""
    return evaluator_for(aig).evaluate_word_values(roots, input_words, mask, cone=cone)


def evaluate_words_numpy(
    aig: AIG,
    roots: Iterable[int],
    input_words: Dict[int, int],
    mask: int,
    cone: Optional[List[int]] = None,
) -> List[int]:
    """Module-level convenience over :func:`evaluator_for` (same contract
    as :meth:`AIG.evaluate_words`)."""
    return evaluator_for(aig).evaluate_words(roots, input_words, mask, cone=cone)
