"""Content fingerprints for the on-disk result cache.

A cached property result may only be replayed when *nothing that can change
the result* has changed: the elaborated netlist, the semantically relevant
parts of the detection configuration, the property class index, and the
serialized-record schema.  All four are folded into one SHA-256 hex digest,
the cache key of :class:`repro.exec.cache.ResultCache`.

The module fingerprint is a canonical serialization of the flat RTL IR, not
a pickle: expression trees are walked iteratively (AES S-box mux chains are
deep enough to overflow the recursion limit) and every dict is visited in
sorted order, so the digest is stable across Python versions and interning
behaviour.

Deliberately *excluded* from the config fingerprint are the knobs that do
not change any individual property's outcome: ``stop_at_first_failure`` and
``max_class`` only select *which* classes run, and ``jobs`` / ``cache_dir``
/ ``use_cache`` only select *how* they run.  ``sim_backend`` is excluded
too: the numpy and Python simulation kernels are bit-identical by
construction (see :mod:`repro.aig.simd`), so not a single bit of any record
can depend on the kernel choice.  A truncated audit therefore warms the
cache for a later full audit, a serial run warms it for a parallel one, and
a numpy run warms it for a machine without numpy.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.core.config import DetectionConfig
from repro.rtl import exprs
from repro.rtl.ir import Module

#: Version of the serialized class-record layout (see
#: :mod:`repro.exec.records`).  Part of every cache key, so a layout change
#: silently invalidates all previously written entries instead of trying to
#: read them.  v3: outcome records gained the sequential-mode fields
#: (``depth_reached``, ``first_divergence_cycle``).  v4: outcome records
#: gained the preprocessing telemetry (``sim_falsified``, ``nodes_before``,
#: ``nodes_after``, ``merged_nodes``, ``sweep_s``), and counterexample
#: witnesses became canonical under the simulation-guided settle.  v5: the
#: canonical witness settle runs solver inprocessing between checks
#: (vivified clauses propagate differently, so the CDCL search may land on
#: a different satisfying assignment than v4's) — witnesses cached by
#: earlier versions must not replay.  v6: outcome records gained two split
#: telemetry counters, and the cache gained two record types of the
#: (since removed) conflict-budgeted splitting under their own key shapes.
#: v7: outcome records gained the ``status`` field and the ``timeout`` /
#: ``error`` terminals (fault-tolerant execution) — older readers would
#: reject the new terminals, so the layouts must not alias.  v8: splitting
#: is gone — outcome records lost the v6 split counters, the split record
#: types are no longer written, and the config fingerprint no longer feeds
#: the split knobs; v7 entries miss instead of aliasing.
CACHE_SCHEMA_VERSION = 8


class _Hasher:
    """Tiny token-stream hasher: feed()s are length-prefixed, so the token
    boundaries are part of the digest (``("ab","c")`` != ``("a","bc")``)."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def feed(self, token: str) -> None:
        data = token.encode("utf-8")
        self._digest.update(str(len(data)).encode("ascii"))
        self._digest.update(b":")
        self._digest.update(data)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _feed_expr(hasher: _Hasher, root: exprs.Expr) -> None:
    """Feed a canonical pre-order token stream of ``root`` (iterative)."""
    stack: List[object] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):  # a literal marker token
            hasher.feed(node)
            continue
        if isinstance(node, exprs.Const):
            hasher.feed(f"const/{node.width}/{node.value}")
        elif isinstance(node, exprs.Ref):
            hasher.feed(f"ref/{node.width}/{node.name}")
        elif isinstance(node, exprs.Unop):
            hasher.feed(f"unop/{node.width}/{node.op}")
            stack.append(node.operand)
        elif isinstance(node, exprs.Binop):
            hasher.feed(f"binop/{node.width}/{node.op}")
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, exprs.Mux):
            hasher.feed(f"mux/{node.width}")
            stack.append(node.otherwise)
            stack.append(node.then)
            stack.append(node.cond)
        elif isinstance(node, exprs.Concat):
            hasher.feed(f"concat/{node.width}/{len(node.parts)}")
            stack.extend(reversed(node.parts))
        elif isinstance(node, exprs.Slice):
            hasher.feed(f"slice/{node.width}/{node.lsb}")
            stack.append(node.base)
        elif isinstance(node, exprs.Lut):
            table = ",".join(str(entry) for entry in node.table)
            hasher.feed(f"lut/{node.width}/{table}")
            stack.append(node.index)
        else:  # future node types must not silently alias an existing hash
            hasher.feed(f"other/{type(node).__name__}/{node!r}")


def module_fingerprint(module: Module) -> str:
    """SHA-256 of the canonical serialization of an elaborated module."""
    hasher = _Hasher()
    hasher.feed("module")
    hasher.feed(module.name)
    for section, table in (("inputs", module.inputs), ("outputs", module.outputs),
                           ("signals", module.signals)):
        hasher.feed(section)
        for name in sorted(table):
            hasher.feed(f"{name}/{table[name]}")
    hasher.feed("clocks")
    for name in sorted(module.clocks):
        hasher.feed(name)
    hasher.feed("resets")
    for name in sorted(module.resets):
        hasher.feed(name)
    hasher.feed("comb")
    for name in sorted(module.comb):
        hasher.feed(name)
        _feed_expr(hasher, module.comb[name])
    hasher.feed("registers")
    for name in sorted(module.registers):
        register = module.registers[name]
        hasher.feed(f"{name}/{register.width}/{register.reset_value}")
        _feed_expr(hasher, register.next)
    return hasher.hexdigest()


def config_fingerprint(config: DetectionConfig, backend_name: str) -> str:
    """SHA-256 of the semantically relevant configuration fields.

    ``backend_name`` must be the *resolved* backend (never ``"auto"``), so a
    machine where ``auto`` picks a different solver does not replay results
    whose counterexamples that solver never produced.

    The detection ``mode`` is always part of the digest; every other knob is
    folded in only for the mode it can affect.  Sequential outcomes depend
    on ``depth`` and ``reset_values`` but not on traced inputs, waivers, or
    the property-shape switches (the golden-model check has no fanout
    partition and no assumption machinery), and vice versa for
    combinational outcomes — hashing a knob into the mode it cannot
    influence would only make warm caches go cold.  A sequential rerun at
    the *same* depth therefore replays entirely from cache even when the
    waiver list changes, while a deeper bound misses and re-proves.

    Pure execution knobs — ``jobs``, ``cache_dir``, ``use_cache``,
    ``sim_backend``, ``trace`` — are deliberately excluded: the allowlist
    below feeds only the named semantic fields, so a traced run replays
    (and populates) exactly the cache entries of an untraced one.
    """
    hasher = _Hasher()
    hasher.feed("config")
    hasher.feed(f"backend/{backend_name}")
    hasher.feed(f"mode/{config.mode}")
    # The preprocessing switch affects both modes: it decides whether a class
    # record carries simulation or solver telemetry, so records of simplified
    # and unsimplified runs must never alias (verdicts and witnesses are
    # identical either way, but the telemetry contract is per-configuration).
    # The batch/round knobs are inert with simplify off — hashing them then
    # would only make warm --no-simplify caches go cold.
    hasher.feed(f"simplify/{config.simplify}")
    if config.simplify:
        hasher.feed(f"sim/{config.sim_patterns}/{config.fraig_rounds}")
    # Like simplify, inprocessing never changes a verdict or a reported
    # witness (the canonical settle pins it), but it does change the solver
    # telemetry of every class settled after the first inprocessing pass —
    # so records of inprocessed and untouched runs must never alias.
    hasher.feed(f"inprocess/{config.inprocess}")
    # The wall-clock deadline decides whether a hard class settles at all
    # (timeout outcomes are never cached, but a deadline also changes the
    # partial telemetry of every class that races it), so runs with
    # different deadlines must never share records.  Both modes check it.
    hasher.feed(f"check-timeout/{config.check_timeout_s}")
    if config.mode == "sequential":
        hasher.feed(f"depth/{config.depth}")
        hasher.feed("reset-values")
        for name in sorted(config.reset_values or {}):
            hasher.feed(f"{name}/{config.reset_values[name]}")
    else:
        inputs = list(config.inputs) if config.inputs is not None else None
        hasher.feed(f"inputs/{inputs!r}")
        hasher.feed(f"cumulative/{config.cumulative_assumptions}")
        hasher.feed(f"assume-inputs/{config.assume_inputs_at_prove_time}")
        hasher.feed("waivers")
        for signal in sorted(config.waived_signals()):
            hasher.feed(signal)
    return hasher.hexdigest()


def pair_module_fingerprint(design_fp: str, golden_fp: str) -> str:
    """Combined netlist fingerprint of a (design, golden model) pair.

    Sequential-mode cache entries depend on *both* netlists: a re-generated
    golden model must invalidate replays just like a changed design.  The
    pair digest is ordered (design first), so swapping the two roles never
    aliases.
    """
    hasher = _Hasher()
    hasher.feed("module-pair")
    hasher.feed(design_fp)
    hasher.feed(golden_fp)
    return hasher.hexdigest()


def class_cache_key(module_fp: str, config_fp: str, index: int) -> str:
    """Cache key of one property class under one (netlist, config) pair."""
    hasher = _Hasher()
    hasher.feed(f"repro-result-cache/v{CACHE_SCHEMA_VERSION}")
    hasher.feed(module_fp)
    hasher.feed(config_fp)
    hasher.feed(f"class/{index}")
    return hasher.hexdigest()
