"""Outside-in layer tracing: wrappers around the program's entry points.

Nothing inside ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer with wrappers that record a span
(name, start, end, parent, design) in memory and bump work counters.  A
layer's self time is its span time minus the time its child spans cover, so
the self times of all spans plus the time outside every span add up to the
traced wall time.

Functions that other modules import by name (``compute_fanout_classes``,
``parse_source``, ...) are rebound in every ``repro`` module that holds the
original object.  ``repro.rtl.elaborate`` is shadowed by the function of the
same name on its package, so that module is reached through ``sys.modules``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer work counts that must repeat exactly between two traced passes,
#: and two traced runs, of the same inputs.  Timing and pool scheduling never
#: enter them.  ``aig.and_calls`` comes from a counting pass of its own (see
#: :func:`count_and_calls`), one per run, so only runs compare it.
DETERMINISTIC_COUNTERS = (
    "verilog.lex.tokens",
    "aig.and_calls",
    "aig.nodes",
    "sat.cnf_clauses",
    "sat.conflicts",
    "sat.solve_calls",
    "exec.cache.hits",
    "exec.cache.misses",
    "rtl.netlist.builds_per_design",
)


class Recorder:
    """In-memory span and counter store of one traced pass."""

    def __init__(self) -> None:
        self.enabled = False
        self.design = ""
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.self_time: Dict[str, float] = {}
        self.total_time: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[List[Any]] = []  # [span index, name, start, child time]
        self._aigs: List[Any] = []

    def push(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.design))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def pop(self) -> None:
        end = time.perf_counter()
        index, name, start, child_time = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3], self.spans[index][4])
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][3] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def settle_aigs(self) -> None:
        """Book the AND nodes of every AIG created since the last call.

        Called at design boundaries, so the AIGs of one design are released
        once its audit ends instead of living for the whole pass.
        """
        self.count("aig.nodes", sum(aig.num_and_nodes for aig in self._aigs))
        self._aigs = []

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "design"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )


class _Span:
    __slots__ = ("_recorder", "_name")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        if self._recorder.enabled:
            self._recorder.push(self._name)

    def __exit__(self, *exc_info) -> None:
        if self._recorder.enabled:
            self._recorder.pop()


def _spanned(
    recorder: Recorder,
    name: str,
    function: Callable,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        recorder.push(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.pop()
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


class Installation:
    """The wrappers :func:`install` put in place, so they can be removed."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install(recorder: Recorder) -> Installation:
    """Wrap every layer's entry points; the recorder starts disabled."""
    import repro.api.session as api_session
    import repro.exec.executor as exec_executor
    from repro.aig.aig import AIG
    from repro.aig.bitblast import BitBlaster
    from repro.aig.preprocess import Preprocessor
    from repro.core import coverage
    from repro.exec.cache import ResultCache
    from repro.exec.scheduler import DesignPlan
    from repro.exec.worker import DesignWorkContext
    from repro.ipc.engine import IpcEngine
    from repro.rtl.fanout import compute_fanout_classes
    from repro.rtl.netlist import DependencyGraph
    from repro.sat.context import SolverContext
    from repro.verilog.lexer import Lexer
    from repro.verilog.parser import parse_source

    elaborate_module = sys.modules["repro.rtl.elaborate"]
    installation = Installation()
    count = recorder.count

    def method(owner: Any, attribute: str, name: str, on_result=None) -> None:
        original = getattr(owner, attribute)
        installation.replace(owner, attribute, _spanned(recorder, name, original, on_result))

    def function(original: Callable, name: str, on_result=None) -> None:
        wrapped = _spanned(recorder, name, original, on_result)
        attribute = original.__name__
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attribute, None) is original
            ):
                installation.replace(module, attribute, wrapped)

    # verilog / rtl
    method(Lexer, "tokenize", "verilog.lex", lambda tokens: count("verilog.lex.tokens", len(tokens)))
    function(parse_source, "verilog.parse")
    function(elaborate_module.elaborate, "rtl.elaborate")
    method(DependencyGraph, "__init__", "rtl.netlist", lambda _: count("rtl.netlist.builds"))
    function(compute_fanout_classes, "rtl.fanout")
    function(coverage.check_signal_coverage, "rtl.coverage")

    # aig
    method(BitBlaster, "blast", "aig.blast", lambda _: count("aig.blast.calls"))
    method(Preprocessor, "run", "aig.preprocess",
           lambda outcome: count("aig.sim_falsified", int(outcome.sim_falsified)))
    aig_init = AIG.__init__

    def registered_init(self, *args, **kwargs):
        aig_init(self, *args, **kwargs)
        if recorder.enabled:
            recorder._aigs.append(self)

    installation.replace(AIG, "__init__", registered_init)

    # ipc / sat
    method(IpcEngine, "begin_check", "ipc.begin_check", lambda _: count("ipc.checks"))
    method(IpcEngine, "finish_check", "ipc.finish_check")
    method(SolverContext, "literal_of", "sat.encode")
    method(SolverContext, "flush", "sat.flush", lambda fed: count("sat.cnf_clauses", fed))

    solve = SolverContext.solve

    def counted_solve(self, *args, **kwargs):
        # Counted from the context's own counters, in ``finally``: a solve
        # that hits its conflict limit raises, and its work still counts.
        if not recorder.enabled:
            return solve(self, *args, **kwargs)
        calls, conflicts = self.solve_calls, self.cumulative_conflicts
        recorder.push("sat.solve")
        try:
            return solve(self, *args, **kwargs)
        finally:
            recorder.pop()
            count("sat.solve_calls", self.solve_calls - calls)
            count("sat.conflicts", self.cumulative_conflicts - conflicts)

    installation.replace(SolverContext, "solve", functools.wraps(solve)(counted_solve))
    method(SolverContext, "inprocess", "sat.inprocess")

    # exec
    method(DesignPlan, "build", "exec.plan")
    method(DesignPlan, "assemble_report", "exec.report")
    method(DesignWorkContext, "settle_class", "exec.settle")
    method(ResultCache, "get", "exec.cache.get",
           lambda record: count("exec.cache.hits" if record is not None else "exec.cache.misses"))
    method(ResultCache, "put", "exec.cache.put", lambda _: count("exec.cache.puts"))

    def waited(outcome) -> None:
        # Worker-side wall time of the task, shipped home with its results.
        count("exec.pool.busy_s", float(outcome.stats.get("elapsed_s", 0.0)))

    method(exec_executor.ProcessPoolExecutor, "wait", "exec.pool.wait", waited)
    pool_worker_main = exec_executor._pool_worker_main

    def untraced_worker(*args, **kwargs):
        # A forked worker inherits the wrappers, but what it recorded would
        # stay in its own memory: it runs unwrapped instead.
        recorder.enabled = False
        installation.remove()
        return pool_worker_main(*args, **kwargs)

    installation.replace(exec_executor, "_pool_worker_main", untraced_worker)

    # api
    method(api_session.BatchSession, "add", "api.add")
    return installation


def count_and_calls() -> Callable[[], int]:
    """Count ``AIG.and_`` calls from now on; returns a reader of the count.

    Not part of :func:`install`: a wrapper around the hottest call of the
    program (millions per catalogue pass) slows a pass by half and books its
    own cost as ``aig.blast`` self time, so the count comes from a pass of
    its own whose timing is not used.  The process ends with that pass, so
    the wrapper is never removed.
    """
    from repro.aig.aig import AIG

    and_ = AIG.and_
    calls = [0]

    def counted_and(self, a, b):
        calls[0] += 1
        return and_(self, a, b)

    AIG.and_ = functools.wraps(and_)(counted_and)
    return lambda: calls[0]


def layer_metrics(recorder: Recorder, wall_s: float, designs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (self times in seconds)."""
    metrics: Dict[str, float] = {}
    for name, seconds in recorder.self_time.items():
        metrics[f"{name}.self_s"] = seconds
    metrics.update({name: float(value) for name, value in recorder.counts.items()})
    attributed = sum(recorder.self_time.values())
    metrics["traced_wall_s"] = wall_s
    metrics["unattributed_s"] = wall_s - attributed
    counts = recorder.counts
    lookups = counts.get("exec.cache.hits", 0) + counts.get("exec.cache.misses", 0)
    metrics["exec.cache.hit_ratio"] = counts.get("exec.cache.hits", 0) / lookups if lookups else 0.0
    metrics["rtl.netlist.builds_per_design"] = (
        counts.get("rtl.netlist.builds", 0) / designs if designs else 0.0
    )
    return metrics
