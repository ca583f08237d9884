"""The benchmark's workloads, run through the program's public API.

Two sub-commands, each started as its own process by ``run.py``:

``probe``    does one workload's set-up (imports, building the catalogue or
             generating sources) and prints ``ready``; the parent times it
             from process start.
``measure``  runs timed passes over the workload, each in a process forked
             for it, checks every verdict against its known answer and
             writes the raw passes as JSON.

All workloads are closed-loop with a single client: the next design is
queued only after the previous verdict arrived.  A pass audits the whole
design set once; a run repeats passes for about ``--seconds`` seconds.

Every timed span is recorded as ``(seconds, start, end)`` on the
``time.perf_counter`` clock, which all processes of the machine share, so
``run.py`` can turn it into reference seconds with the CPU-speed probes it
ran meanwhile (see ``speed.py``).  The functions that compute the figures
live here too and take those probes as an argument.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import datapath  # noqa: E402  (the generator lives next to this file)
import tracing  # noqa: E402

WORKLOADS = ("catalogue-cold", "datapath-sat", "catalogue-pool")

#: A fixed slice of the 35-design catalogue: every family, both HT-free and
#: Trojan designs, and every way Table I detects a Trojan (init property,
#: init and fanout properties, a late fanout property, the coverage check).
#: The full catalogue takes ~35 s per cold pass on a 2-core machine, more
#: than one run may spend; this slice keeps the catalogue's mix (AES
#: bit-blasting dominates) at ~6.5 s per pass.
CATALOGUE = (
    "AES-HT-FREE",
    "AES-T100",
    "AES-T1600",
    "AES-T1900",
    "AES-T2500",
    "BasicRSA-HT-FREE",
    "BasicRSA-T300",
    "RS232-HT-FREE",
    "RS232-T2400",
    "RS232-SEQ-T3100",
)

#: Worker processes of the ``catalogue-pool`` workload.
POOL_JOBS = 2

#: Seconds one pass took at the commit that introduced the benchmark (2-core
#: x86 machine).  A run makes ``round(seconds / NOMINAL_PASS_S)`` passes, so
#: every commit measured with the same ``--seconds`` does the same work and
#: gets the same number of per-design samples; a run stays near
#: ``--seconds`` long as long as the program keeps its speed.
NOMINAL_PASS_S = {
    "catalogue-cold": 6.5,
    "datapath-sat": 4.4,
    "catalogue-pool": 4.8,
}

#: Traced runs make this many traced passes, whose work counters must repeat
#: exactly, each followed by an untraced one.
TRACED_PASSES = 2

#: ``(seconds, start, end)``: a timed span on the ``perf_counter`` clock.
Span = Tuple[float, float, float]


def timed(start: float) -> Span:
    """The span from ``start`` until now."""
    end = time.perf_counter()
    return (end - start, start, end)


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #


@dataclass
class Workload:
    name: str
    seed: int
    #: Catalogue design names in audit order (catalogue workloads).
    names: List[str] = field(default_factory=list)
    #: Generated designs (``datapath-sat``).
    generated: List[datapath.DatapathDesign] = field(default_factory=list)


def set_up(name: str, seed: int) -> Workload:
    """Everything that precedes the first audit; never elaborates a design."""
    import repro.api  # noqa: F401  (import cost is part of set-up)
    from repro.trusthub import catalog

    workload = Workload(name=name, seed=seed)
    if name == "datapath-sat":
        workload.generated = datapath.generate(seed)
        return workload
    designs = catalog()
    missing = [design for design in CATALOGUE if design not in designs]
    if missing:
        raise SystemExit(f"catalogue lacks benchmark designs {missing}")
    # The catalogue is a fixed input: the designs run in the sorted order of
    # ``repro batch --all`` whatever the seed, so two runs allocate and
    # collect alike and their peak memory compares.
    workload.names = sorted(CATALOGUE)
    return workload


# --------------------------------------------------------------------------- #
# Known answers
# --------------------------------------------------------------------------- #


def _unsettled(report) -> Optional[str]:
    unsettled = [o.label for o in report.outcomes if o.status != "ok"]
    return f"unsettled classes {unsettled}" if unsettled else None


def catalogue_failure(name: str, report) -> Optional[str]:
    """Why ``report`` contradicts Table I for design ``name`` (None if it agrees).

    HT-free designs, and the SEQ designs in combinational mode, must come
    out secure.  A Trojan design must be detected where Table I says
    (``fanout property`` stands for any fanout property).  Table I names
    Algorithm 1's answer, the first failing property, or the coverage check
    when none fails.  Under ``--check-all`` the run goes on past that
    property and ``detected_by`` names the last failing one, as the flow has
    done since its first version, so the first failing outcome is checked
    against Table I and ``detected_by`` must name a failing outcome.
    """
    from repro.api import Verdict
    from repro.trusthub import load_design

    design = load_design(name)
    why = _unsettled(report)
    if why is not None:
        return why
    if design.family == "SEQ" or not design.has_trojan:
        if report.verdict is not Verdict.SECURE:
            return f"expected secure, got {report.verdict.value}"
        return None
    if report.is_secure:
        return f"expected detection by {design.expected_detection}, got secure"
    failing = [o.label for o in report.outcomes if not o.holds]
    label = report.detected_by or ""
    if label not in (failing or ["coverage check"]):
        return f"detected_by {label!r} names no failing check (failing classes {failing})"
    expected, first = design.expected_detection, (failing or [label])[0]
    if first != expected and not first.startswith(expected + " "):
        return f"expected detection by {expected!r}, got {first!r} first (failing classes {failing})"
    return None


def datapath_failure(report) -> Optional[str]:
    from repro.api import Verdict

    why = _unsettled(report)
    if why is not None:
        return why
    if report.verdict is not Verdict.SECURE:
        return f"expected secure by construction, got {report.verdict.value}"
    return None


# --------------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------------- #


@dataclass
class PassResult:
    started: float = 0.0
    wall_s: float = 0.0
    #: Timed spans of every design that reached a verdict; a design's time
    #: to verdict is the sum of its spans.
    design_spans: List[List[Span]] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    pool_wall_s: float = 0.0
    tasks_retried: int = 0
    workers_lost: int = 0
    #: Peak resident memory of the pass's process and its pool workers.
    peak_rss_mb: float = 0.0
    #: Layer figures and work counts of a traced pass.
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def span(self) -> Span:
        return (self.wall_s, self.started, self.started + self.wall_s)


def _fail(result: PassResult, design: str, why: str) -> None:
    result.failures.append(f"{design}: {why}")
    print(f"FAILED {design}: {why}", file=sys.stderr)


def _check(result: PassResult, name: str, report) -> None:
    why = catalogue_failure(name, report)
    if why is not None:
        _fail(result, name, why)


def catalogue_config(cache_dir: str, jobs: int = 1):
    """``repro batch --all --check-all --cache-dir DIR [--jobs N]``."""
    from repro.api import DetectionConfig

    return DetectionConfig(stop_at_first_failure=False, cache_dir=cache_dir, jobs=jobs)


def _add_all(batch, names: List[str], result: PassResult, recorder) -> Dict[str, Span]:
    """``BatchSession.add`` each benchmark; returns each design's elaboration span."""
    added: Dict[str, Span] = {}
    for name in names:
        recorder.design = name
        before = time.perf_counter()
        try:
            batch.add(name)
        except Exception:  # noqa: BLE001 - a failed design must not stop the run
            _fail(result, name, traceback.format_exc(limit=3))
            continue
        added[name] = timed(before)
    return added


def serial_catalogue_pass(workload: Workload, cache_dir: str, recorder) -> PassResult:
    """``BatchSession.add`` for each design, then ``iter_reports()``."""
    from repro.api import BatchSession

    config = catalogue_config(cache_dir)
    result = PassResult(attempted=len(workload.names), started=time.perf_counter())
    batch = BatchSession(config=config)
    added = _add_all(batch, workload.names, result, recorder)
    designs = list(batch.designs)
    reports = batch.iter_reports()
    for position, design in enumerate(designs):
        recorder.design = design.name
        before = time.perf_counter()
        try:
            with recorder.span("api.audit"):
                _, report = next(reports)
        except Exception:  # noqa: BLE001
            _fail(result, design.name, traceback.format_exc(limit=3))
            # The generator is finished after an exception: go on with a
            # batch over the designs that are left.
            rest = BatchSession(config=config)
            for later in designs[position + 1:]:
                rest.add(later)
            reports = rest.iter_reports()
            continue
        result.design_spans.append([added[design.name], timed(before)])
        recorder.settle_aigs()
        _check(result, design.name, report)
    result.wall_s = time.perf_counter() - result.started
    return result


def pool_catalogue_pass(workload: Workload, cache_dir: str, recorder) -> PassResult:
    """``BatchSession(...).run()`` at ``jobs=POOL_JOBS`` over the catalogue slice."""
    from repro.api import BatchSession

    result = PassResult(attempted=len(workload.names), started=time.perf_counter())
    batch = BatchSession(config=catalogue_config(cache_dir, jobs=POOL_JOBS))
    added = _add_all(batch, workload.names, result, recorder)
    recorder.design = ""
    run_started = time.perf_counter()
    try:
        with recorder.span("api.run"):
            batch_report = batch.run()
    except Exception:  # noqa: BLE001
        for name in added:
            _fail(result, name, traceback.format_exc(limit=3))
        result.wall_s = time.perf_counter() - result.started
        return result
    _, _, run_ended = pool_run = timed(run_started)
    result.pool_wall_s = pool_run[0]
    for report in batch_report.reports:
        # Designs overlap in the pool: a design's time is its elaboration
        # plus the time its report charges it (its workers' wall time, or
        # the wait for its results when that is longer), taken at the
        # machine speed of the pool's run.
        charged = (report.total_runtime_seconds, run_started, run_ended)
        result.design_spans.append([added[report.design], charged])
        result.tasks_retried += report.tasks_retried
        result.workers_lost += report.workers_lost
        _check(result, report.design, report)
    result.wall_s = time.perf_counter() - result.started
    return result


def datapath_pass(workload: Workload, recorder) -> PassResult:
    """``Design.from_source`` + ``DetectionSession.run`` for each generated design."""
    from repro.api import Design, DetectionSession

    result = PassResult(attempted=len(workload.generated), started=time.perf_counter())
    for generated in workload.generated:
        recorder.design = generated.name
        before = time.perf_counter()
        try:
            with recorder.span("api.load"):
                design = Design.from_source(generated.source, generated.top, name=generated.name)
            with recorder.span("api.audit"):
                report = DetectionSession(design, design.default_config()).run()
        except Exception:  # noqa: BLE001
            _fail(result, generated.name, traceback.format_exc(limit=3))
            continue
        result.design_spans.append([timed(before)])
        recorder.settle_aigs()
        why = datapath_failure(report)
        if why is not None:
            _fail(result, generated.name, why)
    result.wall_s = time.perf_counter() - result.started
    return result


def run_pass(workload: Workload, scratch: str, recorder) -> PassResult:
    # Start from a collected heap, so a cyclic-GC sweep over the garbage of
    # set-up does not land inside the pass's timing.
    gc.collect()
    if workload.name == "datapath-sat":
        return datapath_pass(workload, recorder)
    cache_dir = os.path.join(scratch, f"cache-{time.monotonic_ns()}")
    os.makedirs(cache_dir)
    try:
        if workload.name == "catalogue-pool":
            return pool_catalogue_pass(workload, cache_dir, recorder)
        return serial_catalogue_pass(workload, cache_dir, recorder)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def one_pass(workload: Workload, scratch: str, mode: str, trace_out: Optional[str]) -> PassResult:
    """One pass, meant to run in a process of its own.

    ``mode`` is ``plain``, ``traced`` (spans and work counters) or
    ``and-calls`` (counts ``AIG.and_`` calls only; see
    :func:`tracing.count_and_calls`).
    """
    recorder = tracing.Recorder()
    if mode == "plain":
        result = run_pass(workload, scratch, recorder)
    elif mode == "and-calls":
        and_calls = tracing.count_and_calls()
        result = run_pass(workload, scratch, recorder)
        result.counts = {"aig.and_calls": float(and_calls())}
    else:
        tracing.install(recorder)  # the process ends with the pass
        recorder.enabled = True
        result = run_pass(workload, scratch, recorder)
        recorder.enabled = False
        recorder.settle_aigs()
        result.layers = tracing.layer_metrics(
            recorder, result.wall_s, len(result.design_spans) or 1
        )
        result.layers.update({f"{name}.total_s": s for name, s in recorder.total_time.items()})
        result.counts = dict(recorder.counts)
        if trace_out:
            recorder.dump(trace_out)
    result.peak_rss_mb = peak_rss_mb()
    return result


def _child_main(send, function, args) -> None:
    try:
        send.send(("ok", function(*args)))
    except BaseException:
        send.send(("error", traceback.format_exc()))
        raise
    finally:
        send.close()


def isolated(function, *args):
    """``function(*args)`` in a forked child process; returns its result.

    Each pass then starts from the same heap and pays the same one-time
    costs, as one ``repro batch`` invocation does, and its peak memory, its
    pool workers' included, is its own.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(send, function, args))
    with receive:
        child.start()
        send.close()
        try:
            status, value = receive.recv()
        except EOFError:
            status, value = "error", None
    child.join()
    if status != "ok":
        raise RuntimeError(value or f"pass process exited with code {child.exitcode}")
    return value


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


# --------------------------------------------------------------------------- #
# Figures, in reference seconds (``probes`` is a ``speed.Probes``)
# --------------------------------------------------------------------------- #


def tail(samples: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        # Too few samples for any percentile to have ten beyond it: report
        # the maximum and say so through the percentile.
        return {"value": ordered[-1], "percentile": 100.0, "n": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def end_to_end(passes: List[PassResult], probes) -> Dict[str, object]:
    samples = [probes.reference_s(spans) for one in passes for spans in one.design_spans]
    wall_samples = [sum(s for s, _, _ in spans) for one in passes for spans in one.design_spans]
    if not samples:
        raise RuntimeError("no design reached a verdict")
    wall_s = sum(one.wall_s for one in passes)
    return {
        "designs_per_s": len(samples) / probes.reference_s(one.span for one in passes),
        "design_p50_s": statistics.median(samples),
        "design_tail": tail(samples),
        "peak_rss_mb": statistics.median(one.peak_rss_mb for one in passes),
        "wall_designs_per_s": len(samples) / wall_s,
        "wall_design_p50_s": statistics.median(wall_samples),
        "designs_per_pass": passes[0].attempted,
    }


def per_layer(
    untraced: List[PassResult], traced: List[PassResult], and_calls: float, probes
) -> Dict[str, float]:
    """Mean of the traced passes' layer figures, plus AIG, pool and trace figures.

    Self times stay in wall seconds; only the tracing overhead compares
    passes taken at different times, so only it is taken in reference
    seconds.
    """
    names = sorted({name for one in traced for name in one.layers})
    metrics = {
        name: statistics.fmean(one.layers.get(name, 0.0) for one in traced) for name in names
    }
    metrics["aig.and_calls"] = and_calls
    metrics["aig.strash_hit_ratio"] = (
        1.0 - metrics.get("aig.nodes", 0.0) / and_calls if and_calls else 0.0
    )
    metrics["trace.overhead_share"] = (
        probes.reference_s(one.span for one in traced)
        / probes.reference_s(one.span for one in untraced) - 1.0
    )
    mismatches = [
        name for name in tracing.DETERMINISTIC_COUNTERS
        if name in traced[0].layers and len({one.layers.get(name, 0.0) for one in traced}) > 1
    ]
    for name in mismatches:
        print(
            f"COUNTER MISMATCH {name}: {[one.layers.get(name, 0.0) for one in traced]} "
            f"across {len(traced)} traced passes of the same inputs",
            file=sys.stderr,
        )
    metrics["trace.counter_mismatches"] = float(len(mismatches))
    pool_wall = statistics.fmean(one.pool_wall_s for one in traced)
    if pool_wall > 0:
        busy_s = metrics.get("exec.pool.busy_s", 0.0)
        # Plans are built serially in the parent before the pool forks.
        pool_wall -= metrics.get("exec.plan.total_s", 0.0)
        metrics["exec.pool.busy_share"] = busy_s / (POOL_JOBS * pool_wall)
        metrics["exec.pool.parent_load_s"] = (
            metrics.get("api.add.total_s", 0.0) + metrics.get("exec.plan.total_s", 0.0)
        )
    metrics["exec.pool.tasks_retried"] = float(sum(one.tasks_retried for one in traced))
    metrics["exec.pool.workers_lost"] = float(sum(one.workers_lost for one in traced))
    return metrics


def load_passes(rows: List[Dict[str, object]]) -> List[PassResult]:
    return [PassResult(**row) for row in rows]


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #


def measure(args: argparse.Namespace) -> Dict[str, List[PassResult]]:
    """The raw passes of one run: ``plain``, and for ``--trace 1`` also
    ``traced`` and ``counted`` (the ``AIG.and_`` counting pass)."""
    scratch = args.scratch
    workload = set_up(args.workload, args.seed)
    if not args.trace:
        count = max(1, round(args.seconds / NOMINAL_PASS_S[workload.name]))
        return {"plain": [isolated(one_pass, workload, scratch, "plain", None) for _ in range(count)]}

    # Traced and untraced passes alternate, so machine-speed drift within
    # the run does not bias the tracing overhead.
    traced: List[PassResult] = []
    untraced: List[PassResult] = []
    for index in range(TRACED_PASSES):
        last = index == TRACED_PASSES - 1
        traced.append(isolated(one_pass, workload, scratch, "traced", args.trace_out if last else None))
        untraced.append(isolated(one_pass, workload, scratch, "plain", None))
    counted = isolated(one_pass, workload, scratch, "and-calls", None)
    return {"plain": untraced, "traced": traced, "counted": [counted]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("probe", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True, help="directory for this process's files")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the last traced pass's spans here")
    parser.add_argument("--out", help="write the raw passes as JSON here")
    args = parser.parse_args(argv)
    os.makedirs(args.scratch, exist_ok=True)

    if args.command == "probe":
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    passes = measure(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({kind: [asdict(one) for one in rows] for kind, rows in passes.items()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
